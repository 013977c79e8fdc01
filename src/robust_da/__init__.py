"""Robust Bayesian filtering for state-space models.

Closed-form Kalman filters with generalized-Bayes analysis steps
(score-matching and weighted-likelihood), ensemble variants
(stochastic EnKF, deterministic square-root filter, localized transform
filter), a bounded-potential particle filter, and a twin-experiment benchmark
harness for contaminated observation noise.
"""

from ._linalg import SpdFactor, psd_sym_sqrt, symmetrize
from .analysis import (
    AnalysisResult,
    InfluenceRow,
    WolfSpec,
    dsm_analysis,
    influence_sweep,
    information_form_update,
    wolf_analysis,
)
from .ensemble import (
    EnsembleState,
    LetkfConfig,
    Localization,
    enkf_perturbed_analysis,
    ensemble_forecast,
    esrf_analysis,
    letkf_analysis,
)
from .harness import (
    ExperimentConfig,
    PRESETS,
    RunResult,
    SweepResult,
    run_ensemble_size_sweep,
    run_single,
    run_sweep,
)
from .lgss import (
    GaussianBelief,
    LgssModel,
    ObservationModel,
    kf_analysis,
    kf_forecast,
)
from .metrics import MetricReport, ci_coverage, q_ic, q_log, rmse
from .models import (
    ContaminationSpec,
    TrajectoryRecord,
    contaminate,
    simulate_lorenz63,
    simulate_lorenz96,
    simulate_ou,
    simulate_target_tracking,
)
from .particle import ParticleCloud, dsm_log_potential, pf_step
from .weights import (
    WeightEvaluation,
    WeightKernelSpec,
    default_threshold,
    eval_kernel,
    expected_weight_mc,
    jensen_bounds,
    tune_threshold,
)

__version__ = "0.1.0"
