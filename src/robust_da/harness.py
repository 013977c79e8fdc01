"""Experiment orchestration: filter loops over twin experiments, Monte-Carlo
contamination and ensemble-size sweeps, and CSV/JSON result files.

``_FILTER_TABLE`` defines every filter by the analysis step it runs (kf,
enkf, esrf, letkf or pf) and the weight that goes into that step (regular,
DSM or WoLF); one loop, ``_filter_loop``, runs every family and reports
divergence the same way for all of them.  A sweep job is a chunk of
replicates, whose filters the loop advances in lock-step as stacks, the
closed-form filters as one and the ensemble and particle filters as another:
per observation, the stacks' member blocks go through one stacked forecast,
each stack steps its live elements and writes their moments into the loop's
one record, and the loop stamps and drops the elements that diverged.  The
linear Gaussian truths of a chunk are simulated together, and its runs are
scored in one pass.  A single run is a chunk of one job.

Determinism contract: a (config, master seed) pair maps to byte-identical
result files regardless of worker count and chunk size; per-replicate
streams are derived order-free from the master seed via spawn keys, and each
stacked step acts on each element alone.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .ensemble import (
    ENKF_MODES,
    EnsembleState,
    LetkfConfig,
    Localization,
    enkf_perturbed_analysis,
    ensemble_forecast,
    esrf_analysis,
    letkf_analysis,
)
from ._linalg import psd_sym_sqrt
from .lgss import GaussianBelief, LgssModel, ObservationModel, kf_forecast, robust_analysis
from .metrics import MetricReport
from .models import (
    LGSS_DT,
    LORENZ63_DT,
    LORENZ96_DT,
    LORENZ_T_OUT,
    ContaminationSpec,
    TrajectoryRecord,
    _write_csv,
    lgss_sampler,
    lorenz63_sampler,
    lorenz96_sampler,
    ou_model,
    simulate_lgss,
    simulate_lorenz63,
    simulate_lorenz96,
    step_counts,
    tracking_model,
)
from .particle import ParticleCloud, pf_step
from .weights import CONDITIONAL, CONSTANT, IMQ, MARGINAL, SQEXP, WOLF, WeightKernelSpec

__all__ = [
    "SCHEMA_VERSION",
    "FILTERS",
    "MODELS",
    "PRESETS",
    "ExperimentConfig",
    "FilterRun",
    "RunResult",
    "SweepResult",
    "run_single",
    "run_sweep",
    "run_ensemble_size_sweep",
]

SCHEMA_VERSION = 1

# Filter name -> (analysis step, weight).  The weight is None for the regular
# filter (constant kernel), WOLF for the WoLF weight, and otherwise the
# standardization of the configured DSM kernel: MARGINAL, by HPH^T + R with
# HPH^T from the forecast covariance (closed form) or the ensemble anomalies,
# or CONDITIONAL, by R (the particle filter).
_FILTER_TABLE = {
    "kf": ("kf", None), "dsm_kf": ("kf", MARGINAL), "wolf_kf": ("kf", WOLF),
    "enkf": ("enkf", None), "dsm_enkf": ("enkf", MARGINAL), "wolf_enkf": ("enkf", WOLF),
    "esrf": ("esrf", None), "dsm_esrf": ("esrf", MARGINAL),
    "letkf": ("letkf", None), "dsm_letkf": ("letkf", MARGINAL), "wolf_letkf": ("letkf", WOLF),
    "dsm_pf": ("pf", CONDITIONAL),
}
FILTERS = tuple(_FILTER_TABLE)
_WOLF_VARIANTS = {"md": CONDITIONAL, "sigma_scaled": MARGINAL}  # -> WoLF standardization

# Model -> (default horizon, truth step, observation interval, d_X, d_Y).
_MODEL_SETTINGS = {
    "ou": (10.0, LGSS_DT, LGSS_DT, 1, 1),
    "tracking2d": (50.0, LGSS_DT, LGSS_DT, 4, 2),
    "lorenz63": (50.0, LORENZ63_DT, LORENZ_T_OUT, 3, 1),
    "lorenz96": (73.0, LORENZ96_DT, LORENZ_T_OUT, 40, 40),
}
MODELS = tuple(_MODEL_SETTINGS)
# Model -> doubles per member column that one forecast holds (its sampler in
# ``ensemble_forecast``): (its largest array, all it holds at its peak).  The
# LGSS sampler holds the noise, two products and their sum; the L63 sampler
# keeps a (17 + 3 x 50)-row buffer, draws (50, 3) normals and returns the
# (3,) members, counted as if all at once; the L96 sampler keeps its (6, 40)
# RK4 stages and four (40,) constants, stacks the members and holds its
# (5, 40) forcings twice (the blocks' draws and their copy).
_FORECAST_DOUBLES = {
    "ou": (1, 4), "tracking2d": (4, 16), "lorenz63": (167, 320), "lorenz96": (240, 840),
}
# Largest horizon, in truth steps t_end / dt, a config accepts: 20 times the
# largest preset's (lorenz63_full, 50,000 steps), and small enough that the
# truth arrays of every model stay under a gigabyte (L96 at the cap: 0.64 GB).
MAX_TRUTH_STEPS = 1_000_000
# Ceiling on a sampled filter's largest per-step array: the forecast's
# largest array (``_FORECAST_DOUBLES``), or the (d_Y, M, M) window products of
# the ESRF and LETKF.
MAX_STEP_BYTES = 2**24
MAX_MC_REPS = 100_000  # 40 times tracking_full's; a sweep lists every job up front


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: model, filter, contamination, budgets and seeds."""

    model: str = "ou"
    filter: str = "kf"
    kernel_family: str = IMQ
    q_sq: float | None = None        # None -> dimension default
    c_sq: float | None = None        # WoLF threshold, None -> dimension default
    wolf_variant: str = "md"
    epsilon: float = 0.0
    lam: float = 1.0
    ensemble_size: int = 10
    t_end: float | None = None       # None -> model default horizon
    mc_reps: int = 1
    seed: int = 0
    out_dir: str | None = None
    threads: int = 1
    enkf_mode: str = "average"
    rho: float = 1.06
    half_width: int | None = 19
    taper_length: float = 5.45
    resample_threshold: float = 0.5

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r} (choose from {MODELS})")
        if self.filter not in FILTERS:
            raise ValueError(f"unknown filter {self.filter!r} (choose from {FILTERS})")
        kind = _FILTER_TABLE[self.filter][0]
        if kind == "kf" and self.model not in ("ou", "tracking2d"):
            raise ValueError(
                f"filter {self.filter!r} needs a linear Gaussian model, got {self.model!r}"
            )
        for name, low in (("mc_reps", 1), ("ensemble_size", 1), ("seed", 0), ("threads", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.mc_reps > MAX_MC_REPS:
            raise ValueError(f"mc_reps {self.mc_reps} is above the ceiling of {MAX_MC_REPS}")
        for name in ("q_sq", "c_sq", "t_end", "epsilon", "lam", "rho", "taper_length",
                     "resample_threshold"):
            value = getattr(self, name)
            if value is None and name in ("q_sq", "c_sq", "t_end"):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string path, got {self.out_dir!r}")
        if self.out_dir == "":  # Path("") is the working directory
            raise ValueError("out_dir must be a nonempty path, got ''")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        dt, t_out, _, d_y = _MODEL_SETTINGS[self.model][1:]
        if not self.horizon / dt <= MAX_TRUTH_STEPS:  # refuses an overflow to inf too
            raise ValueError(
                f"t_end {self.horizon} needs more than {MAX_TRUTH_STEPS} {self.model!r} "
                f"truth steps of {dt}"
            )
        n, steps_per_obs = step_counts(self.horizon, dt, t_out)
        if n < steps_per_obs:
            raise ValueError(
                f"t_end {self.horizon} gives {self.model!r} no observation to assimilate"
            )
        m = self.ensemble_size
        if m < 2 and kind != "kf":
            raise ValueError("ensemble_size must be >= 2 for ensemble and particle filters")
        window = d_y * m if kind in ("esrf", "letkf") else 0
        step_bytes = 8 * m * max(_FORECAST_DOUBLES[self.model][0], window)
        if step_bytes > MAX_STEP_BYTES and kind != "kf":
            raise ValueError(f"ensemble_size {m} gives {kind} on {self.model!r} a per-step "
                             f"array of {step_bytes} bytes, above the ceiling of {MAX_STEP_BYTES}")
        # Build the contamination and every weight and LETKF setting once, so
        # that a bad value is refused here instead of by a run.
        self.contamination
        if self.kernel_family not in (IMQ, SQEXP, CONSTANT):  # WOLF is the wolf_* filters' weight
            raise ValueError(f"unknown DSM kernel family {self.kernel_family!r}")
        WeightKernelSpec(threshold=self.q_sq).thresholds_for(1)  # under any family
        if self.wolf_variant not in _WOLF_VARIANTS:
            raise ValueError(f"unknown WoLF variant {self.wolf_variant!r}")
        WeightKernelSpec(family=WOLF, threshold=self.c_sq).thresholds_for(1)
        if not 0.0 <= self.resample_threshold <= 1.0:  # refuses NaN too
            raise ValueError(f"resample_threshold {self.resample_threshold} is not in [0, 1]")
        if self.enkf_mode not in ENKF_MODES:
            raise ValueError(f"unknown EnKF mode {self.enkf_mode!r} (choose from {ENKF_MODES})")
        # taper_length is checked even where no window uses it.
        Localization(half_width=0 if self.half_width is None else self.half_width,
                     taper_length=self.taper_length)
        LetkfConfig(rho=self.rho)

    @property
    def contamination(self) -> ContaminationSpec:
        return ContaminationSpec(epsilon=self.epsilon, lam=self.lam)

    @property
    def horizon(self) -> float:
        return self.t_end if self.t_end is not None else _MODEL_SETTINGS[self.model][0]

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise ValueError(f"config must be a mapping of fields, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown, key=repr)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"invalid config: {exc}") from exc


PRESETS: dict[str, dict] = {
    # Full benchmark setups (reference horizons and MC budgets).
    "ou_full": dict(model="ou", t_end=10.0, epsilon=0.25, lam=27.5**2, mc_reps=1),
    "tracking_full": dict(model="tracking2d", t_end=50.0, epsilon=0.2, lam=10.0**2, mc_reps=2500),
    "lorenz63_full": dict(
        model="lorenz63", filter="dsm_enkf", t_end=50.0, epsilon=0.25, lam=25.0**2,
        ensemble_size=10, mc_reps=1000,
    ),
    "lorenz96_full": dict(
        model="lorenz96", filter="dsm_letkf", t_end=73.0, epsilon=0.25, lam=27.5**2,
        ensemble_size=10, mc_reps=100, rho=1.06, half_width=19, taper_length=5.45,
    ),
}
# Desk-scale variants with reduced horizons / replication for CI gates.
PRESETS.update(
    {
        f"{name}_desk": {**PRESETS[f"{name}_full"], "t_end": 10.0, "mc_reps": mc_reps}
        for name, mc_reps in (("ou", 100), ("tracking", 200), ("lorenz63", 50), ("lorenz96", 10))
    }
)


# ---------------------------------------------------------------------------
# Model setup


@dataclass
class ModelSetup:
    record: TrajectoryRecord
    lgss: LgssModel | None
    obs: ObservationModel
    sampler: object                # member propagator between observations
    init_mean: np.ndarray
    init_cov: np.ndarray
    diagonalize_qic: bool


def build_setups(configs: Sequence[ExperimentConfig], traj_seeds: Sequence) -> list[ModelSetup]:
    """The setups of replicates of one model and horizon, one per (config,
    truth seed); the configs may differ in contamination.  The linear
    Gaussian truths are simulated together (``simulate_lgss``), the Lorenz
    truths one by one: numpy arithmetic on a (d, 1) column costs more than on
    a (d,) vector, and the L63 truth steps in Python floats."""
    config = configs[0]
    t_end = config.horizon
    dt, t_out = _MODEL_SETTINGS[config.model][1:3]
    substeps = step_counts(t_end, dt, t_out)[1]  # forecast steps per observation
    contaminations = [c.contamination for c in configs]
    if config.model in ("ou", "tracking2d"):
        lgss = ou_model() if config.model == "ou" else tracking_model()
        records = simulate_lgss(lgss, t_end, traj_seeds, contaminations)
        sampler = lgss_sampler(lgss)
        return [
            ModelSetup(record, lgss, lgss.observation, sampler, lgss.prior.mean, lgss.prior.cov,
                       diagonalize_qic=False)
            for record in records
        ]
    setups = []
    for seed, contamination in zip(traj_seeds, contaminations):
        if config.model == "lorenz63":
            record, obs = simulate_lorenz63(t_end=t_end, seed=seed, contamination=contamination)
            sampler = lorenz63_sampler(dt, n_steps=substeps)
            init_cov = 0.1 * np.eye(3)
        else:
            record, obs = simulate_lorenz96(t_end=t_end, seed=seed, contamination=contamination)
            sampler = lorenz96_sampler(dt, n_steps=substeps)
            init_cov = np.eye(record.states.shape[0])
        setups.append(ModelSetup(record, None, obs, sampler, record.initial_state, init_cov,
                                 diagonalize_qic=config.model == "lorenz96"))
    return setups


# ---------------------------------------------------------------------------
# Filter loops


@dataclass
class FilterRun:
    """Per-observation filter output."""

    means: np.ndarray            # (n_obs, d_X)
    covariances: np.ndarray      # (n_obs, d_X, d_X)
    weights: np.ndarray          # (n_obs,) smallest squared kernel weight (NaN if not recorded)
    divergence_step: int | None = None


class _ClosedFormStack:
    """The closed-form slices of a loop advanced as one stacked recursion:
    per observation, one ``kf_forecast`` of the (B, d) means and (B, d, d)
    covariances, and one ``robust_analysis`` that weights each slice by its
    own spec.

    Every slice of a loop shares its model's matrices: a loop runs the
    replicates of one sweep, whose cells differ in contamination or ensemble
    size only.  The stack is ordered by spec, so each spec weights one
    contiguous slice of it.  The loop drops (``keep``) an element whose step
    gives a non-finite mean or covariance (a NaN observation, a bracket that
    no jitter repairs).
    """

    def __init__(self, slices: list[_ClosedFormSlice], rows: list[int]):
        specs = list(dict.fromkeys(s.spec for s in slices))  # in order of first use
        groups = np.array([specs.index(s.spec) for s in slices])
        order = np.argsort(groups, kind="stable")  # stack position -> slice
        ordered = [slices[i] for i in order]
        self.specs, self.model = specs, ordered[0].model
        b, prior = len(ordered), self.model.prior
        self.belief = GaussianBelief(np.tile(prior.mean, (b, 1)), np.tile(prior.cov, (b, 1, 1)))
        # The live elements' loop rows, observations (n_obs, B, d_Y), spec
        # groups and weight factors (1/2 if the slice records its weight, else NaN).
        self.rows, self.groups = np.asarray(rows)[order], groups[order]
        self.ys = np.stack([s.ys.T for s in ordered], axis=1)
        self.weight_factor = np.array([0.5 if s.records_weight else np.nan for s in ordered])
        self._spec_slices()

    def _spec_slices(self) -> None:
        """Each spec's slice of the live elements."""
        bounds = np.searchsorted(self.groups, np.arange(len(self.specs) + 1)).tolist()
        self.spec_rows = [
            (spec, slice(start, stop))
            for spec, start, stop in zip(self.specs, bounds[:-1], bounds[1:]) if stop > start
        ]

    def blocks(self) -> list:
        """No member block: the stack makes its own forecast."""
        return []

    def step(self, k: int, forecasts, means, covs, weights) -> tuple:
        """Step every live element on observation ``k``, record its moments
        in its loop row of the loop's record and return them."""
        forecast = kf_forecast(self.model, self.belief)
        mean, cov, w, _ = robust_analysis(
            self.model, forecast.mean, forecast.cov, self.ys[k], self.spec_rows
        )
        rows, self.belief = self.rows, GaussianBelief(mean=mean, cov=cov)
        means[rows, k], covs[rows, k] = self.belief.mean, self.belief.cov
        weights[rows, k] = np.minimum.reduce(w, axis=1) * self.weight_factor  # halving is exact
        return self.belief.mean, self.belief.cov

    def keep(self, live: np.ndarray) -> None:
        """Keep the elements where ``live`` is true."""
        self.rows, self.ys = self.rows[live], self.ys[:, live]
        self.groups, self.weight_factor = self.groups[live], self.weight_factor[live]
        self.belief = GaussianBelief(mean=self.belief.mean[live], cov=self.belief.cov[live])
        self._spec_slices()


@dataclass
class _ClosedFormSlice:
    """One exact KF / DSM / WoLF recursion inside a lock-stepped loop: its
    observations, model and weight spec, and whether it records its weight
    (the regular filter records NaN)."""

    ys: np.ndarray
    model: LgssModel
    spec: WeightKernelSpec
    records_weight: bool
    stack = _ClosedFormStack


class _SampledStack:
    """The ensemble and particle filters of a loop, each an element that
    runs its own analysis on its members propagated by the loop's forecast.
    An element whose forecast is non-finite, or whose analysis raises a
    linear-algebra or floating-point error, leaves its row of the step NaN;
    the loop drops (``keep``) it there, as it drops one whose analysis gives
    a non-finite mean or covariance (a NaN observation)."""

    def __init__(self, runs: list[_SampledRun], rows: list[int]):
        self.rows, self.runs = np.array(rows), runs  # loop row and run of each live element

    def blocks(self) -> list[tuple]:
        """The (members, generator) of every live element, in loop-row order."""
        return [(run.members, run.rng) for run in self.runs]

    def step(self, k: int, forecasts, means, covs, weights) -> tuple:
        """Step every live element on observation ``k`` from its block of
        ``forecasts``, record its mean and covariance in its loop row and
        return the live elements' rows of the step."""
        for row, run, forecast in zip(self.rows.tolist(), self.runs, forecasts):
            if forecast is not None:
                try:
                    run.members, means[row, k], covs[row, k] = run.analysis(forecast, run.ys[:, k])
                except (np.linalg.LinAlgError, FloatingPointError):
                    pass  # its row keeps the record's NaN
        return means[self.rows, k], covs[self.rows, k]

    def keep(self, live: np.ndarray) -> None:
        """Keep the elements where ``live`` is true."""
        self.rows = self.rows[live]
        self.runs = [run for run, kept in zip(self.runs, live.tolist()) if kept]


@dataclass
class _SampledRun:
    """One ensemble or particle filter's run inside a lock-stepped loop; its
    forecast noise and its analysis draw from ``rng``."""

    ys: np.ndarray               # one observation per column
    members: np.ndarray
    rng: np.random.Generator
    analysis: Callable           # (propagated members, y) -> new (members, mean, cov)
    stack = _SampledStack


def _filter_loop(slices: list, setup: ModelSetup) -> list[FilterRun]:
    """Run every slice over the columns of its ``ys`` in lock-step,
    recording its moments after every step.

    Every slice shares the model of ``setup``, whose sampler propagates the
    members, and names the class of the stack that runs it (``stack``).  The
    loop runs one stack of each class, which owns its slices' rows of the
    loop's one record: (S, n_obs, d) means, (S, n_obs, d, d) covariances and
    (S, n_obs) weights.  At each observation the stacks' member blocks, if
    any, go through one ``ensemble_forecast`` call, and each stack steps its
    live elements on the forecasts handed back, records their moments and
    returns them.  An element whose moments are not finite diverged: the
    loop stamps the step, sets its record to NaN and has the stack drop it
    (``keep``); an emptied stack is not stepped again.  That test makes
    numpy's overflow and invalid-value warnings moot, so they are silenced.
    """
    n_obs, d = slices[0].ys.shape[1], setup.init_mean.shape[0]
    means = np.full((len(slices), n_obs, d), np.nan)
    covs = np.full((len(slices), n_obs, d, d), np.nan)
    weights = np.full((len(slices), n_obs), np.nan)
    divergence = {}  # loop row -> divergence step
    rows = {}
    for row, s in enumerate(slices):
        rows.setdefault(s.stack, []).append(row)
    stacks = [stack([slices[i] for i in own], own) for stack, own in rows.items()]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_obs):
            stacks = [stack for stack in stacks if len(stack.rows)]
            blocks = [block for stack in stacks for block in stack.blocks()]
            forecasts = iter(ensemble_forecast(setup.sampler, *zip(*blocks)) if blocks else ())
            for stack in stacks:
                mean, cov = stack.step(k, forecasts, means, covs, weights)
                # A non-finite element makes the sum non-finite; only then is each tested.
                if math.isfinite(np.add.reduce(mean, axis=None) + np.add.reduce(cov, axis=None)):
                    continue
                finite = np.isfinite(mean).all(axis=1) & np.isfinite(cov).all(axis=(1, 2))
                if not finite.all():
                    diverged = stack.rows[~finite]
                    means[diverged, k] = covs[diverged, k] = weights[diverged, k] = np.nan
                    divergence.update(dict.fromkeys(diverged.tolist(), k))
                    stack.keep(finite)
    return [FilterRun(means[i], covs[i], weights[i], divergence.get(i)) for i in range(len(slices))]


def _weight_spec(config: ExperimentConfig) -> WeightKernelSpec:
    """Weight spec of the configured filter: the constant kernel for a
    regular filter, the WoLF weight at the variant's standardization, or the
    DSM kernel with the filter's standardization."""
    weight = _FILTER_TABLE[config.filter][1]
    if weight is None:
        return WeightKernelSpec(family=CONSTANT)
    if weight == WOLF:
        variant = _WOLF_VARIANTS[config.wolf_variant]
        return WeightKernelSpec(family=WOLF, threshold=config.c_sq, standardization=variant)
    return WeightKernelSpec(
        family=config.kernel_family, threshold=config.q_sq, standardization=weight
    )


def run_closed_form_filter(
    setup: ModelSetup,
    ys: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> _ClosedFormSlice:
    """The exact KF / DSM / WoLF recursion over an observation sequence, as
    a slice of ``_filter_loop``, which stacks it with the loop's other
    closed-form slices.

    ``ys`` has one observation per column; the recursion draws nothing from
    ``rng``.
    """
    records_weight = _FILTER_TABLE[config.filter][1] is not None
    return _ClosedFormSlice(ys, setup.lgss, _weight_spec(config), records_weight)


def _letkf_config(config: ExperimentConfig) -> LetkfConfig:
    """Inflation, and cyclic localization on the Lorenz-96 ring."""
    localization = None
    if config.model == "lorenz96" and config.half_width is not None:
        localization = Localization(
            half_width=config.half_width, taper_length=config.taper_length
        )
    return LetkfConfig(rho=config.rho, localization=localization)


def _initial_members(setup: ModelSetup, m: int, rng: np.random.Generator) -> np.ndarray:
    d_x = setup.init_mean.shape[0]
    return setup.init_mean[:, None] + psd_sym_sqrt(setup.init_cov) @ rng.standard_normal((d_x, m))


def run_ensemble_filter(
    setup: ModelSetup,
    ys: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> _SampledRun:
    """An EnKF / ESRF / LETKF variant over an observation sequence, as a
    slice of ``_filter_loop``; its initial members are drawn here."""
    members = _initial_members(setup, config.ensemble_size, rng)
    kind = _FILTER_TABLE[config.filter][0]
    spec = _weight_spec(config)
    letkf_cfg = _letkf_config(config)

    def analysis(propagated, y):
        ens = EnsembleState(members=propagated)
        if kind == "letkf":
            ens = letkf_analysis(ens, setup.obs, y, spec, letkf_cfg)
        elif kind == "esrf":
            ens = esrf_analysis(ens, setup.obs, y, spec)
        else:
            ens = enkf_perturbed_analysis(ens, setup.obs, y, spec, config.enkf_mode, rng=rng)
        return ens.members, ens.mean, ens.cov

    return _SampledRun(ys, members, rng, analysis)


def run_particle_filter(
    setup: ModelSetup,
    ys: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> _SampledRun:
    """The score-matching bootstrap particle filter over an observation
    sequence, as a slice of ``_filter_loop``; its initial particles are
    drawn here, and its analysis keeps its weighted cloud."""
    cloud = ParticleCloud.uniform(_initial_members(setup, config.ensemble_size, rng))
    spec = _weight_spec(config)

    def analysis(propagated, y):
        nonlocal cloud
        cloud = pf_step(cloud, propagated, y, setup.obs, spec, rng,
                        resample_threshold=config.resample_threshold)
        return cloud.particles, cloud.weighted_mean(), cloud.weighted_cov()

    return _SampledRun(ys, cloud.particles, rng, analysis)


def _slices(
    setup: ModelSetup, configs: Sequence[ExperimentConfig], rngs: Sequence[np.random.Generator]
) -> list:
    """The slices of the configs' filters over the replicate's observations,
    each drawing from its own generator."""
    # Looked up at call time, so a rebound module attribute takes effect.
    runners = {"kf": run_closed_form_filter, "pf": run_particle_filter}
    ys = setup.record.observations
    return [
        runners.get(_FILTER_TABLE[config.filter][0], run_ensemble_filter)(setup, ys, config, rng)
        for config, rng in zip(configs, rngs)
    ]


def _evaluate_runs(setups: Sequence[ModelSetup], runs: Sequence[FilterRun]) -> list:
    """The ``MetricReport`` of each (setup, run) pair, None for a run that
    diverged; the others are scored in one stacked pass
    (``MetricReport.evaluate_runs``)."""
    scored = [i for i, run in enumerate(runs) if run.divergence_step is None]
    reports = [None] * len(runs)
    if scored:
        batch = MetricReport.evaluate_runs(
            np.stack([setups[i].record.states_at_obs().T for i in scored]),
            np.stack([runs[i].means for i in scored]),
            np.stack([runs[i].covariances for i in scored]),
            diagonalize=setups[0].diagonalize_qic,
        )
        for i, report in zip(scored, batch):
            reports[i] = report
    return reports


def _run_chunk(jobs: Sequence[tuple]) -> tuple[list, list, list]:
    """Run a chunk of jobs, each (run configs, spawn key), with every
    filter of every job in one ``_filter_loop``, and score the runs in one
    pass: the jobs' setups, and the run and report of each (job, filter),
    job by job.

    A job's configs, one per filter, differ in the filter only.  Its truth
    draws from the spawn key ``(*key, 0)`` of their seed, and its i-th filter
    from ``(*key, 1 + i)``.  Every job of a chunk has the same model and
    horizon, so the truths are built together and the first job's sampler
    propagates the members of all.
    """
    setups = build_setups(
        [configs[0] for configs, _ in jobs],
        [np.random.SeedSequence(configs[0].seed, spawn_key=(*key, 0)) for configs, key in jobs],
    )
    slices, run_setups = [], []
    for (configs, key), setup in zip(jobs, setups):
        seeds = [np.random.SeedSequence(configs[0].seed, spawn_key=(*key, 1 + i))
                 for i in range(len(configs))]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        slices += _slices(setup, configs, rngs)
        run_setups += [setup] * len(configs)
    runs = _filter_loop(slices, setups[0])
    return setups, runs, _evaluate_runs(run_setups, runs)


# ---------------------------------------------------------------------------
# Single runs


@dataclass
class RunResult:
    config: ExperimentConfig
    report: MetricReport | None
    run: FilterRun
    summary: dict
    paths: dict[str, str] = field(default_factory=dict)


def run_single(config: ExperimentConfig) -> RunResult:
    """Simulate, filter, score and (optionally) write artifacts for one run.
    ``config.out_dir`` is made before the run."""
    if config.out_dir is not None:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    # The empty spawn key draws from SeedSequence(config.seed).spawn(2).
    (setup,), (run,), (report,) = _run_chunk([((config,), ())])

    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config),
        "n_obs": int(setup.record.n_obs),
        "divergence_step": run.divergence_step,
        "rmse": None if report is None else report.rmse,
        "q_ic": None if report is None else report.q_ic,
        "ci_coverage_95": None if report is None else report.ci_coverage_95,
    }
    result = RunResult(config=config, report=report, run=run, summary=summary)
    if config.out_dir is not None:
        result.paths = _write_run_artifacts(config, setup, run, summary)
    return result


def _write_run_artifacts(
    config: ExperimentConfig, setup: ModelSetup, run: FilterRun, summary: dict
) -> dict[str, str]:
    out = Path(config.out_dir)
    stem = f"{config.model}_{config.filter}_seed{config.seed}"
    steps_path = out / f"{stem}_steps.csv"
    summary_path = out / f"{stem}_summary.json"

    record = setup.record
    truth = record.states_at_obs()
    header = ["step", "time", "contaminated_flag", "weight_sq"] + [
        f"{name}_{i}" for name in ("truth", "mean", "var") for i in range(truth.shape[0])
    ]
    columns = [record.times[record.obs_times], record.contamination_flags.astype(int),
               run.weights, *truth, *run.means.T,
               *np.diagonal(run.covariances, axis1=1, axis2=2).T]
    _write_csv(steps_path, header, zip(range(record.n_obs), *(c.tolist() for c in columns)))
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return {"steps": str(steps_path), "summary": str(summary_path)}


# ---------------------------------------------------------------------------
# Sweeps


@dataclass
class CellStats:
    n_ok: int
    n_failed: int
    mean_rmse: float
    se_rmse: float
    mean_q_ic: float
    se_q_ic: float
    rmse_values: list[float]
    q_ic_values: list[float]
    replicates: list[int]          # the replicate number of each kept value


@dataclass
class SweepResult:
    axes: dict[str, list]          # axis name -> grid values, e.g. {"ensemble_size": [5, 10]}
    filters: list[str]
    mc_reps: int
    cells: dict[tuple, CellStats]  # (filter, i, j) -> stats; j = 0 on a one-axis grid

    def cell(self, filt: str, *key) -> CellStats:
        return self.cells[(filt, *(*key, 0)[:2])]

    def write_csv(self, path) -> None:
        """One row per (filter, cell), one column per axis; an
        ``ensemble_size`` axis adds a 1/sqrt(M) reference anchored at each
        filter's first cell."""
        rate = "ensemble_size" in self.axes
        stats = ["n_ok", "n_failed", "mean_rmse", "se_rmse", "mean_q_ic", "se_q_ic"]
        rows = []
        for filt in self.filters:
            anchor = None
            for key, point in _cells(self.axes).items():
                c = self.cells[(filt, *key)]
                rows.append([filt, *point.values(), *(getattr(c, name) for name in stats)])
                if rate:
                    root = math.sqrt(point["ensemble_size"])
                    anchor = c.mean_rmse * root if anchor is None else anchor
                    rows[-1].append(anchor / root)
        _write_csv(path, ["filter", *self.axes, *stats, *(["mc_rate_ref"] if rate else [])], rows)

    def write_replicates_csv(self, path) -> None:
        rows = []
        for key in sorted(self.cells):  # filters by name, cells by index
            c = self.cells[key]
            filt, *cell_key = key
            cell = "/".join(map(str, cell_key))
            rows += [[filt, cell, rep, r, q]
                     for rep, r, q in zip(c.replicates, c.rmse_values, c.q_ic_values)]
        _write_csv(path, ["filter", "cell", "replicate", "rmse", "q_ic"], rows)


def _cells(axes: Mapping[str, list]) -> dict[tuple, dict]:
    """The cells of the grid ``axes`` in row-major order: key (i, j), the
    index of each axis's value, -> point, axis name -> value.  A one-axis
    grid pads its keys with j = 0, so that a single size derives exactly the
    replicate seeds of a one-cell contamination grid."""
    return {
        (*key, 0)[:2]: {name: values[i] for (name, values), i in zip(axes.items(), key)}
        for key in itertools.product(*(range(len(values)) for values in axes.values()))
    }


# A sweep job is a chunk of consecutive replicates, run in one lock-stepped
# loop and scored in one pass.  Its replicates' truths, the moments their
# filters record (mean, covariance and weight at every observation), the
# scoring pass's copies of them and the members of their ensemble and
# particle filters stay under this many bytes.
_CHUNK_BYTES = 32 * 2**20
# The scoring pass holds the stacked moments, the symmetrized covariances
# and their Cholesky factors next to the recorded moments.
_SCORING_COPIES = 3


def _replicate_bytes(configs: Sequence[ExperimentConfig]) -> int:
    """Bytes of a replicate's truth states, the moments its filters (one
    config each) record, the scoring pass's copies of them, and the members
    of its ensemble and particle filters: those each filter holds and what a
    forecast of them holds (``_FORECAST_DOUBLES``)."""
    config = configs[0]
    dt, t_out, d = _MODEL_SETTINGS[config.model][1:4]
    n, steps_per_obs = step_counts(config.horizon, dt, t_out)
    moments = len(configs) * (n // steps_per_obs) * (d + d * d + 1)
    columns = sum(c.ensemble_size for c in configs if _FILTER_TABLE[c.filter][0] != "kf")
    members = (d + _FORECAST_DOUBLES[config.model][1]) * columns
    return 8 * (d * (n + 1) + (1 + _SCORING_COPIES) * moments + members)


def _chunks(jobs: list, threads: int) -> list[list]:
    """Consecutive jobs, as many to a chunk as ``_CHUNK_BYTES`` allows for
    the largest replicate, and no more than an equal share of each worker.
    Results do not depend on the chunk size."""
    cells = {id(configs): configs for configs, _ in jobs}  # a cell's jobs share one tuple
    largest = max(_replicate_bytes(configs) for configs in cells.values())
    size = max(1, _CHUNK_BYTES // largest)
    size = min(size, -(-len(jobs) // threads))
    return [jobs[i : i + size] for i in range(0, len(jobs), size)]


def _chunk_job(chunk: list) -> list[tuple]:
    """Run a chunk of sweep jobs (``_run_chunk``): the (rmse, q_ic) of each
    (job, filter), job by job, (None, None) for a run that diverged."""
    return [(None, None) if r is None else (r.rmse, r.q_ic) for r in _run_chunk(chunk)[2]]


def _aggregate(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _cell_stats(results: list[tuple]) -> CellStats:
    """Failure count, and mean and standard error over the replicates that ran;
    ``results`` holds one (rmse, q_ic) per replicate, in replicate order."""
    replicates = [rep for rep, (r, _) in enumerate(results) if r is not None]
    rmse = [results[rep][0] for rep in replicates]
    q_ic = [results[rep][1] for rep in replicates]
    return CellStats(
        len(rmse), len(results) - len(rmse), *_aggregate(rmse), *_aggregate(q_ic),
        rmse, q_ic, replicates,
    )


def _execute_jobs(jobs: list, threads: int) -> list[tuple]:
    """The ``_chunk_job`` scores of every job, in job order, on ``threads`` workers at most
    one per core."""
    workers = min(threads, os.cpu_count() or 1)
    chunks = _chunks(jobs, workers)
    if workers <= 1:
        done = [_chunk_job(chunk) for chunk in chunks]
    else:
        # Imported here, so that a single-worker run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_chunk_job, chunks, chunksize=1))
    return [score for chunk in done for score in chunk]


def _filter_list(config: ExperimentConfig, filters: Sequence[str] | None) -> list[str]:
    """``filters``, by default the config's filter; refuses a string, an
    empty list, and a filter listed twice, whose replicates would count twice."""
    if isinstance(filters, str):  # list() would split it into letters
        raise ValueError(f"filters must be a list of filter names, got the string {filters!r}")
    filters = list(filters) if filters is not None else [config.filter]
    if not filters:
        raise ValueError("filters must be nonempty")
    for filt in filters:
        if filters.count(filt) > 1:
            raise ValueError(f"filter {filt!r} is listed more than once")
    return filters


def _collect(
    config: ExperimentConfig, filters: Sequence[str] | None, axes: dict[str, list]
) -> SweepResult:
    """Run ``config.mc_reps`` replicates of every cell of the grid ``axes``
    (``_cells``), and write the sweep's files if ``config.out_dir`` is set;
    that directory is made before any replicate.  A cell's config sets the
    field of each axis to the cell's value, and lam to the square of its
    sqrt_lambda."""
    filters = _filter_list(config, filters)
    # Building every run's config once validates it before any replicate.
    cell_runs = {}
    for key, point in _cells(axes).items():
        fields = dict(point)
        if "sqrt_lambda" in fields:
            sql = fields.pop("sqrt_lambda")
            fields["lam"] = sql * sql
        cell_runs[key] = tuple(replace(config, filter=f, **fields) for f in filters)
    if config.out_dir is not None:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    jobs = [
        (runs, (*key, rep)) for key, runs in cell_runs.items() for rep in range(config.mc_reps)
    ]
    results = {(filt, *key): [] for key in cell_runs for filt in filters}
    scores = iter(_execute_jobs(jobs, config.threads))
    for _, (*cell_key, _rep) in jobs:
        for filt in filters:
            results[(filt, *cell_key)].append(next(scores))
    cells = {key: _cell_stats(values) for key, values in results.items()}
    result = SweepResult(axes, filters, config.mc_reps, cells)
    if config.out_dir is not None:
        out = Path(config.out_dir)
        stem = "size_sweep" if "ensemble_size" in axes else "sweep"
        result.write_csv(out / f"{stem}_cells.csv")
        result.write_replicates_csv(out / f"{stem}_replicates.csv")
    return result


def _grid(name: str, values: Sequence, kind: type) -> list:
    """The grid ``values`` as floats, or as ints if ``kind`` is
    ``numbers.Integral``, refused before any replicate unless every value is
    a ``kind`` number and not a bool, which would run as 0 or 1 under
    another label."""
    integral = kind is numbers.Integral
    for value in values:
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "integers" if integral else "numbers"
            raise ValueError(f"{name} must be {noun}, got {value!r}")
    return [int(v) if integral else float(v) for v in values]


def run_sweep(
    config: ExperimentConfig,
    epsilon_values: Sequence[float],
    sqrt_lambda_values: Sequence[float],
    filters: Sequence[str] | None = None,
) -> SweepResult:
    """Monte-Carlo sweep over the contamination grid.

    Every cell runs ``config.mc_reps`` replicates; replicate trajectories are
    shared across filters (paired comparisons) and failures are counted per
    cell rather than dropped.
    """
    eps_values = _grid("epsilon values", epsilon_values, numbers.Real)
    sql_values = _grid("sqrt_lambda values", sqrt_lambda_values, numbers.Real)
    if not eps_values or not sql_values:
        raise ValueError("sweep grid must be nonempty")
    for sql in sql_values:
        if sql < 1.0:
            raise ValueError(f"sqrt_lambda must be >= 1, got {sql}")
        if sql * sql == math.inf:
            raise ValueError(f"sqrt_lambda {sql} squares to an infinite lambda")
    return _collect(config, filters, {"epsilon": eps_values, "sqrt_lambda": sql_values})


def run_ensemble_size_sweep(
    config: ExperimentConfig,
    sizes: Sequence[int],
    filters: Sequence[str] | None = None,
) -> SweepResult:
    """Sweep over the ensemble size at fixed contamination.

    The CSV output includes a reference column decaying like 1 / sqrt(M)
    (anchored at the first size) for rate plots.
    """
    sizes = _grid("ensemble sizes", sizes, numbers.Integral)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if sizes[-1] > sys.float_info.max:  # the 1/sqrt(M) reference takes M as a float
        raise ValueError(f"ensemble size {sizes[-1]} is too large for a float")
    return _collect(config, filters, {"ensemble_size": sizes})
