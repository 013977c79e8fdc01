"""Experiment orchestration: filter loops over twin experiments, Monte-Carlo
contamination and ensemble-size sweeps, and CSV/JSON result files.

``_FILTER_TABLE`` defines every filter by the analysis step it runs (kf,
enkf, esrf, letkf or pf) and the weight that goes into that step (regular,
DSM or WoLF); one loop, ``_filter_loop``, runs every family and reports
divergence the same way for all of them.

Determinism contract: a (config, master seed) pair maps to byte-identical
result files regardless of worker count; per-replicate streams are derived
order-free from the master seed via spawn keys.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import dsm_analysis, wolf_analysis
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
from .lgss import LgssModel, ObservationModel, kf_analysis, kf_forecast
from .metrics import MetricReport
from .models import (
    ContaminationSpec,
    TrajectoryRecord,
    _write_csv,
    lgss_sampler,
    lorenz63_sampler,
    lorenz96_sampler,
    simulate_lorenz63,
    simulate_lorenz96,
    simulate_ou,
    simulate_target_tracking,
)
from .particle import ParticleCloud, pf_step
from .weights import CONDITIONAL, CONSTANT, IMQ, MARGINAL, OBS_ANOMALY, WeightKernelSpec, WolfSpec

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
    "run_closed_form_filter",
    "run_ensemble_filter",
    "run_particle_filter",
    "resolve_threads",
]

SCHEMA_VERSION = 1

# Filter name -> (analysis step, weight).  The weight is None for the regular
# filter (constant kernel), "wolf" for the WoLF weight, and otherwise the
# standardization of the configured DSM kernel.
_FILTER_TABLE = {
    "kf": ("kf", None), "dsm_kf": ("kf", MARGINAL), "wolf_kf": ("kf", "wolf"),
    "enkf": ("enkf", None), "dsm_enkf": ("enkf", MARGINAL), "wolf_enkf": ("enkf", "wolf"),
    "esrf": ("esrf", None), "dsm_esrf": ("esrf", MARGINAL),
    "letkf": ("letkf", None), "dsm_letkf": ("letkf", OBS_ANOMALY), "wolf_letkf": ("letkf", "wolf"),
    "dsm_pf": ("pf", CONDITIONAL),
}
FILTERS = tuple(_FILTER_TABLE)
MODELS = ("ou", "tracking2d", "lorenz63", "lorenz96")

_MODEL_DEFAULT_T_END = {"ou": 10.0, "tracking2d": 50.0, "lorenz63": 50.0, "lorenz96": 73.0}


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
        closed_form = _FILTER_TABLE[self.filter][0] == "kf"
        if closed_form and self.model not in ("ou", "tracking2d"):
            raise ValueError(
                f"filter {self.filter!r} needs a linear Gaussian model, got {self.model!r}"
            )
        if self.mc_reps < 1:
            raise ValueError("mc_reps must be >= 1")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if self.ensemble_size < 2 and not closed_form:
            raise ValueError("ensemble_size must be >= 2 for ensemble and particle filters")
        # Build the contamination and every weight and LETKF setting once, so
        # that a bad value is refused here instead of by a run.
        self.contamination
        WeightKernelSpec(family=self.kernel_family, threshold=self.q_sq).thresholds_for(1)
        WolfSpec(variant=self.wolf_variant, c_sq=self.c_sq)
        if self.enkf_mode not in ENKF_MODES:
            raise ValueError(f"unknown EnKF mode {self.enkf_mode!r} (choose from {ENKF_MODES})")
        if self.half_width is not None:
            Localization(half_width=self.half_width, taper_length=self.taper_length)
        LetkfConfig(rho=self.rho)

    @property
    def contamination(self) -> ContaminationSpec:
        return ContaminationSpec(epsilon=self.epsilon, lam=self.lam)

    @property
    def horizon(self) -> float:
        return self.t_end if self.t_end is not None else _MODEL_DEFAULT_T_END[self.model]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
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
        model="lorenz96",
        filter="dsm_letkf",
        t_end=73.0,
        epsilon=0.25,
        lam=27.5**2,
        ensemble_size=10,
        mc_reps=100,
        rho=1.06,
        half_width=19,
        taper_length=5.45,
    ),
}
# Desk-scale variants with reduced horizons / replication for CI gates.
PRESETS.update(
    {
        f"{name}_desk": {**PRESETS[f"{name}_full"], "t_end": 10.0, "mc_reps": mc_reps}
        for name, mc_reps in (("ou", 100), ("tracking", 200), ("lorenz63", 50), ("lorenz96", 10))
    }
)


def resolve_threads(requested: int | None) -> int:
    """Thread count from the CLI flag or the ROBUST_DA_THREADS fallback."""
    if requested is not None and requested >= 1:
        return requested
    env = os.environ.get("ROBUST_DA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


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


def build_setup(config: ExperimentConfig, traj_seed) -> ModelSetup:
    contamination = config.contamination
    t_end = config.horizon
    lgss = None
    if config.model in ("ou", "tracking2d"):
        simulate = simulate_ou if config.model == "ou" else simulate_target_tracking
        record, lgss = simulate(t_end=t_end, seed=traj_seed, contamination=contamination)
        obs = lgss.observation
        sampler = lgss_sampler(lgss)
        init_mean, init_cov = lgss.prior.mean, lgss.prior.cov
    elif config.model == "lorenz63":
        record, obs = simulate_lorenz63(t_end=t_end, seed=traj_seed, contamination=contamination)
        sampler = lorenz63_sampler(dt=0.001, n_steps=50)
        init_mean, init_cov = record.initial_state, 0.1 * np.eye(3)
    else:
        record, obs = simulate_lorenz96(t_end=t_end, seed=traj_seed, contamination=contamination)
        sampler = lorenz96_sampler(dt=0.01, n_steps=5)
        init_mean, init_cov = record.initial_state, np.eye(record.states.shape[0])
    if record.n_obs == 0:
        raise ValueError(f"t_end {t_end} gives {config.model!r} no observation to assimilate")
    return ModelSetup(
        record=record,
        lgss=lgss,
        obs=obs,
        sampler=sampler,
        init_mean=init_mean,
        init_cov=init_cov,
        diagonalize_qic=config.model == "lorenz96",
    )


# ---------------------------------------------------------------------------
# Filter loops


@dataclass
class FilterRun:
    """Per-observation filter output."""

    means: np.ndarray            # (n_obs, d_X)
    covariances: np.ndarray      # (n_obs, d_X, d_X)
    weights: np.ndarray          # (n_obs,) smallest squared kernel weight (NaN if not recorded)
    divergence_step: int | None = None


def _filter_loop(ys: np.ndarray, state, step, moments) -> FilterRun:
    """Run ``state = step(state, y)`` over the columns of ``ys``, recording
    ``moments(state) -> (mean, cov, weight_sq)`` after every step.

    The run diverges at the first step that raised a linear-algebra or
    floating-point error or recorded a non-finite mean or covariance; that
    step and the rest of the output are NaN.  Finiteness is checked once,
    after the loop, over every recorded step, so numpy's overflow and
    invalid-value warnings are silenced for the whole loop.
    """
    n_obs = ys.shape[1]
    mean, cov, _ = moments(state)  # sizes the output
    means = np.full((n_obs, *mean.shape), np.nan)
    covs = np.full((n_obs, *cov.shape), np.nan)
    weights = np.full(n_obs, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_obs):
            try:
                state = step(state, ys[:, k])
            except (np.linalg.LinAlgError, FloatingPointError):
                break  # rows k onwards stay NaN
            means[k], covs[k], weights[k] = moments(state)
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    if finite.all():
        return FilterRun(means=means, covariances=covs, weights=weights)
    k = int(np.argmin(finite))
    means[k:] = covs[k:] = weights[k:] = np.nan
    return FilterRun(means=means, covariances=covs, weights=weights, divergence_step=k)


def _weight_spec(config: ExperimentConfig) -> WeightKernelSpec | WolfSpec:
    """Weight spec of the configured filter: the constant kernel for a
    regular filter, the WoLF weight, or the DSM kernel with the filter's
    standardization."""
    weight = _FILTER_TABLE[config.filter][1]
    if weight is None:
        return WeightKernelSpec(family=CONSTANT)
    if weight == "wolf":
        return WolfSpec(variant=config.wolf_variant, c_sq=config.c_sq)
    return WeightKernelSpec(
        family=config.kernel_family, threshold=config.q_sq, standardization=weight
    )


def run_closed_form_filter(
    setup: ModelSetup,
    ys: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> FilterRun:
    """Run the exact KF / DSM / WoLF recursion over an observation sequence.

    ``ys`` has one observation per column; the recursion draws nothing from
    ``rng``.
    """
    model = setup.lgss
    weight = _FILTER_TABLE[config.filter][1]
    spec = _weight_spec(config)

    def step(state, y):
        forecast = kf_forecast(model, state[0])
        if weight is None:
            return kf_analysis(model, forecast, y), np.nan
        update = wolf_analysis if weight == "wolf" else dsm_analysis
        result = update(model, forecast, y, spec)
        return result.posterior, result.weight.min() / 2.0

    return _filter_loop(ys, (model.prior, np.nan), step, lambda s: (s[0].mean, s[0].cov, s[1]))


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
) -> FilterRun:
    """Run an EnKF / ESRF / LETKF variant over an observation sequence."""
    ensemble = EnsembleState(members=_initial_members(setup, config.ensemble_size, rng))
    analysis = _FILTER_TABLE[config.filter][0]
    spec = _weight_spec(config)
    letkf_cfg = _letkf_config(config)

    def step(ensemble, y):
        ensemble = ensemble_forecast(setup.sampler, ensemble, rng)
        if analysis == "letkf":
            return letkf_analysis(ensemble, setup.obs, y, spec, letkf_cfg)
        if analysis == "esrf":
            return esrf_analysis(ensemble, setup.obs, y, spec)
        return enkf_perturbed_analysis(
            ensemble, setup.obs, y, spec, mode=config.enkf_mode, rng=rng
        )

    return _filter_loop(ys, ensemble, step, lambda e: (e.mean, e.cov, np.nan))


def run_particle_filter(
    setup: ModelSetup,
    ys: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> FilterRun:
    """Run the score-matching bootstrap particle filter."""
    cloud = ParticleCloud.uniform(_initial_members(setup, config.ensemble_size, rng))
    spec = _weight_spec(config)

    def step(cloud, y):
        return pf_step(
            cloud,
            setup.sampler,
            y,
            setup.obs,
            spec,
            rng,
            resample_threshold=config.resample_threshold,
        )

    return _filter_loop(
        ys, cloud, step, lambda c: (c.weighted_mean(), c.weighted_cov(), np.nan)
    )


def _run_filter(setup: ModelSetup, config: ExperimentConfig, filt_rng) -> FilterRun:
    analysis = _FILTER_TABLE[config.filter][0]
    # Looked up at call time, so a rebound module attribute takes effect.
    runner = {"kf": run_closed_form_filter, "pf": run_particle_filter}.get(
        analysis, run_ensemble_filter
    )
    return runner(setup, setup.record.observations, config, filt_rng)


# ---------------------------------------------------------------------------
# Single runs


@dataclass
class RunResult:
    config: ExperimentConfig
    report: MetricReport | None
    run: FilterRun
    summary: dict
    paths: dict[str, str] = field(default_factory=dict)


def _evaluate_run(setup: ModelSetup, run: FilterRun) -> MetricReport | None:
    if run.divergence_step is not None:
        return None
    truth = setup.record.states_at_obs().T
    with np.errstate(over="ignore"):  # a huge error squares to inf; rmse rescales it
        return MetricReport.evaluate(
            truth, run.means, run.covariances, diagonalize=setup.diagonalize_qic
        )


def run_single(config: ExperimentConfig) -> RunResult:
    """Simulate, filter, score and (optionally) write artifacts for one run."""
    root = np.random.SeedSequence(config.seed)
    traj_ss, filt_ss = root.spawn(2)
    setup = build_setup(config, traj_ss)
    run = _run_filter(setup, config, np.random.default_rng(filt_ss))
    report = _evaluate_run(setup, run)

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
    out.mkdir(parents=True, exist_ok=True)
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


@dataclass
class SweepResult:
    kind: str                      # "contamination" or "ensemble_size"
    filters: list[str]
    mc_reps: int
    cells: dict[tuple, CellStats]
    axis_epsilon: list[float] = field(default_factory=list)
    axis_sqrt_lambda: list[float] = field(default_factory=list)
    axis_sizes: list[int] = field(default_factory=list)

    def cell(self, filt: str, *key) -> CellStats:
        if self.kind == "ensemble_size" and len(key) == 1:
            key = (key[0], 0)
        return self.cells[(filt, *key)]

    def write_csv(self, path) -> None:
        """One row per (filter, cell); the size layout adds a 1/sqrt(M)
        reference anchored at each filter's first size."""
        sizes = self.kind == "ensemble_size"
        if sizes:
            axes, extra = ["ensemble_size"], ["mc_rate_ref"]
            points = {(i, 0): [size] for i, size in enumerate(self.axis_sizes)}
        else:
            axes, extra = ["epsilon", "sqrt_lambda"], []
            points = {
                (i, j): [eps, sql]
                for i, eps in enumerate(self.axis_epsilon)
                for j, sql in enumerate(self.axis_sqrt_lambda)
            }
        rows = []
        for filt in self.filters:
            for key, point in points.items():
                c = self.cells[(filt, *key)]
                row = [filt, *point, c.n_ok, c.n_failed,
                       c.mean_rmse, c.se_rmse, c.mean_q_ic, c.se_q_ic]
                if sizes:
                    if key[0] == 0:
                        anchor = c.mean_rmse * math.sqrt(point[0])
                    row.append(anchor / math.sqrt(point[0]))
                rows.append(row)
        stats = ["n_ok", "n_failed", "mean_rmse", "se_rmse", "mean_q_ic", "se_q_ic"]
        _write_csv(path, ["filter", *axes, *stats, *extra], rows)

    def write_replicates_csv(self, path) -> None:
        rows = []
        for key in sorted(self.cells, key=str):
            c = self.cells[key]
            filt, *cell_key = key
            cell = "/".join(map(str, cell_key))
            rows += [[filt, cell, rep, r, q]
                     for rep, (r, q) in enumerate(zip(c.rmse_values, c.q_ic_values))]
        _write_csv(path, ["filter", "cell", "replicate", "rmse", "q_ic"], rows)


def _replicate_job(args) -> tuple:
    base, filters, cell_key, rep = args
    traj_ss = np.random.SeedSequence(base.seed, spawn_key=(*cell_key, rep, 0))
    setup = build_setup(base, traj_ss)
    out = []
    for f_idx, filt in enumerate(filters):
        filt_ss = np.random.SeedSequence(base.seed, spawn_key=(*cell_key, rep, 1 + f_idx))
        cfg = replace(base, filter=filt)
        run = _run_filter(setup, cfg, np.random.default_rng(filt_ss))
        report = _evaluate_run(setup, run)
        if report is None:
            out.append((filt, None, None))
        else:
            out.append((filt, report.rmse, report.q_ic))
    return cell_key, rep, out


def _aggregate(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _cell_stats(results: list[tuple]) -> CellStats:
    """Failure count, and mean and standard error over the replicates that ran."""
    rmse = [r for r, _ in results if r is not None]
    q_ic = [q for r, q in results if r is not None]
    return CellStats(
        len(rmse), len(results) - len(rmse), *_aggregate(rmse), *_aggregate(q_ic), rmse, q_ic
    )


def _execute_jobs(jobs: list, threads: int):
    if threads <= 1:
        return [_replicate_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_replicate_job, jobs, chunksize=1))


def _collect(
    kind: str,
    config: ExperimentConfig,
    filters: Sequence[str] | None,
    cells: dict[tuple, ExperimentConfig],
    **axes,
) -> SweepResult:
    """Run ``config.mc_reps`` replicates of every cell, ``cells`` mapping a
    cell key to the cell's config, and write the sweep's files if
    ``config.out_dir`` is set.  ``filters`` defaults to the config's filter."""
    filters = list(filters) if filters is not None else [config.filter]
    for cell in cells.values():
        for filt in filters:
            replace(cell, filter=filt)  # validates every run's config before any replicate
    jobs = [
        (cell, filters, key, rep) for key, cell in cells.items() for rep in range(config.mc_reps)
    ]
    raw = _execute_jobs(jobs, config.threads)
    raw.sort(key=lambda item: (item[0], item[1]))

    results = {(filt, *key): [] for key in cells for filt in filters}
    for cell_key, _rep, replicate in raw:
        for filt, r, q in replicate:
            results[(filt, *cell_key)].append((r, q))
    result = SweepResult(
        kind=kind,
        filters=filters,
        mc_reps=config.mc_reps,
        cells={key: _cell_stats(values) for key, values in results.items()},
        **axes,
    )
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = "sweep" if kind == "contamination" else "size_sweep"
        result.write_csv(out / f"{stem}_cells.csv")
        result.write_replicates_csv(out / f"{stem}_replicates.csv")
    return result


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
    eps_values = [float(e) for e in epsilon_values]
    sql_values = [float(s) for s in sqrt_lambda_values]
    if not eps_values or not sql_values:
        raise ValueError("sweep grid must be nonempty")
    cells = {
        (i, j): replace(config, epsilon=eps, lam=max(sql * sql, 1.0))
        for i, eps in enumerate(eps_values)
        for j, sql in enumerate(sql_values)
    }
    return _collect(
        "contamination", config, filters, cells, axis_epsilon=eps_values,
        axis_sqrt_lambda=sql_values,
    )


def run_ensemble_size_sweep(
    config: ExperimentConfig,
    sizes: Sequence[int],
    filters: Sequence[str] | None = None,
) -> SweepResult:
    """Sweep over the ensemble size at fixed contamination.

    The CSV output includes a reference column decaying like 1 / sqrt(M)
    (anchored at the first size) for rate plots.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    # Two-component keys mirror the contamination grid, so a single size
    # derives exactly the same replicate seeds as a 1-cell grid sweep.
    cells = {(i, 0): replace(config, ensemble_size=size) for i, size in enumerate(sizes)}
    return _collect("ensemble_size", config, filters, cells, axis_sizes=sizes)
