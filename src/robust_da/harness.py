"""Experiment orchestration: filter loops over twin experiments, Monte-Carlo
contamination and ensemble-size sweeps, and CSV/JSON result files.

Determinism contract: a (config, master seed) pair maps to byte-identical
result files regardless of worker count; per-replicate streams are derived
order-free from the master seed via spawn keys.
"""

from __future__ import annotations

import json
import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import dsm_analysis, wolf_analysis
from .ensemble import (
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
    "FilterDivergence",
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

CLOSED_FORM_FILTERS = ("kf", "dsm_kf", "wolf_kf")
ENKF_FILTERS = ("enkf", "dsm_enkf", "wolf_enkf")
ESRF_FILTERS = ("esrf", "dsm_esrf")
LETKF_FILTERS = ("letkf", "dsm_letkf", "wolf_letkf")
FILTERS = CLOSED_FORM_FILTERS + ENKF_FILTERS + ESRF_FILTERS + LETKF_FILTERS + ("dsm_pf",)
MODELS = ("ou", "tracking2d", "lorenz63", "lorenz96")

_MODEL_DEFAULT_T_END = {"ou": 10.0, "tracking2d": 50.0, "lorenz63": 50.0, "lorenz96": 73.0}


class FilterDivergence(RuntimeError):
    """A filter produced a non-finite state; carries the first bad step."""

    def __init__(self, step: int, message: str = ""):
        super().__init__(message or f"filter diverged at observation step {step}")
        self.step = step


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
        if self.filter in CLOSED_FORM_FILTERS and self.model not in ("ou", "tracking2d"):
            raise ValueError(
                f"filter {self.filter!r} needs a linear Gaussian model, got {self.model!r}"
            )
        if self.mc_reps < 1:
            raise ValueError("mc_reps must be >= 1")
        if self.ensemble_size < 2 and self.filter not in CLOSED_FORM_FILTERS:
            raise ValueError("ensemble_size must be >= 2 for ensemble and particle filters")

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
    # Desk-scale variants with reduced horizons / replication for CI gates.
    "ou_desk": dict(model="ou", t_end=10.0, epsilon=0.25, lam=27.5**2, mc_reps=100),
    "tracking_desk": dict(model="tracking2d", t_end=10.0, epsilon=0.2, lam=10.0**2, mc_reps=200),
    "lorenz63_desk": dict(
        model="lorenz63", filter="dsm_enkf", t_end=10.0, epsilon=0.25, lam=25.0**2,
        ensemble_size=10, mc_reps=50,
    ),
    "lorenz96_desk": dict(
        model="lorenz96",
        filter="dsm_letkf",
        t_end=10.0,
        epsilon=0.25,
        lam=27.5**2,
        ensemble_size=10,
        mc_reps=10,
        rho=1.06,
        half_width=19,
        taper_length=5.45,
    ),
}


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
    if config.model == "ou":
        record, lgss = simulate_ou(t_end=t_end, seed=traj_seed, contamination=contamination)
        return ModelSetup(
            record=record,
            lgss=lgss,
            obs=lgss.observation,
            sampler=lgss_sampler(lgss),
            init_mean=lgss.prior.mean,
            init_cov=lgss.prior.cov,
            diagonalize_qic=False,
        )
    if config.model == "tracking2d":
        record, lgss = simulate_target_tracking(
            t_end=t_end, seed=traj_seed, contamination=contamination
        )
        return ModelSetup(
            record=record,
            lgss=lgss,
            obs=lgss.observation,
            sampler=lgss_sampler(lgss),
            init_mean=lgss.prior.mean,
            init_cov=lgss.prior.cov,
            diagonalize_qic=False,
        )
    if config.model == "lorenz63":
        record, obs = simulate_lorenz63(t_end=t_end, seed=traj_seed, contamination=contamination)
        return ModelSetup(
            record=record,
            lgss=None,
            obs=obs,
            sampler=lorenz63_sampler(dt=0.001, n_steps=50),
            init_mean=record.initial_state,
            init_cov=0.1 * np.eye(3),
            diagonalize_qic=False,
        )
    if config.model == "lorenz96":
        record, obs = simulate_lorenz96(t_end=t_end, seed=traj_seed, contamination=contamination)
        return ModelSetup(
            record=record,
            lgss=None,
            obs=obs,
            sampler=lorenz96_sampler(dt=0.01, n_steps=5),
            init_mean=record.initial_state,
            init_cov=np.eye(record.states.shape[0]),
            diagonalize_qic=True,
        )
    raise ValueError(f"unknown model {config.model!r}")


# ---------------------------------------------------------------------------
# Filter loops


@dataclass
class FilterRun:
    """Per-observation filter output."""

    means: np.ndarray            # (n_obs, d_X)
    covariances: np.ndarray      # (n_obs, d_X, d_X)
    weights: np.ndarray          # (n_obs,) smallest squared kernel weight (NaN if not recorded)
    divergence_step: int | None = None


def _filter_loop(n_obs: int, d_x: int, step) -> FilterRun:
    """Run ``step(k) -> (mean, cov, weight)`` over every observation index.

    A step raising a linear-algebra or floating-point error marks the run as
    diverged at that index; the rest of the output is NaN.
    """
    means = np.empty((n_obs, d_x))
    covs = np.empty((n_obs, d_x, d_x))
    weights = np.full(n_obs, np.nan)
    for k in range(n_obs):
        try:
            means[k], covs[k], weights[k] = step(k)
        except (np.linalg.LinAlgError, FloatingPointError):
            means[k:] = np.nan
            covs[k:] = np.nan
            return FilterRun(means=means, covariances=covs, weights=weights, divergence_step=k)
    return FilterRun(means=means, covariances=covs, weights=weights)


def _weight_spec(method: str, config: ExperimentConfig) -> WeightKernelSpec | WolfSpec:
    """Weight spec of a filter: the configured DSM kernel or WoLF weight, and
    the constant kernel for the regular filters."""
    if method.startswith("dsm_"):
        standardization = {"dsm_letkf": OBS_ANOMALY, "dsm_pf": CONDITIONAL}.get(method, MARGINAL)
        return WeightKernelSpec(
            family=config.kernel_family, threshold=config.q_sq, standardization=standardization
        )
    if method.startswith("wolf_"):
        return WolfSpec(variant=config.wolf_variant, c_sq=config.c_sq)
    return WeightKernelSpec(family=CONSTANT)


def run_closed_form_filter(
    model: LgssModel,
    ys: np.ndarray,
    method: str,
    config: ExperimentConfig | None = None,
) -> FilterRun:
    """Run the exact KF / DSM / WoLF recursion over an observation sequence.

    ``ys`` has one observation per column.
    """
    if method not in CLOSED_FORM_FILTERS:
        raise ValueError(f"unknown closed-form filter {method!r}")
    config = config or ExperimentConfig(model="ou", filter=method)
    spec = _weight_spec(method, config)
    belief = model.prior

    def step(k):
        nonlocal belief
        forecast = kf_forecast(model, belief)
        if method == "kf":
            belief = kf_analysis(model, forecast, ys[:, k])
            return belief.mean, belief.cov, np.nan
        if method == "dsm_kf":
            result = dsm_analysis(model, forecast, ys[:, k], spec)
        else:
            result = wolf_analysis(model, forecast, ys[:, k], spec)
        belief = result.posterior
        return belief.mean, belief.cov, result.kernel_eval.k_sq.min()

    return _filter_loop(ys.shape[1], model.d_x, step)


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
    method: str,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> FilterRun:
    """Run an EnKF / ESRF / LETKF variant over an observation sequence."""
    if method not in ENKF_FILTERS + ESRF_FILTERS + LETKF_FILTERS:
        raise ValueError(f"unknown ensemble filter {method!r}")
    ensemble = EnsembleState(members=_initial_members(setup, config.ensemble_size, rng))
    spec = _weight_spec(method, config)
    letkf_cfg = _letkf_config(config)

    def step(k):
        nonlocal ensemble
        ensemble = ensemble_forecast(setup.sampler, ensemble, rng)
        if method in LETKF_FILTERS:
            ensemble = letkf_analysis(ensemble, setup.obs, ys[:, k], spec, letkf_cfg)
        elif method in ESRF_FILTERS:
            ensemble = esrf_analysis(ensemble, setup.obs, ys[:, k], spec)
        else:
            ensemble = enkf_perturbed_analysis(
                ensemble, setup.obs, ys[:, k], spec, mode=config.enkf_mode, rng=rng
            )
        if not np.all(np.isfinite(ensemble.members)):
            raise FloatingPointError("non-finite analysis members")
        return ensemble.mean, ensemble.cov, np.nan

    return _filter_loop(ys.shape[1], setup.init_mean.shape[0], step)


def run_particle_filter(
    setup: ModelSetup,
    ys: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> FilterRun:
    """Run the score-matching bootstrap particle filter."""
    cloud = ParticleCloud.uniform(_initial_members(setup, config.ensemble_size, rng))
    spec = _weight_spec("dsm_pf", config)

    def step(k):
        nonlocal cloud
        cloud = pf_step(
            cloud,
            setup.sampler,
            ys[:, k],
            setup.obs,
            spec,
            rng,
            resample_threshold=config.resample_threshold,
        )
        return cloud.weighted_mean(), cloud.weighted_cov(), np.nan

    return _filter_loop(ys.shape[1], setup.init_mean.shape[0], step)


def _run_filter(setup: ModelSetup, config: ExperimentConfig, filt_rng) -> FilterRun:
    ys = setup.record.observations
    if config.filter in CLOSED_FORM_FILTERS:
        return run_closed_form_filter(setup.lgss, ys, config.filter, config)
    if config.filter == "dsm_pf":
        return run_particle_filter(setup, ys, config, filt_rng)
    return run_ensemble_filter(setup, ys, config.filter, config, filt_rng)


# ---------------------------------------------------------------------------
# Single runs


@dataclass
class RunResult:
    config: ExperimentConfig
    report: MetricReport | None
    run: FilterRun
    truth: np.ndarray            # (n_obs, d_X)
    summary: dict
    paths: dict[str, str] = field(default_factory=dict)


def _evaluate_run(setup: ModelSetup, run: FilterRun) -> MetricReport | None:
    if run.divergence_step is not None:
        return None
    truth = setup.record.states_at_obs().T
    return MetricReport.evaluate(
        truth, run.means, run.covariances, diagonalize=setup.diagonalize_qic
    )


def run_single(config: ExperimentConfig, filter_override: str | None = None) -> RunResult:
    """Simulate, filter, score and (optionally) write artifacts for one run."""
    if filter_override is not None:
        config = replace(config, filter=filter_override)
    root = np.random.SeedSequence(config.seed)
    traj_ss, filt_ss = root.spawn(2)
    setup = build_setup(config, traj_ss)
    run = _run_filter(setup, config, np.random.default_rng(filt_ss))
    report = _evaluate_run(setup, run)
    truth = setup.record.states_at_obs().T

    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config),
        "n_obs": int(setup.record.n_obs),
        "divergence_step": run.divergence_step,
        "rmse": None if report is None else report.rmse,
        "q_ic": None if report is None else report.q_ic,
        "ci_coverage_95": None if report is None else report.ci_coverage_95,
    }
    result = RunResult(
        config=config, report=report, run=run, truth=truth, summary=summary
    )
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
    d = truth.shape[0]
    with open(steps_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "time", "contaminated_flag", "weight_sq"]
            + [f"truth_{i}" for i in range(d)]
            + [f"mean_{i}" for i in range(d)]
            + [f"var_{i}" for i in range(d)]
        )
        for k in range(record.n_obs):
            writer.writerow(
                [
                    k,
                    repr(float(record.times[record.obs_times[k]])),
                    int(record.contamination_flags[k]),
                    repr(float(run.weights[k])),
                ]
                + [repr(float(v)) for v in truth[:, k]]
                + [repr(float(v)) for v in run.means[k]]
                + [repr(float(v)) for v in np.diag(run.covariances[k])]
            )
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
    axis_epsilon: list[float]
    axis_sqrt_lambda: list[float]
    axis_sizes: list[int]
    mc_reps: int
    cells: dict[tuple, CellStats]

    def cell(self, filt: str, *key) -> CellStats:
        if self.kind == "ensemble_size" and len(key) == 1:
            key = (key[0], 0)
        return self.cells[(filt, *key)]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.kind == "contamination":
                writer.writerow(
                    ["filter", "epsilon", "sqrt_lambda", "n_ok", "n_failed",
                     "mean_rmse", "se_rmse", "mean_q_ic", "se_q_ic"]
                )
                for filt in self.filters:
                    for i, eps in enumerate(self.axis_epsilon):
                        for j, sql in enumerate(self.axis_sqrt_lambda):
                            c = self.cells[(filt, i, j)]
                            writer.writerow(
                                [filt, repr(float(eps)), repr(float(sql)), c.n_ok, c.n_failed]
                                + [repr(float(v)) for v in
                                   (c.mean_rmse, c.se_rmse, c.mean_q_ic, c.se_q_ic)]
                            )
            else:
                anchor = None
                writer.writerow(
                    ["filter", "ensemble_size", "n_ok", "n_failed",
                     "mean_rmse", "se_rmse", "mean_q_ic", "se_q_ic", "mc_rate_ref"]
                )
                for filt in self.filters:
                    for i, size in enumerate(self.axis_sizes):
                        c = self.cells[(filt, i, 0)]
                        if i == 0:
                            anchor = c.mean_rmse * math.sqrt(size)
                        ref = anchor / math.sqrt(size)
                        writer.writerow(
                            [filt, size, c.n_ok, c.n_failed]
                            + [repr(float(v)) for v in
                               (c.mean_rmse, c.se_rmse, c.mean_q_ic, c.se_q_ic, ref)]
                        )

    def write_replicates_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["filter", "cell", "replicate", "rmse", "q_ic"])
            for key in sorted(self.cells, key=str):
                c = self.cells[key]
                filt, *cell_key = key
                for rep, (r, q) in enumerate(zip(c.rmse_values, c.q_ic_values)):
                    writer.writerow(
                        [filt, "/".join(map(str, cell_key)), rep, repr(float(r)), repr(float(q))]
                    )


def _replicate_job(args) -> tuple:
    config, filters, cell_key, rep, eps, lam, size = args
    base = replace(
        config,
        epsilon=eps,
        lam=lam,
        ensemble_size=size,
        out_dir=None,
    )
    traj_ss = np.random.SeedSequence(config.seed, spawn_key=(*cell_key, rep, 0))
    setup = build_setup(base, traj_ss)
    out = []
    for f_idx, filt in enumerate(filters):
        filt_ss = np.random.SeedSequence(config.seed, spawn_key=(*cell_key, rep, 1 + f_idx))
        cfg = replace(base, filter=filt)
        run = _run_filter(setup, cfg, np.random.default_rng(filt_ss))
        report = _evaluate_run(setup, run)
        if report is None or not np.isfinite(report.rmse):
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


def _execute_jobs(jobs: list, threads: int):
    if threads <= 1:
        return [_replicate_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_replicate_job, jobs, chunksize=1))


def _collect(
    kind: str,
    config: ExperimentConfig,
    filters: list[str],
    cell_keys: list[tuple],
    cell_params: list[tuple],
    axis_epsilon: list[float],
    axis_sqrt_lambda: list[float],
    axis_sizes: list[int],
) -> SweepResult:
    for filt in filters:
        replace(config, filter=filt)  # validates every filter's config before any replicate
    jobs = [
        (config, filters, key, rep, eps, lam, size)
        for key, (eps, lam, size) in zip(cell_keys, cell_params)
        for rep in range(config.mc_reps)
    ]
    raw = _execute_jobs(jobs, config.threads)
    raw.sort(key=lambda item: (item[0], item[1]))

    cells: dict[tuple, CellStats] = {}
    for key in cell_keys:
        for filt in filters:
            cells[(filt, *key)] = CellStats(0, 0, 0.0, 0.0, 0.0, 0.0, [], [])
    for cell_key, _rep, results in raw:
        for filt, r, q in results:
            stats = cells[(filt, *cell_key)]
            if r is None:
                stats.n_failed += 1
            else:
                stats.n_ok += 1
                stats.rmse_values.append(r)
                stats.q_ic_values.append(q)
    for stats in cells.values():
        stats.mean_rmse, stats.se_rmse = _aggregate(stats.rmse_values)
        stats.mean_q_ic, stats.se_q_ic = _aggregate(stats.q_ic_values)
    return SweepResult(
        kind=kind,
        filters=filters,
        axis_epsilon=axis_epsilon,
        axis_sqrt_lambda=axis_sqrt_lambda,
        axis_sizes=axis_sizes,
        mc_reps=config.mc_reps,
        cells=cells,
    )


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
    filters = list(filters) if filters is not None else [config.filter]
    cell_keys = []
    cell_params = []
    for i, eps in enumerate(eps_values):
        for j, sql in enumerate(sql_values):
            cell_keys.append((i, j))
            cell_params.append((eps, max(sql * sql, 1.0), config.ensemble_size))
    result = _collect(
        "contamination", config, filters, cell_keys, cell_params,
        eps_values, sql_values, [],
    )
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.write_csv(out / "sweep_cells.csv")
        result.write_replicates_csv(out / "sweep_replicates.csv")
    return result


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
    filters = list(filters) if filters is not None else [config.filter]
    # Two-component keys mirror the contamination grid, so a single size
    # derives exactly the same replicate seeds as a 1-cell grid sweep.
    cell_keys = [(i, 0) for i in range(len(sizes))]
    cell_params = [(config.epsilon, config.lam, size) for size in sizes]
    result = _collect(
        "ensemble_size", config, filters, cell_keys, cell_params, [], [], sizes
    )
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.write_csv(out / "size_sweep_cells.csv")
        result.write_replicates_csv(out / "size_sweep_replicates.csv")
    return result
