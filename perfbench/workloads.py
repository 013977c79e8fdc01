"""The benchmark's three twin-experiment workloads and their correctness gates.

A workload is a sequence of passes, a pass a fixed list of timed units, and a
unit one call into the public API: ``run_sweep`` over a chunk of replicates,
or ``run_single`` for one filter.  Unit seeds derive from the workload seed,
the pass index and the unit index, so one seed always gives the same inputs.
Import this module only after ``perfbench.load_robust_da()``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from robust_da import PRESETS, ExperimentConfig, run_single, run_sweep

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Horizon of the reference units, short enough to run before every
# measurement (the reference check doubles as the warm-up of the timed code).
REFERENCE_T_END = 2.0
# Relative tolerance of the reference RMSE check.  Filters, and wrong kernel
# settings, move these RMSEs by 1e-3 relative or more.  Scaling every SPD
# solve by (1 + 1e-12), far more than reordering a float sum does, moved them
# by at most 9e-11 (L96 letkf; 1e-13 or less for the robust filters).
REFERENCE_RTOL = 1e-8
WARMUP_T_END = 0.5

# Observation interval of each simulator at its default settings: tracking
# observes every dt = 0.1 step, the Lorenz models every t_out = 0.05.
_OBS_INTERVAL = {"tracking2d": 0.1, "lorenz63": 0.05, "lorenz96": 0.05}


def derive_seed(seed: int, pass_index: int, unit_index: int) -> int:
    """Seed of one unit, drawn from the workload seed by a SeedSequence."""
    return int(np.random.SeedSequence((seed, pass_index, unit_index)).generate_state(1)[0])


def _number(value) -> float:
    return float("nan") if value is None else float(value)


@dataclass(frozen=True)
class Outcome:
    """Per-run result values of one unit, keyed ``filter`` or ``filter/cell``."""

    rmse: dict[str, tuple[float, ...]]
    q_ic: dict[str, tuple[float, ...]]
    coverage: dict[str, tuple[float, ...]]
    n_failed: int


@dataclass(frozen=True)
class Unit:
    """One timed call: a sweep over ``grid`` or, with no grid, one run_single."""

    config: ExperimentConfig
    filters: tuple[str, ...]
    grid: tuple[tuple[float, ...], tuple[float, ...]] | None
    writes: bool

    @property
    def n_runs(self) -> int:
        """(replicate, filter) runs attempted by the unit."""
        if self.grid is None:
            return 1
        eps, sql = self.grid
        return self.config.mc_reps * len(eps) * len(sql) * len(self.filters)

    @property
    def n_obs(self) -> int:
        """Observations assimilated: each run passes its whole record through one filter."""
        per_run = round(self.config.horizon / _OBS_INTERVAL[self.config.model])
        return self.n_runs * per_run

    def execute(self, out_dir: str | None) -> Outcome:
        config = replace(self.config, out_dir=out_dir if self.writes else None)
        if self.grid is None:
            result = run_single(config)
            filt, summary = config.filter, result.summary
            return Outcome(
                rmse={filt: (_number(summary["rmse"]),)},
                q_ic={filt: (_number(summary["q_ic"]),)},
                coverage={filt: (_number(summary["ci_coverage_95"]),)},
                n_failed=int(summary["divergence_step"] is not None or result.report is None),
            )
        result = run_sweep(config, *self.grid, self.filters)
        rmse, q_ic = {}, {}
        for (filt, *cell), stats in result.cells.items():
            key = "/".join([filt, *map(str, cell)])
            rmse[key] = tuple(stats.rmse_values)
            q_ic[key] = tuple(stats.q_ic_values)
        n_failed = sum(stats.n_failed for stats in result.cells.values())
        return Outcome(rmse=rmse, q_ic=q_ic, coverage={}, n_failed=n_failed)


def _mean(outcomes: list[Outcome], key: str) -> float:
    values = [v for outcome in outcomes for v in outcome.rmse.get(key, ())]
    return float(np.mean(values)) if values else float("nan")


# The paper's orderings are claims about mean RMSE, so they are checked on the
# mean over every unit of a run (one pass at least), not per unit: single
# replicates break them (an L63 dsm_enkf replicate can lose track, RMSE 8.8
# against enkf 8.6), and the tracking kf / dsm_kf ratio averages about 2.16
# with a spread of 0.09 over chunks of 10 replicates.


def _tracking_pooled(outcomes: list[Outcome]) -> list[str]:
    kf, dsm = _mean(outcomes, "kf/1/0"), _mean(outcomes, "dsm_kf/1/0")  # epsilon 0.2 cell
    if not kf > 2.0 * dsm:
        return [f"contaminated cell: kf RMSE {kf:.4g} is not above 2x dsm_kf {dsm:.4g}"]
    return []


def _l63_pooled(outcomes: list[Outcome]) -> list[str]:
    enkf, dsm = _mean(outcomes, "enkf/0/0"), _mean(outcomes, "dsm_enkf/0/0")
    if not dsm < enkf:
        return [f"dsm_enkf RMSE {dsm:.4g} is not below enkf {enkf:.4g}"]
    return []


def _l96_pooled(outcomes: list[Outcome]) -> list[str]:
    problems = []
    letkf = _mean(outcomes, "letkf")
    if not letkf > 3.0:
        problems.append(f"letkf RMSE {letkf:.4g} is not above 3")
    for key in ("dsm_letkf", "wolf_letkf"):
        rmse = _mean(outcomes, key)
        if not rmse < 1.0:
            problems.append(f"{key} RMSE {rmse:.4g} is not below 1")
    return problems


@dataclass(frozen=True)
class Workload:
    """A closed loop of units with one caller; see the module docstring."""

    name: str
    base: ExperimentConfig
    filters: tuple[str, ...]
    grid: tuple[tuple[float, ...], tuple[float, ...]] | None
    writes: bool
    pooled_check: Callable[[list[Outcome]], list[str]]
    units_per_pass: int | None = None  # sweeps only; a run_single pass has one unit per filter
    # Filters that run in the reference units only, ahead of ``filters``.
    reference_filters: tuple[str, ...] = ()

    def pass_units(self, seed: int, pass_index: int) -> list[Unit]:
        """The units of one pass; run_single passes share one seed across filters."""
        if self.grid is None:
            config = replace(self.base, seed=derive_seed(seed, pass_index, 0))
            return [
                Unit(replace(config, filter=f), (f,), None, self.writes) for f in self.filters
            ]
        return [
            Unit(replace(self.base, seed=derive_seed(seed, pass_index, u)), self.filters,
                 self.grid, self.writes)
            for u in range(self.units_per_pass)
        ]

    def reference_units(self) -> list[Unit]:
        """Short-horizon units at the default seed whose RMSEs are recorded."""
        every_filter = replace(self, filters=self.reference_filters + self.filters)
        units = every_filter.pass_units(DEFAULT_SEED, 0)[: 1 if self.grid is not None else None]
        return [replace(u, config=replace(u.config, t_end=REFERENCE_T_END)) for u in units]

    def warmup_unit(self) -> Unit:
        """The small call that finishes set-up: every filter, one replicate."""
        config = replace(self.base, seed=DEFAULT_SEED, t_end=WARMUP_T_END, mc_reps=1)
        if self.grid is None:
            return Unit(replace(config, filter=self.filters[0]), self.filters[:1], None, self.writes)
        return Unit(config, self.filters, self.grid, self.writes)

    def problems(self, outcome: Outcome) -> list[str]:
        """Per-unit gate: every value finite and no run diverged."""
        problems = []
        for label, table in (("rmse", outcome.rmse), ("q_ic", outcome.q_ic),
                             ("coverage", outcome.coverage)):
            for key, values in table.items():
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"non-finite {label} for {key}")
        if outcome.n_failed:
            problems.append(f"{outcome.n_failed} diverged runs")
        return problems


# The L96 desk preset's contamination, ensemble size, inflation and
# localization.  Its horizon is cut from 10 to 2.5 time units (50
# observations) so that a unit lasts well under a second: over five runs the
# spread of us_per_obs was 0.13 at horizon 10, 0.08 at 5 and 0.06 at 2.5,
# because a shared VM's speed swings inside a long unit.
_L96 = {k: v for k, v in PRESETS["lorenz96_desk"].items() if k != "mc_reps"} | {"t_end": 2.5}

# The plain EnKF on contaminated L63 diverges now and then: Euler-Maruyama
# overflows once an outlier has thrown the ensemble off the attractor.  That
# happened in 4 of 600 replicates at sqrt(lambda) 25 and still in about 1 of
# 500 at 15 and 20.  So l63_sweep times only the robust filters, which did not
# diverge in 1000 replicates, and runs enkf in its reference unit alone, at
# the fixed default seed; the ordering check pools that unit with the timed
# ones.  README.md has the settings tried.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tracking_sweep",
            base=ExperimentConfig(model="tracking2d", filter="kf", t_end=10.0, mc_reps=4,
                                  threads=1),
            filters=("kf", "dsm_kf", "wolf_kf"),
            grid=((0.0, 0.2), (10.0,)),
            units_per_pass=25,
            writes=True,
            pooled_check=_tracking_pooled,
        ),
        Workload(
            name="l63_sweep",
            base=ExperimentConfig(model="lorenz63", filter="enkf", t_end=10.0,
                                  ensemble_size=10, mc_reps=1, threads=1),
            filters=("dsm_enkf", "wolf_enkf", "dsm_esrf", "dsm_pf"),
            grid=((0.25,), (25.0,)),
            units_per_pass=8,
            reference_filters=("enkf",),
            writes=False,
            pooled_check=_l63_pooled,
        ),
        Workload(
            name="l96_run",
            base=ExperimentConfig(**_L96, threads=1),
            filters=("letkf", "dsm_letkf", "wolf_letkf"),
            grid=None,
            writes=True,
            pooled_check=_l96_pooled,
        ),
    )
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_problems(workload: Workload, outcomes: list[Outcome], reference: dict) -> list[str]:
    """Compare the reference units' RMSEs with the recorded values."""
    recorded = reference.get(workload.name)
    if recorded is None:
        return [f"no recorded reference for {workload.name}"]
    measured = {k: v for o in outcomes for k, v in o.rmse.items()}
    if sorted(measured) != sorted(recorded):
        return [f"reference keys differ: {sorted(measured)} vs {sorted(recorded)}"]
    return [
        f"{key}: RMSE {list(values)} differs from recorded {recorded[key]}"
        for key, values in measured.items()
        if len(values) != len(recorded[key])
        or not np.allclose(values, recorded[key], rtol=REFERENCE_RTOL, atol=0.0)
    ]
