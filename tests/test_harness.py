import ast
import csv
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robust_da
from robust_da import checks, harness, models
from robust_da.harness import (
    FILTERS,
    PRESETS,
    ExperimentConfig,
    run_ensemble_size_sweep,
    run_single,
    run_sweep,
)
from robust_da import cli
from robust_da.weights import expected_weight_mc, tune_threshold
from robust_da.ensemble import Localization
from robust_da.metrics import MetricReport
from robust_da.models import TrajectoryRecord
from helpers import build_setup, random_spd, run_filter_alone, run_filters


# ---------------------------------------------------------------------------
# Configuration


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(model="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(model="lorenz63", filter="kf")  # closed form needs LGSS
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"model": "ou", "bogus_field": 1})
    cfg = ExperimentConfig.from_dict(dict(PRESETS["ou_desk"]))
    assert cfg.model == "ou" and cfg.mc_reps == 100
    # A float field takes a JSON integer as it is.
    cfg = ExperimentConfig.from_dict({"lam": 900, "epsilon": 0, "q_sq": 2, "t_end": 10})
    assert cfg.contamination.lam == 900 and cfg.horizon == 10
    # Unknown keys of mixed types are named, not compared with each other.
    with pytest.raises(ValueError, match="unknown config fields: \\['a', 1\\]"):
        ExperimentConfig.from_dict({1: 0, "a": 0})


@pytest.mark.parametrize(
    "setting",
    [
        {"q_sq": -1.0}, {"c_sq": 0.0}, {"wolf_variant": "bogus"}, {"enkf_mode": "bogus"},
        {"kernel_family": "bogus"},
        # The WoLF weight is a kernel family of the library, not a DSM kernel.
        pytest.param({"kernel_family": "wolf"}, id="kernel_family_wolf"),
        {"rho": 0.5}, {"half_width": -1}, {"taper_length": 0.0},
        # A float or bool half_width indexed the LETKF windows mid-run; an
        # out_dir that is not a string failed only once the run was computed.
        pytest.param({"half_width": 19.0}, id="half_width_float"),
        pytest.param({"half_width": True}, id="half_width_bool"),
        {"out_dir": 5},
        # An infinite lambda ran every replicate into 0 * inf in the twin noise.
        pytest.param({"lam": math.inf}, id="lam_inf"),
        # Unused settings are checked too, so no summary echoes NaN or inf.
        pytest.param({"taper_length": math.nan, "half_width": None}, id="taper_length_nan_unused"),
        pytest.param({"taper_length": -math.inf, "half_width": None},
                     id="taper_length_inf_unused"),
        pytest.param({"q_sq": -1.0, "kernel_family": "constant"}, id="q_sq_negative_unused"),
        pytest.param({"q_sq": math.nan, "kernel_family": "constant"}, id="q_sq_nan_unused"),
    ],
    ids=lambda setting: next(iter(setting)),
)
def test_config_refuses_bad_weight_settings_when_built(setting, tmp_path):
    # The config refuses the value, not the filter mid-run, so the CLI exits
    # with one line naming the file.
    with pytest.raises(ValueError):
        ExperimentConfig(**setting)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "ou", "filter": "dsm_kf", "t_end": 1.0, **setting}))
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--config", str(path)])
    assert str(err.value).startswith(f"{path}: ") and "\n" not in str(err.value)


@pytest.mark.parametrize("taper_length", [1e-300, 1e200])
def test_config_refuses_a_taper_length_whose_square_is_zero_or_overflows(taper_length, tmp_path):
    # The taper divides by taper_length**2.  A square of 0 made the own-site
    # taper 0/0 and every LETKF run diverge at step 0; one that overflows
    # raised OverflowError mid-run.  Both are refused before any replicate.
    with pytest.raises(ValueError, match="taper_length"):
        Localization(half_width=19, taper_length=taper_length)
    with pytest.raises(ValueError, match="taper_length"):
        ExperimentConfig(model="lorenz96", filter="dsm_letkf", taper_length=taper_length)
    path = tmp_path / "cfg.json"
    config = {"model": "lorenz96", "filter": "dsm_letkf", "taper_length": taper_length}
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--config", str(path)])
    assert str(err.value).startswith(f"{path}: taper_length") and "\n" not in str(err.value)


def test_a_taper_length_whose_square_is_tiny_but_positive_runs_clean():
    # 1e-150 squares to 1e-300: the taper keeps each site's own observation
    # only, and the run neither diverges nor warns.
    result = run_single(ExperimentConfig(
        model="lorenz96", filter="dsm_letkf", t_end=0.3, seed=1, taper_length=1e-150,
    ))
    assert result.run.divergence_step is None
    assert math.isfinite(result.summary["rmse"])


def test_presets_are_valid():
    for name, preset in PRESETS.items():
        cfg = ExperimentConfig.from_dict(dict(preset))
        assert cfg.horizon > 0, name


# JSON-representable values that a config field may be handed by mistake.
# Every field takes one of them, except that the size fields (threads,
# ensemble size, replicates) stay small, the horizon stays short (a Lorenz
# model's default is too long) and ``out_dir`` is never a string (it would
# write into the working directory): a run must stay cheap and local.
ODD_VALUES = (1e308, 1e-320, 1.5, 0, -1, math.inf, -math.inf, math.nan, True, False, "1", "", None)
TEMP_DIR = object()  # stands for a fresh temporary directory
SHORT_T_END = {"ou": 0.3, "tracking2d": 0.3, "lorenz63": 0.1, "lorenz96": 0.1}


@st.composite
def config_fields(draw):
    """The fields of an ``ExperimentConfig``, each a usual value, except for
    up to two fields, which take an odd value."""
    model = draw(st.sampled_from(harness.MODELS))
    usual = {
        "model": harness.MODELS,
        "filter": FILTERS if model in ("ou", "tracking2d") else tuple(
            f for f in FILTERS if f not in ("kf", "dsm_kf", "wolf_kf")),
        "kernel_family": ("imq", "sqexp", "constant"),
        "q_sq": (None, 0.5, 3.0), "c_sq": (None, 0.5, 3.0), "wolf_variant": ("md", "sigma_scaled"),
        "epsilon": (0.0, 0.25, 1.0), "lam": (1.0, 625.0), "ensemble_size": (2, 3, 5),
        "t_end": (SHORT_T_END[model], None) if model in ("ou", "tracking2d") else (
            SHORT_T_END[model],),
        "mc_reps": (1, 2), "seed": (0, 7, 2**64), "out_dir": (None, TEMP_DIR), "threads": (1, 2),
        "enkf_mode": ("average", "per_particle"), "rho": (1.0, 1.06),
        "half_width": (None, 0, 2, 19), "taper_length": (1.0, 5.45),
        "resample_threshold": (0.0, 0.5, 1.0),
    }
    odd = {name: ODD_VALUES for name in usual}
    odd.update(
        filter=ODD_VALUES + ("kf",),
        out_dir=tuple(v for v in ODD_VALUES if not isinstance(v, str) and v is not None),
        t_end=tuple(v for v in ODD_VALUES if v is not None),
    )
    names = [f.name for f in fields(ExperimentConfig)]
    assert sorted(names) == sorted(usual)
    # Numbers first: hypothesis draws the first entries most often.
    numbers = [name for name in names if isinstance(usual[name][0], (int, float))]
    chosen = draw(st.sets(st.sampled_from(numbers + names), min_size=1, max_size=2))
    values = {name: draw(st.sampled_from(odd[name] if name in chosen else usual[name]))
              for name in names}
    return {**values, "model": model} if "model" not in chosen else values


def _refuse_json_constant(token):
    raise ValueError(f"non-JSON token {token}")


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(config_fields())
def test_every_config_the_harness_accepts_runs_clean(values):
    # Each draw is refused at construction with a one-line ValueError, or it
    # runs through run_single and a two-replicate sweep, with no exception
    # and no warning, every run scored finite or diverged.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        if values["out_dir"] is TEMP_DIR:
            values["out_dir"] = tmp
        try:
            config = ExperimentConfig.from_dict(values)
        except ValueError as exc:
            assert str(exc) and "\n" not in str(exc)
            return
        result = run_single(config)
        if result.run.divergence_step is None:
            assert math.isfinite(result.report.rmse) and math.isfinite(result.report.q_ic)
        else:
            assert result.report is None
        for path in Path(tmp).glob("*_summary.json"):  # strict JSON: no NaN or Infinity
            json.loads(path.read_text(), parse_constant=_refuse_json_constant)
        sweep = run_sweep(replace(config, mc_reps=2), [config.epsilon], [math.sqrt(config.lam)])
        cell = sweep.cell(config.filter, 0, 0)
        assert cell.n_ok + cell.n_failed == 2
        assert all(map(math.isfinite, cell.rmse_values + cell.q_ic_values))


# ---------------------------------------------------------------------------
# Single runs


def test_smoke_run_ou_dsm():
    cfg = ExperimentConfig(model="ou", filter="dsm_kf", t_end=10.0, seed=1)
    result = run_single(cfg)
    assert result.run.divergence_step is None
    assert np.isfinite(result.report.rmse)
    assert result.summary["schema_version"] == 1
    assert result.summary["n_obs"] == 100


@pytest.mark.parametrize(
    "model,filter_name,kwargs",
    [
        ("ou", "kf", {}),
        ("ou", "wolf_kf", {}),
        ("ou", "enkf", {"ensemble_size": 8}),
        ("ou", "dsm_enkf", {"ensemble_size": 8}),
        ("ou", "wolf_enkf", {"ensemble_size": 8}),
        ("ou", "esrf", {"ensemble_size": 8}),
        ("ou", "dsm_esrf", {"ensemble_size": 8}),
        ("ou", "dsm_pf", {"ensemble_size": 200}),
        ("tracking2d", "dsm_kf", {"t_end": 3.0}),
        ("lorenz63", "dsm_enkf", {"t_end": 0.5, "ensemble_size": 6}),
        ("lorenz96", "dsm_letkf", {"t_end": 0.3, "ensemble_size": 6}),
        ("lorenz96", "letkf", {"t_end": 0.3, "ensemble_size": 6}),
        ("lorenz96", "wolf_letkf", {"t_end": 0.3, "ensemble_size": 6}),
    ],
)
def test_smoke_every_filter_runs(model, filter_name, kwargs):
    cfg = ExperimentConfig(
        model=model, filter=filter_name, seed=3, epsilon=0.1, lam=25.0, **kwargs
    )
    result = run_single(cfg)
    assert result.run.divergence_step is None
    assert np.isfinite(result.report.rmse)


def test_run_single_deterministic_files(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = dict(model="ou", filter="dsm_kf", t_end=5.0, seed=7, epsilon=0.25, lam=756.25)
    res_a = run_single(ExperimentConfig(out_dir=str(out_a), **base))
    res_b = run_single(ExperimentConfig(out_dir=str(out_b), **base))
    steps_a = (out_a / "ou_dsm_kf_seed7_steps.csv").read_bytes()
    steps_b = (out_b / "ou_dsm_kf_seed7_steps.csv").read_bytes()
    assert steps_a == steps_b
    summary_a = json.loads((out_a / "ou_dsm_kf_seed7_summary.json").read_text())
    summary_b = json.loads((out_b / "ou_dsm_kf_seed7_summary.json").read_text())
    del summary_a["config"]["out_dir"], summary_b["config"]["out_dir"]
    assert summary_a == summary_b
    assert res_a.report.rmse == res_b.report.rmse


def test_run_single_csv_layout(tmp_path):
    cfg = ExperimentConfig(
        model="ou", filter="dsm_kf", t_end=1.0, seed=0, out_dir=str(tmp_path)
    )
    result = run_single(cfg)
    lines = (tmp_path / "ou_dsm_kf_seed0_steps.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "step", "time", "contaminated_flag", "weight_sq", "truth_0", "mean_0", "var_0",
    ]
    assert len(lines) == 1 + result.summary["n_obs"]


def test_a_divergence_sets_the_weight_of_its_step_to_nan():
    # A stack whose first element records a finite weight at the step where
    # its mean turns infinite: the loop's NaN reaches that weight too, and
    # the other element runs on.
    class Stack:
        def __init__(self, slices, rows):
            self.rows = np.array(rows)

        def blocks(self):
            return []

        def step(self, k, forecasts, means, covs, weights):
            means[self.rows, k] = np.where(self.rows == 0, np.inf if k == 2 else 1.0, 1.0)[:, None]
            covs[self.rows, k], weights[self.rows, k] = 1.0, 0.25
            return means[self.rows, k], covs[self.rows, k]

        def keep(self, live):
            self.rows = self.rows[live]

    slices = [SimpleNamespace(ys=np.zeros((1, 5)), stack=Stack) for _ in range(2)]
    setup = SimpleNamespace(init_mean=np.zeros(1), sampler=None)
    diverged, ran = harness._filter_loop(slices, setup)
    assert diverged.divergence_step == 2 and ran.divergence_step is None
    assert diverged.weights[:2].tolist() == [0.25, 0.25] and np.isnan(diverged.weights[2:]).all()
    assert np.isnan(diverged.means[2:]).all() and np.isnan(diverged.covariances[2:]).all()
    assert ran.weights.tolist() == [0.25] * 5 and ran.means.tolist() == [[1.0]] * 5


def test_divergence_is_reported():
    # A 2-member ensemble under extreme contamination may blow up; the run
    # must not raise, and any divergence must be itemized in the summary.
    cfg = ExperimentConfig(
        model="lorenz63", filter="dsm_enkf", t_end=0.5, ensemble_size=2, seed=5,
        epsilon=0.5, lam=1e6,
    )
    result = run_single(cfg)
    assert result.summary["divergence_step"] == result.run.divergence_step
    if result.run.divergence_step is not None:
        assert result.report is None


_ENSEMBLE_AND_PF = ("enkf", "dsm_enkf", "wolf_enkf", "esrf", "dsm_esrf", "dsm_pf")


@pytest.mark.parametrize(
    "model,filters,settings,diverged",
    [
        # The particle filter resamples on this replicate.
        ("lorenz63", _ENSEMBLE_AND_PF, dict(t_end=2.0, epsilon=0.25, lam=625.0, seed=0), {}),
        # Plain enkf overflows its forecast at step 15 of 40 (seed found by
        # search); the other five filters run on to the end.
        ("lorenz63", _ENSEMBLE_AND_PF, dict(t_end=2.0, epsilon=0.1, lam=1e5, seed=2),
         {"enkf": 15}),
        ("ou", ("kf", "letkf", "dsm_letkf", *_ENSEMBLE_AND_PF),
         dict(t_end=3.0, epsilon=0.25, lam=625.0, seed=1), {}),
        ("tracking2d", ("wolf_kf", "wolf_letkf", *_ENSEMBLE_AND_PF),
         dict(t_end=3.0, epsilon=0.25, lam=625.0, seed=1), {}),
        ("lorenz96", ("letkf", "dsm_letkf", "wolf_letkf"),
         dict(t_end=0.5, epsilon=0.25, lam=625.0, seed=1), {}),
    ],
    ids=["l63-resampling", "l63-enkf-diverges", "ou", "tracking", "l96"],
)
def test_lock_stepped_filters_match_each_filter_run_alone(
    model, filters, settings, diverged, monkeypatch
):
    # A replicate's filters, forecast together and analysed apart, give
    # each filter's run alone bit for bit, a diverged one included.
    resampled, pf_step = [], harness.pf_step

    def recording_pf_step(*args, **kwargs):
        cloud = pf_step(*args, **kwargs)
        resampled.append(np.all(cloud.log_weights == cloud.log_weights[0]))
        return cloud

    monkeypatch.setattr(harness, "pf_step", recording_pf_step)
    base = ExperimentConfig(model=model, filter=filters[-1], ensemble_size=10, **settings)
    setup = build_setup(base, np.random.SeedSequence(base.seed))
    configs = [replace(base, filter=f) for f in filters]
    rngs = [np.random.default_rng(i) for i in range(len(filters))]
    runs = run_filters(setup, configs, rngs)
    for i, (config, run) in enumerate(zip(configs, runs)):
        alone = run_filter_alone(setup, config, np.random.default_rng(i))
        assert run.divergence_step == alone.divergence_step == diverged.get(config.filter)
        assert np.array_equal(run.means, alone.means, equal_nan=True), config.filter
        assert np.array_equal(run.covariances, alone.covariances, equal_nan=True), config.filter
        assert np.array_equal(run.weights, alone.weights, equal_nan=True), config.filter
    if "dsm_pf" in filters:
        assert any(resampled)


@pytest.mark.parametrize(
    "model,filter_name",
    [("ou", "kf"), ("ou", "dsm_kf"), ("ou", "wolf_kf"), ("lorenz63", "dsm_enkf"),
     ("lorenz63", "dsm_esrf"), ("lorenz63", "dsm_pf"), ("lorenz96", "dsm_letkf")],
)
def test_run_draws_its_truth_and_filter_from_the_two_children_of_its_seed(model, filter_name):
    # A single run's truth draws from the first child of SeedSequence(seed)
    # and its filter from the second, so its files stay those of every
    # earlier release.
    t_end = {"ou": 5.0, "lorenz63": 2.0, "lorenz96": 0.5}[model]
    config = ExperimentConfig(model=model, filter=filter_name, t_end=t_end, epsilon=0.25,
                              lam=625.0, seed=7)
    traj_ss, filt_ss = np.random.SeedSequence(config.seed).spawn(2)
    alone = run_filter_alone(build_setup(config, traj_ss), config, np.random.default_rng(filt_ss))
    run = run_single(config).run
    assert run.divergence_step is None and alone.divergence_step is None
    for got, expected in ((run.means, alone.means), (run.covariances, alone.covariances),
                          (run.weights, alone.weights)):
        np.testing.assert_array_equal(got, expected)


def _setup_with_observation(filter_name, value, model=None):
    """Config and a short run's setup whose first observation component at
    step 3 is replaced by ``value``; the model defaults to the family's."""
    family = harness._FILTER_TABLE[filter_name][0]
    model = model or {"kf": "ou", "letkf": "lorenz96"}.get(family, "lorenz63")
    cfg = ExperimentConfig(model=model, filter=filter_name, t_end=1.0, ensemble_size=20, seed=2)
    setup = build_setup(cfg, np.random.SeedSequence(2))
    setup.record.observations[0, 3] = value
    return cfg, setup


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("filter_name", FILTERS)
def test_run_reports_nan_observation_as_divergence(filter_name):
    # Every family reports the step of a NaN or infinite observation and
    # scores nothing, whether its analysis raises there or records a
    # non-finite state.
    for value in (np.nan, np.inf, -np.inf):
        cfg, setup = _setup_with_observation(filter_name, value)
        (run,) = run_filters(setup, [cfg], [np.random.default_rng(0)])
        assert run.divergence_step == 3, value
        assert np.all(np.isfinite(run.means[:3])) and np.all(np.isnan(run.means[3:]))
        assert harness._evaluate_runs([setup], [run]) == [None]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("filter_name", [f for f in FILTERS if harness._FILTER_TABLE[f][1]])
def test_robust_filters_run_through_a_huge_finite_observation(filter_name):
    # Bounded influence: one observation component at 1e200, or near the
    # largest double, neither raises nor ends the run of a robust filter.  The
    # LETKF runs localized on Lorenz-96 and as one global window on Lorenz-63,
    # whose R < 1 would whiten the largest double to inf.
    models = (None, "lorenz63") if harness._FILTER_TABLE[filter_name][0] == "letkf" else (None,)
    for model in models:
        for value in (1e200, 1.7e308):
            cfg, setup = _setup_with_observation(filter_name, value, model)
            (run,) = run_filters(setup, [cfg], [np.random.default_rng(0)])
            assert run.divergence_step is None, (model, value)
            (report,) = harness._evaluate_runs([setup], [run])
            assert np.isfinite([report.rmse, report.q_ic, report.ci_coverage_95]).all(), value


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kf_scores_a_huge_finite_observation_with_finite_metrics(tmp_path):
    # The plain filter follows a component at 1e200 without diverging; its
    # squared error overflows, yet the run is scored, and its summary is
    # valid JSON.
    cfg, setup = _setup_with_observation("kf", 1e200)
    (run,) = run_filters(setup, [cfg], [np.random.default_rng(0)])
    assert run.divergence_step is None
    (report,) = harness._evaluate_runs([setup], [run])
    assert np.isfinite([report.rmse, report.q_ic, report.ci_coverage_95]).all()
    assert 1e198 < report.rmse < 1e200
    # A sweep counts a replicate as failed only when it diverged.
    cfg = ExperimentConfig(model="tracking2d", filter="kf", t_end=10.0, mc_reps=3, seed=0)
    stats = run_sweep(cfg, [1.0], [1.3e154]).cell("kf", 0, 0)
    assert (stats.n_ok, stats.n_failed) == (3, 0)
    assert np.isfinite(stats.rmse_values).all()
    summary = run_single(replace(cfg, epsilon=1.0, lam=1.3e154**2, out_dir=str(tmp_path))).summary
    json.dumps(summary, allow_nan=False)


_SPREAD_CANCELS = "ROADMAP item 6: the members' spread cancels below an ulp of the mean"
_CONTRACT_BREAKS = {
    ("tracking2d", "dsm_letkf"): "ROADMAP item 16: the transform's Woodbury Mahalanobis square "
                                 "goes negative when the spread dwarfs R",
    ("ou", "enkf"): _SPREAD_CANCELS,
    ("tracking2d", "enkf"): _SPREAD_CANCELS,
}


def _contract_pair(model, filter_name):
    """The (model, filter) pair, strictly expected to fail where a known
    defect breaks the bounded-influence contract, with the ROADMAP item that
    mends it; None if ``ExperimentConfig`` refuses the pair."""
    try:
        ExperimentConfig(model=model, filter=filter_name)
    except ValueError:
        return None
    broken = _CONTRACT_BREAKS.get((model, filter_name))
    marks = () if broken is None else pytest.mark.xfail(strict=True, reason=broken)
    return pytest.param(model, filter_name, marks=marks, id=f"{model}-{filter_name}")


CONTRACT_PAIRS = [p for m in harness.MODELS for f in FILTERS if (p := _contract_pair(m, f))]


@pytest.mark.parametrize("model,filter_name", CONTRACT_PAIRS)
def test_no_observation_crashes_or_silently_poisons_a_run(model, filter_name, monkeypatch):
    # Bounded influence over every pair the config accepts: with every
    # observation an outlier (epsilon 1, lambda 1e10 and 1e300) a run raises
    # nothing, a robust filter does not diverge, and every run either reports
    # a divergence or has finite moments and a positive variance at every
    # step; so does a run with one NaN component.  Ten observations, and
    # 400 for tracking2d dsm_letkf, whose 1e300 run diverges at step 384.
    t_end = 40.0 if (model, filter_name) == ("tracking2d", "dsm_letkf") else (
        1.0 if model in ("ou", "tracking2d") else 0.5
    )
    base = ExperimentConfig(model=model, filter=filter_name, t_end=t_end, seed=1, epsilon=1.0)
    robust = harness._FILTER_TABLE[filter_name][1] is not None
    build = harness.build_setups

    def with_nan(configs, seeds):
        setups = build(configs, seeds)
        setups[0].record.observations[0, 3] = np.nan
        return setups

    runs = [(f"lambda {lam:g}", run_single(replace(base, lam=lam)).run) for lam in (1e10, 1e300)]
    monkeypatch.setattr(harness, "build_setups", with_nan)
    nan_run = run_single(replace(base, epsilon=0.0)).run
    for label, run in [*runs, ("a NaN observation", nan_run)]:
        step = run.divergence_step
        assert not (robust and run is not nan_run and step is not None), (
            f"diverged at step {step} under {label}"
        )
        if step is None:
            variances = np.diagonal(run.covariances, axis1=-2, axis2=-1)
            assert np.isfinite(run.means).all() and np.isfinite(run.covariances).all(), label
            zero = np.flatnonzero(~(variances > 0.0).all(axis=1))
            assert not len(zero), f"scored with a zero variance from step {zero[0]} under {label}"


@pytest.mark.parametrize(
    "filter_name,setting,values",
    [
        ("dsm_letkf", "kernel_family", ("imq", "sqexp")),
        ("wolf_letkf", "wolf_variant", ("md", "sigma_scaled")),
        ("dsm_pf", "kernel_family", ("imq", "sqexp")),
    ],
    ids=["dsm_letkf", "wolf_letkf", "dsm_pf"],
)
def test_letkf_runs_follow_weight_settings(filter_name, setting, values):
    # The kernel family and WoLF variant reach the LETKF, and the kernel
    # family the particle filter, without an explicit threshold too.
    means = [
        run_single(
            ExperimentConfig(
                model="lorenz96", filter=filter_name, t_end=0.3, ensemble_size=6, seed=3,
                epsilon=0.1, lam=25.0, **{setting: value},
            )
        ).run.means
        for value in values
    ]
    assert np.all(np.isfinite(means))
    assert not np.allclose(means[0], means[1])


def test_particle_filter_survives_collapse_onto_one_particle():
    # The weighted covariance after resampling onto one particle is exactly
    # zero at some step; that step scores the q_ic cap instead of crashing,
    # on the diagonalized (lorenz96) and the full-covariance metric path.
    for model, size, seed in [
        ("lorenz96", 100, 11), ("lorenz63", 5, 0), ("lorenz63", 3, 0), ("ou", 3, 0),
        ("tracking2d", 5, 5),
    ]:
        cfg = ExperimentConfig(
            model=model, filter="dsm_pf", t_end=5.0, ensemble_size=size, epsilon=0.25,
            lam=625.0, seed=seed,
        )
        result = run_single(cfg)
        assert result.summary["divergence_step"] is None, cfg
        assert np.isfinite(result.summary["rmse"]), cfg
        assert result.summary["q_ic"] <= 10.0, cfg


def test_sweeps_refuse_an_invalid_filter_before_any_replicate(monkeypatch):
    cfg = ExperimentConfig(
        model="lorenz63", filter="dsm_enkf", t_end=0.3, ensemble_size=20, mc_reps=2, seed=3,
    )

    def no_replicate(chunk):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_chunk_job", no_replicate)
    with pytest.raises(ValueError, match="linear Gaussian"):
        run_sweep(cfg, [0.1], [5.0], filters=["dsm_enkf", "kf"])
    with pytest.raises(ValueError, match="linear Gaussian"):
        run_ensemble_size_sweep(cfg, [10, 20], filters=["kf"])
    with pytest.raises(ValueError, match="ensemble_size"):
        run_ensemble_size_sweep(replace(cfg, model="ou", filter="kf"), [1, 5], filters=["enkf"])
    with pytest.raises(ValueError, match="filters must be nonempty"):
        run_sweep(cfg, [0.1], [5.0], filters=[])
    # list() split a string into letters: "unknown filter 'd'".
    with pytest.raises(ValueError, match="^filters must be a list of filter names, got the "
                                         "string 'dsm_kf'$"):
        run_sweep(cfg, [0.1], [5.0], filters="dsm_kf")
    # A filter listed twice would count each of its replicates twice.
    with pytest.raises(ValueError, match="'dsm_enkf' is listed more than once"):
        run_sweep(cfg, [0.1], [5.0], filters=["dsm_enkf", "enkf", "dsm_enkf"])
    with pytest.raises(ValueError, match="'enkf' is listed more than once"):
        run_ensemble_size_sweep(cfg, [10, 20], filters=["enkf", "enkf"])


def test_sweeps_refuse_a_grid_value_of_the_wrong_type_before_any_replicate(monkeypatch):
    # int() and float() of these ran sizes [5, 7] for [5.9, 7.2], 8 for "8",
    # epsilon 1.0 for True and sqrt(lambda) 10 for "10", under those labels.
    cfg = ExperimentConfig(
        model="lorenz63", filter="dsm_enkf", t_end=0.3, ensemble_size=20, mc_reps=2, seed=3,
    )

    def no_replicate(chunk):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_chunk_job", no_replicate)
    for sizes, bad in (([5.9, 7.2], "5.9"), (["8"], "'8'"), ([5, True], "True"),
                       ([10.0, 20], "10.0")):
        with pytest.raises(ValueError, match=f"^ensemble sizes must be integers, got {bad}$"):
            run_ensemble_size_sweep(cfg, sizes)
    for eps, sql, bad in (([True], [10.0], "epsilon values must be numbers, got True"),
                          ([0.1], ["10"], "sqrt_lambda values must be numbers, got '10'"),
                          ([0.1], [np.True_], "sqrt_lambda values must be numbers, got np.True_"),
                          (["0.1"], [10.0], "epsilon values must be numbers, got '0.1'")):
        with pytest.raises(ValueError, match=f"^{re.escape(bad)}$"):
            run_sweep(cfg, eps, sql)
    # numpy numbers are numbers: they run under their own values.
    monkeypatch.undo()
    result = run_ensemble_size_sweep(replace(cfg, mc_reps=1), np.array([5, 7]), filters=["enkf"])
    sizes = result.axes["ensemble_size"]
    assert sizes == [5, 7] and all(type(m) is int for m in sizes)
    result = run_sweep(replace(cfg, mc_reps=1), np.array([0.1]), [np.int64(10)], filters=["enkf"])
    assert result.axes["epsilon"] == [0.1] and result.axes["sqrt_lambda"] == [10.0]


def test_config_bounds_a_sampled_filters_largest_array_and_the_replicate_count():
    # Each sampled filter kind's largest per-step array is bounded: the
    # forecast's largest array (the (d, M) members of the OU sampler, the
    # 167-row buffer of the L63 sampler, the (6, d, M) RK4 stages of the L96
    # sampler) or the (d_Y, M, M) window products of the ESRF and LETKF.  So
    # 699,050 L63 members, just under the ceiling themselves, are refused.
    # The closed form keeps no ensemble, so its ensemble_size is not
    # bounded.  mc_reps has a ceiling of its own.
    limit = harness.MAX_STEP_BYTES
    for model, filt, largest in (
        ("lorenz96", "letkf", math.isqrt(limit // (8 * 40))),
        ("lorenz63", "dsm_esrf", math.isqrt(limit // 8)),
        ("lorenz96", "enkf", limit // (8 * 6 * 40)),
        ("ou", "dsm_pf", limit // 8),
        ("lorenz63", "enkf", limit // (8 * 167)),
    ):
        ExperimentConfig(model=model, filter=filt, ensemble_size=largest)
        with pytest.raises(ValueError, match=f"^ensemble_size {largest + 1} gives "):
            ExperimentConfig(model=model, filter=filt, ensemble_size=largest + 1)
    ExperimentConfig(filter="kf", ensemble_size=10**12)
    ExperimentConfig(mc_reps=harness.MAX_MC_REPS)
    with pytest.raises(ValueError, match=f"^mc_reps {10**12} is above the ceiling"):
        ExperimentConfig(mc_reps=10**12)


@pytest.mark.parametrize("model", harness.MODELS)
def test_a_forecast_holds_no_more_doubles_per_column_than_the_ceilings_count(model):
    # One ensemble_forecast of two blocks through a fresh sampler, so that
    # the L63 buffer and the L96 stages are built, measured by tracemalloc
    # at two column counts.  Per column, its peak grows by no more than the
    # count the chunk budget reads, and the largest array it keeps or
    # returns by no more than the count the per-step ceiling reads.  The
    # counts are multiples of 8 above 256: the L63 rows are padded to 8, and
    # Python caches the smaller ints.
    largest, peak = harness._FORECAST_DOUBLES[model]
    config = ExperimentConfig(model=model, filter="enkf", t_end=0.1)
    held, peaks = [], []
    for m in (160, 640):
        setup = build_setup(config, np.random.SeedSequence(0))
        blocks = [harness._initial_members(setup, m, np.random.default_rng(i)) for i in range(2)]
        rngs = [np.random.default_rng(2 + i) for i in range(2)]
        tracemalloc.start()
        try:
            forecasts = harness.ensemble_forecast(setup.sampler, blocks, rngs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            held.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))
        finally:
            tracemalloc.stop()
        assert all(f is not None and f.shape == b.shape for f, b in zip(forecasts, blocks))
    columns = 2 * (640 - 160)
    assert peaks[1] - peaks[0] <= 8 * peak * columns
    assert held[1] - held[0] <= 8 * largest * columns


def test_no_preset_or_default_size_meets_a_ceiling():
    sizes = [int(v) for v in cli.build_parser().parse_args(["size-sweep"]).sizes.split(",")]
    for preset in PRESETS.values():
        ExperimentConfig.from_dict(preset)
        for filt in FILTERS:
            for size in sizes:
                try:
                    ExperimentConfig.from_dict({**preset, "filter": filt, "ensemble_size": size})
                except ValueError as exc:
                    assert "needs a linear Gaussian model" in str(exc)


@pytest.mark.parametrize(
    "config,filt,size",
    [({"model": "ou", "t_end": 0.5}, "enkf", 10**12),
     ({"model": "lorenz96", "filter": "letkf", "t_end": 0.1}, "letkf", 5000)],
)
def test_cli_refuses_an_ensemble_too_large_before_any_replicate(
    monkeypatch, tmp_path, config, filt, size
):
    def no_replicate(chunk):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_chunk_job", no_replicate)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        cli.main(["size-sweep", "--config", str(path), "--filters", filt, "--sizes", str(size)])
    assert re.fullmatch(
        f"{re.escape(str(path))}: ensemble_size {size} gives {filt} on '{config['model']}' a "
        f"per-step array of [0-9]+ bytes, above the ceiling of {harness.MAX_STEP_BYTES}",
        str(err.value),
    )


def test_an_empty_out_dir_is_refused_before_any_replicate(monkeypatch, tmp_path):
    # Path("") is the working directory: the API and the CLI refuse an empty
    # --out in one line, and nothing is run or written there.
    def no_replicate(*args):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_chunk_job", no_replicate)
    monkeypatch.setattr(harness, "_run_chunk", no_replicate)
    monkeypatch.chdir(tmp_path)
    message = "out_dir must be a nonempty path, got ''"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(out_dir="")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict({"model": "ou", "out_dir": ""})
    for argv in (["run", "--out", ""], ["sweep", "--out=", "--filters", "kf"],
                 ["size-sweep", "--out", "", "--config", "ou_desk"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert str(err.value).endswith(f": {message}")
        assert "\n" not in str(err.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sizes", ["2000000", "10,2000000"])
def test_a_chunk_counts_its_sampled_filters_members(monkeypatch, sizes):
    # Four filters of 2,000,000 OU members hold 320 MB per replicate, ten
    # times the chunk budget: the ou_desk size sweep runs each replicate as a
    # chunk of its own, also where a smaller size comes first.  The chunks
    # are recorded, not run.
    chunks = []

    def recorded(chunk):
        chunks.append(len(chunk))
        return [(None, None)] * (len(chunk) * len(chunk[0][0]))

    monkeypatch.setattr(harness, "_chunk_job", recorded)
    filters = "enkf,dsm_enkf,wolf_enkf,dsm_pf"
    cli.main(["size-sweep", "--config", "ou_desk", "--filters", filters, "--sizes", sizes])
    reps = PRESETS["ou_desk"]["mc_reps"]
    assert chunks == [1] * reps * len(sizes.split(","))
    config = ExperimentConfig.from_dict({**PRESETS["ou_desk"], "ensemble_size": 2_000_000})
    sampled = [replace(config, filter=f) for f in filters.split(",")]
    record_alone = [replace(config, filter="kf")] * len(sampled)
    assert harness._replicate_bytes(sampled) > harness._CHUNK_BYTES
    assert harness._CHUNK_BYTES > harness._replicate_bytes(record_alone)


def test_config_refuses_a_contamination_or_horizon_it_cannot_run(monkeypatch):
    for setting in (
        {"epsilon": 1.5}, {"epsilon": np.nan}, {"lam": 0.5}, {"lam": np.nan}, {"lam": np.inf},
    ):
        with pytest.raises(ValueError, match="epsilon|lambda"):
            ExperimentConfig(**setting)
    for t_end in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_end"):
            ExperimentConfig(t_end=t_end)
    # A horizon of more truth steps than the cap, 1e16 OU steps or so many
    # L96 steps that t_end / dt overflows, is refused; the cap itself is not.
    for model, t_end in (("ou", 1e15), ("lorenz96", 1e307), ("ou", 1e5 + 0.1)):
        with pytest.raises(ValueError, match="t_end"):
            ExperimentConfig(model=model, filter="enkf", t_end=t_end)
    assert ExperimentConfig(model="ou", t_end=1e5).horizon / 0.1 == harness.MAX_TRUTH_STEPS

    def no_replicate(chunk):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_chunk_job", no_replicate)
    with pytest.raises(ValueError, match="epsilon"):
        run_sweep(ExperimentConfig(t_end=1.0), [0.1, 1.5], [2.0])
    for sqrt_lambda in (-30.0, 0.5, -math.inf):
        with pytest.raises(ValueError, match=f"sqrt_lambda must be >= 1, got {sqrt_lambda}"):
            run_sweep(ExperimentConfig(t_end=1.0), [0.1], [sqrt_lambda, 2.0])
    with pytest.raises(ValueError, match="sqrt_lambda 1e"):  # 1e200 squares to inf
        run_sweep(ExperimentConfig(t_end=1.0), [0.1], [2.0, 1e200])


@pytest.mark.parametrize(
    "setting,flags",
    [
        ({"seed": -1}, []),
        ({"seed": -1}, ["--seed", "-1"]),
        ({"seed": 1.5}, []),
        ({"mc_reps": 2.5}, []),
        ({"mc_reps": True}, []),
        ({"ensemble_size": 4.5}, []),
        ({"threads": 1.0}, []),
        ({"threads": 0}, []),
        ({"threads": 0}, ["--threads", "0"]),
        ({"resample_threshold": 7.0}, []),
        ({"resample_threshold": -0.5}, []),
        ({"resample_threshold": math.nan}, []),
        ({"model": "ou", "t_end": 0.04}, []),
        ({"model": "lorenz63", "t_end": 0.01}, []),
        ({"model": "lorenz96", "t_end": 0.04}, []),
        ({"model": "ou", "t_end": 1e15}, []),
        # A float field took a bool as 0 or 1, and q_sq a string, which the
        # summary then echoed as a string.
        *(({name: True}, []) for name in (
            "q_sq", "c_sq", "epsilon", "lam", "rho", "taper_length", "resample_threshold", "t_end",
        )),
        ({"epsilon": False}, []),
        ({"q_sq": "1"}, []),
        ({"lam": "900"}, []),
    ],
    ids=lambda value: (
        " ".join(value) or "file" if isinstance(value, list)
        else ",".join(f"{k}={v}" for k, v in value.items())
    ),
)
def test_config_refuses_a_setting_no_run_can_use_before_any_replicate(
    setting, flags, monkeypatch, tmp_path
):
    # A negative or fractional seed, a fractional or boolean count, no
    # worker, a resampling threshold outside [0, 1] and a horizon with no
    # observation or too many truth steps are refused by the config, from a
    # file or a flag, so the CLI exits with one line naming the setting
    # before any replicate.
    base = {"model": "lorenz63", "filter": "dsm_pf", "t_end": 0.5, "mc_reps": 2}
    name = list(setting)[-1]  # the refused field
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(**{**base, **setting})

    def no_replicate(chunk):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_chunk_job", no_replicate)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, **(setting if not flags else {})}))
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--config", str(path), "--epsilon", "0.1", "--sqrt-lambda", "5",
                  *flags])
    assert str(err.value).startswith(f"{path}: ") and name in str(err.value)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("model,t_end", [("ou", 0.01), ("lorenz63", 0.04), ("lorenz96", 0.02)])
def test_build_setup_refuses_a_record_with_no_observation(model, t_end):
    with pytest.raises(ValueError, match="no observation"):
        build_setup(ExperimentConfig(model=model, filter="enkf", t_end=t_end), 0)


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_single_cell_matches_single_runs():
    cfg = ExperimentConfig(model="ou", filter="dsm_kf", t_end=3.0, mc_reps=4, seed=11)
    sweep = run_sweep(cfg, [0.2], [10.0], filters=["dsm_kf"])
    stats = sweep.cell("dsm_kf", 0, 0)
    assert stats.n_ok == 4 and stats.n_failed == 0
    assert stats.mean_rmse == pytest.approx(np.mean(stats.rmse_values), rel=1e-12)


def test_sweep_grid_bookkeeping_and_pairing():
    cfg = ExperimentConfig(model="ou", t_end=2.0, mc_reps=3, seed=13)
    sweep = run_sweep(cfg, [0.0, 0.25], [5.0, 20.0], filters=["kf", "dsm_kf"])
    assert len(sweep.cells) == 2 * 4
    for key, stats in sweep.cells.items():
        assert stats.n_ok + stats.n_failed == 3, key


def test_sweep_uncontaminated_kf_is_best():
    cfg = ExperimentConfig(model="ou", t_end=10.0, mc_reps=24, seed=17)
    sweep = run_sweep(cfg, [0.0], [27.5], filters=["kf", "dsm_kf", "wolf_kf"])
    kf = sweep.cell("kf", 0, 0)
    for other in ("dsm_kf", "wolf_kf"):
        stats = sweep.cell(other, 0, 0)
        se = np.hypot(kf.se_rmse, stats.se_rmse)
        assert kf.mean_rmse <= stats.mean_rmse + 3.0 * se


def test_sweep_rmse_monotone_in_lambda():
    cfg = ExperimentConfig(model="ou", t_end=10.0, mc_reps=24, seed=19)
    sweep = run_sweep(cfg, [0.25], [2.5, 27.5], filters=["kf"])
    low = sweep.cell("kf", 0, 0)
    high = sweep.cell("kf", 0, 1)
    se = np.hypot(low.se_rmse, high.se_rmse)
    assert high.mean_rmse >= low.mean_rmse - 2.0 * se


def test_sweep_thread_count_invariance(tmp_path):
    # Closed-form OU, and L63 with every ensemble and particle filter
    # lock-stepped in each replicate: the same files for one worker or two.
    cases = [
        (dict(model="ou", t_end=2.0, mc_reps=4, seed=23), ["kf", "dsm_kf"]),
        (dict(model="lorenz63", filter="enkf", t_end=0.5, mc_reps=3, seed=23),
         list(_ENSEMBLE_AND_PF)),
    ]
    for case, (base, filters) in enumerate(cases):
        serial, parallel = (
            run_sweep(
                ExperimentConfig(threads=threads, out_dir=str(tmp_path / f"{case}-{threads}"),
                                 **base),
                [0.1], [10.0], filters=filters,
            )
            for threads in (1, 2)
        )
        for key in serial.cells:
            assert serial.cells[key].rmse_values == parallel.cells[key].rmse_values
        for name in ("sweep_cells.csv", "sweep_replicates.csv"):
            assert (tmp_path / f"{case}-1" / name).read_bytes() == (
                tmp_path / f"{case}-2" / name
            ).read_bytes()


@pytest.mark.parametrize(
    "base,filters",
    [
        (dict(model="tracking2d", t_end=2.0, mc_reps=4, seed=41), ["kf", "dsm_kf", "wolf_kf"]),
        (dict(model="ou", t_end=2.0, mc_reps=4, seed=43, ensemble_size=10),
         ["kf", "dsm_kf", "wolf_kf", "enkf", "dsm_esrf", "dsm_letkf", "dsm_pf"]),
        (dict(model="lorenz63", filter="enkf", t_end=1.0, mc_reps=4, seed=47, ensemble_size=10),
         ["enkf", "dsm_esrf", "dsm_pf"]),
    ],
    ids=["tracking-closed-form", "ou-mixed", "lorenz63"],
)
def test_sweep_files_do_not_depend_on_the_chunk_size(base, filters, tmp_path, monkeypatch):
    # A sweep job is a chunk of replicates whose filters run stacked; the
    # files are the same for chunks of 1, 3 and every replicate of the 2
    # cells' 8 jobs, with one worker or two.  The Lorenz-63 sampler rebuilds
    # its buffer whenever a chunk brings another column count.
    config = ExperimentConfig(**base)
    configs = tuple(replace(config, filter=f) for f in filters)
    per_replicate = harness._replicate_bytes(configs)
    jobs = [(configs, (0, 0, r)) for r in range(8)]
    files = {}
    for chunk, sizes in ((1, [1] * 8), (3, [3, 3, 2]), (10**6, [8])):
        monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk * per_replicate)
        assert [len(c) for c in harness._chunks(jobs, 1)] == sizes
        for threads in (1, 2):
            out = tmp_path / f"{chunk}-{threads}"
            run_sweep(replace(config, threads=threads, out_dir=str(out)), [0.0, 0.25], [25.0],
                      filters=filters)
            files[chunk, threads] = [
                (out / name).read_bytes() for name in ("sweep_cells.csv", "sweep_replicates.csv")
            ]
    assert all(got == files[1, 1] for got in files.values())


def test_a_sweep_starts_no_more_workers_than_cores(monkeypatch):
    # --threads 64 on two cores asks the pool for at most two workers, and
    # the sweep is the single-worker one.  The pool is replaced by one that
    # runs its chunks here, so no process starts.
    import concurrent.futures

    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    config = ExperimentConfig(model="tracking2d", t_end=1.0, mc_reps=5, seed=7)
    filters = ["kf", "dsm_kf", "wolf_kf"]
    alone = run_sweep(config, [0.0, 0.2], [10.0], filters=filters)
    wide = run_sweep(replace(config, threads=64), [0.0, 0.2], [10.0], filters=filters)
    assert requested and all(workers <= 2 for workers in requested)
    assert wide == alone


@pytest.mark.parametrize(
    "model,filters",
    [("tracking2d", ("kf", "dsm_kf", "wolf_kf")), ("ou", ("kf", "dsm_kf", "wolf_kf", "dsm_enkf")),
     ("lorenz63", ("enkf", "dsm_enkf", "wolf_enkf", "esrf", "dsm_esrf", "dsm_pf")),
     ("lorenz96", ("letkf", "dsm_letkf", "wolf_letkf"))],
)
@pytest.mark.parametrize("value", [np.nan, 1e300])
def test_a_replicate_that_diverges_leaves_the_rest_of_its_chunk_as_run_alone(
    model, filters, value
):
    # One replicate of a chunk gets a NaN observation at step 5, which the
    # robust filters' gain brackets cannot factorize with any jitter, or one
    # at 1e300.  Its filters diverge where each one run alone diverges, and
    # every other replicate is its chunk-of-one run bit for bit.
    base = ExperimentConfig(model=model, filter=filters[0], t_end=2.0, seed=5, epsilon=0.1,
                            lam=100.0, ensemble_size=10)
    configs = [replace(base, filter=f) for f in filters]
    setups = [build_setup(base, np.random.SeedSequence((5, rep))) for rep in range(4)]
    setups[2].record.observations[0, 5] = value

    def rngs(rep):
        return [np.random.default_rng((rep, i)) for i in range(len(filters))]

    slices = [s for rep, setup in enumerate(setups)
              for s in harness._slices(setup, configs, rngs(rep))]
    runs = harness._filter_loop(slices, setups[0])
    for rep, setup in enumerate(setups):
        alone = run_filters(setup, configs, rngs(rep))
        for i, (config, reference) in enumerate(zip(configs, alone)):
            run = runs[rep * len(filters) + i]
            if rep == 2:
                oracle = run_filter_alone(setup, config, rngs(rep)[i])
                assert run.divergence_step == oracle.divergence_step, config.filter
                reference = oracle
            else:
                assert run.divergence_step is None
            for got, expected in ((run.means, reference.means),
                                  (run.covariances, reference.covariances),
                                  (run.weights, reference.weights)):
                np.testing.assert_array_equal(got, expected)
    if np.isnan(value):
        assert all(runs[2 * len(filters) + i].divergence_step == 5 for i in range(len(filters)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from(["ou", "tracking2d"]),
    reps=st.integers(1, 3),
    filters=st.lists(st.sampled_from(FILTERS), min_size=1, max_size=len(FILTERS), unique=True),
    ensemble_size=st.integers(2, 12),
    t_end=st.sampled_from([0.2, 0.5, 1.0]),
    epsilon=st.sampled_from([0.0, 0.2]),
    value=st.sampled_from([np.nan, 1e300, -1e300]),
    data=st.data(),
)
def test_every_run_of_a_chunk_with_a_poisoned_observation_is_its_run_alone(
    model, reps, filters, ensemble_size, t_end, epsilon, value, data
):
    # A chunk of 1-3 replicates of a random filter set gets a NaN or a huge
    # observation at a random step and coordinate of a random replicate.
    # Every run of the chunk is its filter run alone bit for bit, its
    # divergence step included.
    base = ExperimentConfig(model=model, filter=filters[0], t_end=t_end, seed=9, epsilon=epsilon,
                            lam=100.0, ensemble_size=ensemble_size)
    configs = [replace(base, filter=f) for f in filters]
    seeds = [np.random.SeedSequence((9, rep)) for rep in range(reps)]
    setups = harness.build_setups([base] * reps, seeds)
    ys = setups[data.draw(st.integers(0, reps - 1), label="replicate")].record.observations
    row = data.draw(st.integers(0, ys.shape[0] - 1), label="coordinate")
    ys[row, data.draw(st.integers(0, ys.shape[1] - 1), label="step")] = value

    def rngs(rep):
        return [np.random.default_rng((rep, i)) for i in range(len(filters))]

    slices = [s for rep, setup in enumerate(setups)
              for s in harness._slices(setup, configs, rngs(rep))]
    runs = iter(harness._filter_loop(slices, setups[0]))
    for rep, setup in enumerate(setups):
        for config, rng in zip(configs, rngs(rep)):
            run, alone = next(runs), run_filter_alone(setup, config, rng)
            assert run.divergence_step == alone.divergence_step, config.filter
            for got, expected in ((run.means, alone.means), (run.covariances, alone.covariances),
                                  (run.weights, alone.weights)):
                np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize(
    "model,filters,nan_step,calls",
    [
        ("tracking2d", ("kf", "dsm_kf", "wolf_kf"), None, 0),
        ("lorenz63", ("enkf", "dsm_pf"), None, "n_obs"),
        # The particle filter raises on the NaN observation at step 5.
        ("ou", ("dsm_pf",), 5, 6),
        # The ensemble filters record NaN moments at step 5 without raising
        # and leave the stack at that step, as the particle filter does.
        ("ou", ("enkf", "esrf", "letkf", "dsm_pf"), 5, 6),
    ],
)
def test_the_chunk_forecasts_once_per_step_while_a_sampled_filter_runs(
    model, filters, nan_step, calls, monkeypatch
):
    # A chunk of two replicates calls ensemble_forecast once per observation
    # while any of its ensemble or particle filters runs, and never for
    # closed-form filters alone.
    blocks, forecast, build = [], harness.ensemble_forecast, harness.build_setups

    def build_with_nan(configs, seeds):
        setups = build(configs, seeds)
        for setup in setups if nan_step is not None else ():
            setup.record.observations[:, nan_step] = np.nan
        return setups

    def counted(sampler, members, rngs):
        blocks.append(len(members))
        return forecast(sampler, members, rngs)

    monkeypatch.setattr(harness, "build_setups", build_with_nan)
    monkeypatch.setattr(harness, "ensemble_forecast", counted)
    base = ExperimentConfig(model=model, filter=filters[0], t_end=2.0, seed=3, epsilon=0.1,
                            lam=100.0)
    configs = tuple(replace(base, filter=f) for f in filters)
    setups, runs, _ = harness._run_chunk([(configs, (0, 0, rep)) for rep in range(2)])
    if calls == "n_obs":
        calls = setups[0].record.n_obs
    assert len(blocks) == calls
    full = calls if nan_step is None else nan_step + 1  # forecasts of every filter's block
    assert blocks[:full] == [2 * len(filters)] * full
    if nan_step is not None:
        assert all(run.divergence_step == nan_step for run in runs)


def test_a_sweep_builds_each_cell_and_filter_config_once(monkeypatch):
    # The 2 x 3 run configs of the 2 cells are built, and so validated, once
    # each, not again for each of the 4 replicates; no cell config is built
    # under the base config's filter and thrown away.
    config = ExperimentConfig(model="tracking2d", filter="kf", t_end=1.0, seed=5, mc_reps=4)
    built, post_init = [], ExperimentConfig.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    run_sweep(config, [0.0, 0.2], [10.0], filters=["kf", "dsm_kf", "wolf_kf"])
    assert len(built) == 6


def test_a_size_sweep_checks_its_sizes_against_the_filters_it_runs_only():
    # The cell config built under the base config's filter refused size 1
    # for an enkf base, though only kf runs and kf takes no ensemble.
    config = ExperimentConfig(model="ou", filter="enkf", t_end=0.5, mc_reps=2)
    result = run_ensemble_size_sweep(config, [1], ["kf"])
    assert result.axes == {"ensemble_size": [1]} and result.cells[("kf", 0, 0)].n_ok == 2


def test_a_stack_whose_finite_moments_sum_past_the_largest_double_keeps_every_element():
    # Two kf replicates follow observations of 1e308: every recorded mean is
    # finite, but at every step the stack's moments sum to inf, so each step
    # tests its elements one by one, and both stay in the stack, each its
    # run alone bit for bit.
    config = ExperimentConfig(model="tracking2d", filter="kf", t_end=1.0, seed=5)
    setups = [build_setup(config, np.random.SeedSequence((5, rep))) for rep in range(2)]
    for setup in setups:
        setup.record.observations[...] = 1e308
    slices = [s for rep, setup in enumerate(setups)
              for s in harness._slices(setup, [config], [np.random.default_rng(rep)])]
    runs = harness._filter_loop(slices, setups[0])
    with np.errstate(over="ignore"):
        sums = [sum(float(run.means[k].sum()) + float(run.covariances[k].sum()) for run in runs)
                for k in range(runs[0].means.shape[0])]
    assert all(map(math.isinf, sums))
    for rep, (setup, run) in enumerate(zip(setups, runs)):
        alone = run_filter_alone(setup, config, np.random.default_rng(rep))
        assert run.divergence_step is None and alone.divergence_step is None
        assert np.isfinite(run.means).all()
        for got, expected in ((run.means, alone.means), (run.covariances, alone.covariances),
                              (run.weights, alone.weights)):
            np.testing.assert_array_equal(got, expected)


def test_a_closed_form_step_factors_the_dsm_rows_and_the_gain_brackets_once_each(monkeypatch):
    # Per observation the kf / dsm_kf / wolf_kf stack makes two Cholesky
    # calls: HPH^T + R of the marginal dsm_kf rows, and the gain brackets of
    # every row.  The wolf_kf rows standardize by R, whose factor is reused.
    filters = ("kf", "dsm_kf", "wolf_kf")
    base = ExperimentConfig(model="tracking2d", filter="kf", t_end=1.0, seed=5, epsilon=0.2,
                            lam=100.0)
    configs = [replace(base, filter=f) for f in filters]
    setups = [build_setup(base, np.random.SeedSequence((5, rep))) for rep in range(3)]
    slices = [s for rep, setup in enumerate(setups) for s in harness._slices(
        setup, configs, [np.random.default_rng((rep, i)) for i in range(len(filters))]
    )]
    stack = harness._ClosedFormStack(slices, list(range(len(slices))))
    stack.model.observation.r_factor  # factored once, on first use
    n_obs, d = slices[0].ys.shape[1], setups[0].init_mean.shape[0]
    record = (np.zeros((len(slices), n_obs, d)), np.zeros((len(slices), n_obs, d, d)),
              np.zeros((len(slices), n_obs)))
    shapes, cholesky = [], np.linalg.cholesky

    def counted(a):
        shapes.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    for k in range(n_obs):
        shapes.clear()
        stack.step(k, iter(()), *record)
        assert shapes == [(3, 2, 2), (9, 1, 2, 2)], k


# numpy's Python-level wrappers of its reductions and function forms
# (``ndarray.mean``/``sum``/``min``/``all``, ``np.sum``/``np.all``/
# ``np.swapaxes``/...), each a few microseconds per call in the loop.
_NUMPY_WRAPPERS = tuple(
    os.path.join("numpy", "_core", name) for name in ("_methods.py", "fromnumeric.py")
)


def _profiled(fn, counts: Counter):
    """``fn``, counting into ``counts`` by (caller, wrapper) the entries into
    numpy's wrappers made directly from robust_da code while it runs."""
    package = os.path.dirname(robust_da.__file__) + os.sep

    def count(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.endswith(_NUMPY_WRAPPERS):
            caller = frame.f_back.f_code
            if caller.co_filename.startswith(package):
                counts[caller.co_name, frame.f_code.co_name] += 1

    def profiled(*args, **kwargs):
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setprofile(previous)

    return profiled


def _wrapper_entries(jobs, monkeypatch) -> Counter:
    """The entries into numpy's wrappers made directly from robust_da code
    inside ``_filter_loop`` while ``_run_chunk`` runs the jobs, counted by
    (caller, wrapper)."""
    counts = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_filter_loop", _profiled(harness._filter_loop, counts))
        harness._run_chunk(jobs)
    # Generator.choice calls np.prod; compiled frames do not show, so the
    # call (and its dispatcher's) is attributed to pf_step.
    del counts["pf_step", "prod"], counts["pf_step", "_prod_dispatcher"]
    return counts


@pytest.mark.parametrize(
    "model,filters",
    [
        ("lorenz63", ("enkf", "dsm_enkf", "wolf_enkf", "esrf", "dsm_esrf", "dsm_pf")),
        ("lorenz96", ("letkf", "dsm_letkf", "wolf_letkf")),
        ("ou", ("kf", "dsm_kf", "wolf_kf", "enkf", "esrf", "letkf", "dsm_pf")),
        ("tracking2d", ("kf", "dsm_kf", "wolf_kf")),
    ],
)
def test_the_per_step_path_calls_no_numpy_python_wrapper(model, filters, monkeypatch):
    # Per step, robust_da calls the ufunc or C method that numpy's Python
    # wrapper would call; only per-run and per-build calls may enter a
    # wrapper, so twice the steps make no more entries.
    counts = []
    for t_end in (1.0, 2.0):
        base = ExperimentConfig(model=model, filter=filters[0], t_end=t_end, seed=1,
                                epsilon=0.25, lam=625.0)
        configs = tuple(replace(base, filter=f) for f in filters)
        counts.append(_wrapper_entries([(configs, ())], monkeypatch))
    grown = counts[1] - counts[0]
    assert not grown, f"wrapper entries that grow with the steps: {dict(grown)}"


@pytest.mark.parametrize("simulate", [models.simulate_lorenz63, models.simulate_lorenz96])
def test_the_truth_simulators_call_no_numpy_python_wrapper_per_step(simulate):
    # As in the filter loop: only per-run calls may enter a wrapper, so
    # twice the steps make no more entries.
    counts = []
    for t_end in (1.0, 2.0):
        counts.append(Counter())
        _profiled(simulate, counts[-1])(t_end=t_end, seed=1)
    grown = counts[1] - counts[0]
    assert not grown, f"wrapper entries that grow with the steps: {dict(grown)}"


@pytest.mark.parametrize("model", ["tracking2d", "lorenz96"])
def test_stacked_scoring_is_each_run_scored_alone_bit_for_bit(model):
    # A chunk's runs are scored in one pass, and each run's report is its own
    # MetricReport.evaluate bit for bit, with a step whose covariance needs
    # jitter, a collapsed step, a residual whose square overflows and a
    # diverged run in the chunk (L96 scores the diagonalized q-IC).
    base = ExperimentConfig(model=model, filter="kf" if model == "tracking2d" else "letkf",
                            t_end=1.0, seed=3, epsilon=0.2, lam=100.0)
    setups = harness.build_setups([base] * 3, [np.random.SeedSequence((3, r)) for r in range(3)])
    rng = np.random.default_rng(0)
    runs, run_setups = [], []
    for setup in setups:
        truth = setup.record.states_at_obs().T
        n, d = truth.shape
        for _ in range(2):
            covs = np.stack([random_spd(rng, d, scale=0.1) for _ in range(n)])
            means = truth + rng.standard_normal((n, d))
            runs.append(harness.FilterRun(means, covs, np.full(n, np.nan)))
            run_setups.append(setup)
    runs[1].covariances[3] = np.ones((d, d))  # the jitter repairs it
    runs[3].covariances[2] = 0.0  # collapsed: no density on the truth
    runs[2].means[5, 0] = 1e200  # its squared error overflows
    runs[4].means[4:] = runs[4].covariances[4:] = np.nan
    runs[4].divergence_step = 4
    reports = harness._evaluate_runs(run_setups, runs)
    assert [report is None for report in reports] == [i == 4 for i in range(6)]
    for setup, run, report in zip(run_setups, runs, reports):
        if report is None:
            continue
        alone = MetricReport.evaluate(setup.record.states_at_obs().T, run.means,
                                      run.covariances, diagonalize=setup.diagonalize_qic)
        assert [float.hex(v) for v in (report.rmse, report.q_ic, report.ci_coverage_95)] == [
            float.hex(v) for v in (alone.rmse, alone.q_ic, alone.ci_coverage_95)
        ]
    assert reports[2].rmse > 1e198


def test_replicate_file_numbers_each_value_by_its_replicate(tmp_path):
    # The plain ESRF diverges in replicates 0, 3 and 5 of this cell; each
    # value that ran keeps its replicate's number, and a replicate's value
    # does not depend on how many replicates the sweep runs.
    cfg = ExperimentConfig(model="ou", filter="esrf", t_end=2.0, seed=5, mc_reps=8,
                           out_dir=str(tmp_path))
    run_sweep(cfg, [0.03], [1e150], filters=["esrf"])
    rows = [line.split(",") for line in
            (tmp_path / "sweep_replicates.csv").read_text().strip().splitlines()[1:]]
    assert [int(row[2]) for row in rows] == [1, 2, 4, 6, 7]
    two = run_sweep(replace(cfg, mc_reps=2, out_dir=None), [0.03], [1e150], filters=["esrf"])
    assert two.cell("esrf", 0, 0).replicates == [1]
    assert float(rows[0][3]) == two.cell("esrf", 0, 0).rmse_values[0]


def test_sweep_aggregation_matches_replicate_file(tmp_path):
    cfg = ExperimentConfig(
        model="ou", t_end=2.0, mc_reps=5, seed=29, out_dir=str(tmp_path)
    )
    sweep = run_sweep(cfg, [0.2], [10.0], filters=["dsm_kf"])
    lines = (tmp_path / "sweep_replicates.csv").read_text().strip().splitlines()[1:]
    values = [float(line.split(",")[3]) for line in lines]
    assert np.mean(values) == pytest.approx(sweep.cell("dsm_kf", 0, 0).mean_rmse, rel=1e-12)


def test_size_sweep_single_size_reduces_to_sweep():
    cfg = ExperimentConfig(
        model="ou", filter="enkf", t_end=2.0, mc_reps=3, seed=31, epsilon=0.1, lam=25.0,
    )
    size_sweep = run_ensemble_size_sweep(cfg, [10])
    grid = run_sweep(
        ExperimentConfig(
            model="ou", filter="enkf", t_end=2.0, mc_reps=3, seed=31,
            epsilon=0.1, lam=25.0, ensemble_size=10,
        ),
        [0.1], [5.0], filters=["enkf"],
    )
    assert size_sweep.cell("enkf", 0).n_ok == 3
    # Same trajectories, same filter seeds: identical replicate metrics.
    assert size_sweep.cell("enkf", 0).rmse_values == grid.cell("enkf", 0, 0).rmse_values


def test_size_sweep_rmse_trend(tmp_path):
    cfg = ExperimentConfig(
        model="ou", filter="enkf", t_end=10.0, mc_reps=12, seed=37, out_dir=str(tmp_path)
    )
    sweep = run_ensemble_size_sweep(cfg, [4, 16, 64])
    means = [sweep.cell("enkf", i).mean_rmse for i in range(3)]
    assert means[2] < means[0]
    lines = (tmp_path / "size_sweep_cells.csv").read_text().splitlines()
    assert lines[0] == ("filter,ensemble_size,n_ok,n_failed,mean_rmse,se_rmse,mean_q_ic,"
                        "se_q_ic,mc_rate_ref")
    assert [line.split(",")[1] for line in lines[1:]] == ["4", "16", "64"]
    # Replicate rows go by cell index: a sort of the cell labels as strings
    # wrote 10/0 between 1/0 and 2/0.
    out = tmp_path / "eleven"
    run_ensemble_size_sweep(replace(cfg, t_end=1.0, mc_reps=2, out_dir=str(out)), range(2, 13))
    lines = (out / "size_sweep_replicates.csv").read_text().splitlines()
    assert lines[0] == "filter,cell,replicate,rmse,q_ic"
    assert [line.split(",")[1:3] for line in lines[1:]] == [
        [f"{i}/0", str(rep)] for i in range(11) for rep in range(2)
    ]


def test_size_sweep_requires_increasing_sizes():
    cfg = ExperimentConfig(model="ou", filter="enkf")
    with pytest.raises(ValueError):
        run_ensemble_size_sweep(cfg, [10, 10])


# ---------------------------------------------------------------------------
# Result files

_EDGE_FLOATS = [0.1, 1e16, 5e-324, -0.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308]


def _read_columns(path, names):
    """Floats parsed back from the named columns of a CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [float(row[name]) for row in rows] for name in names}


def _same_bits(values, expected):
    return np.array(values, dtype=float).tobytes() == np.array(expected, dtype=float).tobytes()


def test_every_csv_file_reads_back_bit_exactly(tmp_path):
    edge = np.array(_EDGE_FLOATS)
    n = edge.size
    states = np.stack([edge, edge[::-1]])
    record = TrajectoryRecord(edge, states, states, np.arange(n), np.arange(n) % 2 == 1)
    record.write_states_csv(tmp_path / "states.csv")
    record.write_observations_csv(tmp_path / "obs.csv")
    for name in ("states", "obs"):
        prefix = "state" if name == "states" else "y"
        cols = _read_columns(tmp_path / f"{name}.csv", ["time", f"{prefix}_0", f"{prefix}_1"])
        assert _same_bits(cols["time"], edge)
        assert _same_bits(cols[f"{prefix}_0"], edge) and _same_bits(cols[f"{prefix}_1"], edge[::-1])

    covs = np.zeros((n, 2, 2))
    covs[:, 0, 0], covs[:, 1, 1] = edge, edge[::-1]
    run = harness.FilterRun(means=states.T.copy(), covariances=covs, weights=edge)
    setup = harness.ModelSetup(record, None, None, None, None, None, False)
    paths = harness._write_run_artifacts(ExperimentConfig(out_dir=str(tmp_path)), setup, run, {})
    names = ["time", "weight_sq", "truth_0", "truth_1", "mean_0", "mean_1", "var_0", "var_1"]
    cols = _read_columns(paths["steps"], names)
    for name in names:
        assert _same_bits(cols[name], edge[::-1] if name.endswith("_1") else edge), name

    values = edge.tolist()
    stats = ["mean_rmse", "se_rmse", "mean_q_ic", "se_q_ic"]
    for kind, axes, key in (
        ("contamination", {"epsilon": [0.1], "sqrt_lambda": values}, lambda j: (0, j)),
        ("ensemble_size", {"ensemble_size": list(range(2, n + 2))}, lambda j: (j, 0)),
    ):
        cells = {
            ("kf", *key(j)): harness.CellStats(1, 0, v, v, v, v, [v], [v], [0])
            for j, v in enumerate(values)
        }
        sweep = harness.SweepResult(axes, ["kf"], 1, cells)
        sweep.write_csv(tmp_path / f"{kind}_cells.csv")
        sweep.write_replicates_csv(tmp_path / f"{kind}_replicates.csv")
        cols = _read_columns(tmp_path / f"{kind}_cells.csv", stats)
        assert all(_same_bits(cols[name], values) for name in stats), kind
        cols = _read_columns(tmp_path / f"{kind}_replicates.csv", ["rmse", "q_ic"])
        assert _same_bits(cols["rmse"], values) and _same_bits(cols["q_ic"], values), kind
    cols = _read_columns(tmp_path / "contamination_cells.csv", ["sqrt_lambda"])
    assert _same_bits(cols["sqrt_lambda"], values)


def test_csv_lines_are_the_csv_modules_bytes(tmp_path):
    # The writer joins the fields itself: for ints, Python floats and
    # identifiers it writes what csv.writer writes, and it refuses a field
    # that csv.writer would quote.
    header = ["filter", "cell", "replicate", "value"]
    rows = [["dsm_kf", f"{i}/{i % 2}", i, x] for i, x in enumerate(_EDGE_FLOATS)]
    rows += [["wolf_kf", "0/1", n, float(n)] for n in (0, -1, 2**70, -(2**63))]
    models._write_csv(tmp_path / "joined.csv", header, iter(rows))
    with open(tmp_path / "module.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "module.csv").read_bytes()
    for field in ("a,b", 'a"b', "a\nb", "a\rb"):
        with pytest.raises(ValueError, match="needs quoting"):
            models._write_csv(tmp_path / "refused.csv", header, [["kf", field, 0, 0.1]])
        with pytest.raises(ValueError, match="needs quoting"):
            models._write_csv(tmp_path / "refused.csv", [*header[:3], field], [])


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_deterministic(tmp_path, capsys):
    args = ["run", "--config", "ou_desk", "--filter", "dsm_kf", "--seed", "7",
            "--out", str(tmp_path / "x")]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["divergence_step"] is None


def test_cli_sweep_bookkeeping(tmp_path, capsys):
    config = {"model": "ou", "t_end": 2.0, "mc_reps": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = cli.main([
        "sweep", "--config", str(path), "--seed", "3", "--out", str(tmp_path),
        "--epsilon", "0,0.25", "--sqrt-lambda", "5,27.5", "--filters", "kf,dsm_kf,wolf_kf",
        "--threads", "1",
    ])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["cells"] == 12
    assert out["replicates_per_cell"] == 3
    assert out["failed_replicates"] == 0
    lines = (tmp_path / "sweep_cells.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 12
    assert lines[0] == ("filter,epsilon,sqrt_lambda,n_ok,n_failed,mean_rmse,se_rmse,mean_q_ic,"
                        "se_q_ic")
    # Filters as given, cells row-major.
    assert [line.split(",")[:3] for line in lines[1:]] == [
        [filt, eps, sql] for filt in ("kf", "dsm_kf", "wolf_kf")
        for eps in ("0.0", "0.25") for sql in ("5.0", "27.5")
    ]
    lines = (tmp_path / "sweep_replicates.csv").read_text().strip().splitlines()
    assert lines[0] == "filter,cell,replicate,rmse,q_ic"
    # Filters by name, cells by index.
    assert [line.split(",")[:3] for line in lines[1:]] == [
        [filt, f"{i}/{j}", str(rep)] for filt in ("dsm_kf", "kf", "wolf_kf")
        for i in range(2) for j in range(2) for rep in range(3)
    ]


def test_cli_size_sweep_prints_the_keys_of_the_sweep(tmp_path, capsys):
    # size-sweep printed no replicates_per_cell.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "ou", "t_end": 2.0, "mc_reps": 3}))
    rc = cli.main(["size-sweep", "--config", str(path), "--filters", "enkf", "--sizes", "5,10"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "cells": 2, "replicates_per_cell": 3, "failed_replicates": 0,
    }


def test_cli_tune_reports_scalar_threshold(capsys):
    assert cli.main(["tune", "--dy", "1", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"] == pytest.approx(0.375, abs=0.02)
    assert payload["expected_weight"] == pytest.approx(1.0, abs=6e-3)


def test_cli_rejects_unknown_config(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["run", "--config", str(tmp_path / "missing.json")])
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": \"ou\",}")
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--config", str(bad)])
    assert "invalid JSON" in str(err.value)


@pytest.mark.parametrize(
    "content,message",
    [
        # null and 42 raised TypeError tracebacks; a string or list was read
        # as its characters or items, "unknown config fields: ['a', 'b', 'c']".
        ("null", "config must be a mapping of fields, got NoneType"),
        ("42", "config must be a mapping of fields, got int"),
        ('"abc"', "config must be a mapping of fields, got str"),
        ("[1, 2]", "config must be a mapping of fields, got list"),
        # A directory raised IsADirectoryError, bytes that are not text
        # UnicodeDecodeError.
        (None, "cannot read config: [Errno 21] Is a directory"),
        (b"\xff\xfe{", "cannot read config: 'utf-8' codec can't decode"),
    ],
    ids=["null", "number", "string", "list", "directory", "undecodable"],
)
def test_cli_refuses_a_config_file_that_holds_no_json_object_in_one_line(
    tmp_path, content, message
):
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(json.loads(content))
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--config", str(path)])
    assert str(err.value).startswith(f"{path}: {message}") and "\n" not in str(err.value)


def test_cli_refuses_a_filter_the_model_cannot_run():
    for args in (
        ["run", "--config", "lorenz63_desk", "--filter", "kf"],
        ["sweep", "--config", "lorenz63_desk", "--filters", "dsm_enkf,kf"],
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(args)
        assert str(err.value) == (
            "lorenz63_desk: filter 'kf' needs a linear Gaussian model, got 'lorenz63'"
        )


@pytest.mark.parametrize(
    "grid,message",
    [
        (["--epsilon", "1.5", "--sqrt-lambda", "2"], "ou_desk: epsilon must lie in [0, 1]"),
        (["--epsilon", "0.1", "--sqrt-lambda", "nan"], "ou_desk: lambda must be >= 1"),
        (["--epsilon", "0.1", "--sqrt-lambda=-30"], "ou_desk: sqrt_lambda must be >= 1, got -30.0"),
        (["--epsilon", "0.1", "--sqrt-lambda", "0.5,1"],
         "ou_desk: sqrt_lambda must be >= 1, got 0.5"),
    ],
)
def test_cli_sweep_refuses_a_bad_grid_value_in_one_line(grid, message):
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--config", "ou_desk", "--filters", "kf", *grid])
    assert str(err.value) == message


@pytest.mark.parametrize(
    "args,message",
    [
        (["sweep", "--epsilon", "0,x"], "--epsilon: expected comma-separated float values, got '0,x'"),
        (["sweep", "--epsilon", ""], "--epsilon: expected comma-separated float values, got ''"),
        (["sweep", "--epsilon", "0.25,0.1"], "--epsilon: values must be strictly increasing, got '0.25,0.1'"),
        (["sweep", "--sqrt-lambda", "5,"], "--sqrt-lambda: expected comma-separated float values, got '5,'"),
        (["sweep", "--sqrt-lambda", "5,5"], "--sqrt-lambda: values must be strictly increasing, got '5,5'"),
        (["size-sweep", "--sizes", ""], "--sizes: expected comma-separated int values, got ''"),
        (["size-sweep", "--sizes", "5,7.5"], "--sizes: expected comma-separated int values, got '5,7.5'"),
        (["size-sweep", "--sizes", "10,5"], "--sizes: values must be strictly increasing, got '10,5'"),
        (["sweep", "--filters", "kf,dsm_kf,kf"], "ou_desk: filter 'kf' is listed more than once"),
        (["size-sweep", "--filters", "enkf,enkf"], "ou_desk: filter 'enkf' is listed more than once"),
        (["sweep", "--filters", " , "], "ou_desk: filters must be nonempty"),
        (["sweep", "--sqrt-lambda", "1e200"],
         "ou_desk: sqrt_lambda 1e+200 squares to an infinite lambda"),
    ],
)
def test_cli_refuses_a_bad_grid_list_in_one_line_before_any_replicate(monkeypatch, args, message):
    def no_replicate(chunk):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_chunk_job", no_replicate)
    with pytest.raises(SystemExit) as err:
        # The case's own flags come last, so its --filters replaces the default.
        cli.main([args[0], "--config", "ou_desk", "--filters", "kf", *args[1:]])
    assert str(err.value) == message


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--filters", "kf", "--epsilon", "0", "--sqrt-lambda", "5"],
        ["size-sweep", "--filters", "enkf", "--sizes", "5"],
        ["run", "--filter", "kf"],
    ],
    ids=lambda args: args[0],
)
def test_cli_refuses_an_out_path_it_cannot_make_before_any_replicate(monkeypatch, tmp_path, args):
    # The out directory was made after the last replicate: the sweep ran
    # every replicate and the run its whole filter, then raised
    # FileExistsError.
    def no_replicate(chunk):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_chunk_job", no_replicate)
    monkeypatch.setattr(harness, "_run_chunk", no_replicate)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    with pytest.raises(SystemExit) as err:
        cli.main([args[0], "--config", "ou_desk", "--out", str(taken), *args[1:]])
    assert str(err.value) == f"ou_desk: [Errno 17] File exists: {str(taken)!r}"
    assert taken.read_text() == "kept"


def test_the_cli_imports_no_private_name_of_the_package():
    # The CLI parses its flags and leaves every rule to the harness, so it
    # needs nothing the harness keeps to itself.
    private = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("robust_da")):
            path = (node.module or "").split(".")
            private += [f"{node.module}.{alias.name}" for alias in node.names
                        if any(part.startswith("_") for part in [*path, alias.name])]
    assert private == []


def test_cli_size_sweep_refuses_a_size_a_filter_cannot_run_in_one_line():
    with pytest.raises(SystemExit) as err:
        cli.main(["size-sweep", "--config", "ou_desk", "--filters", "kf,enkf", "--sizes", "1,5"])
    assert str(err.value) == (
        "ou_desk: ensemble_size must be >= 2 for ensemble and particle filters"
    )


def test_cli_size_sweep_refuses_a_size_by_the_listed_filter_not_the_configs(monkeypatch):
    # The lorenz96_desk base filter is dsm_letkf, whose windows 8,739
    # members overflow; the sweep runs dsm_enkf only, refused at that size
    # by the EnKF's own ceiling, and named so.
    def no_replicate(chunk):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_chunk_job", no_replicate)
    with pytest.raises(SystemExit) as err:
        cli.main(["size-sweep", "--config", "lorenz96_desk", "--filters", "dsm_enkf",
                  "--sizes", "8739"])
    assert re.fullmatch(
        f"lorenz96_desk: ensemble_size 8739 gives enkf on 'lorenz96' a per-step array of "
        f"[0-9]+ bytes, above the ceiling of {harness.MAX_STEP_BYTES}", str(err.value)
    )


def test_tune_refuses_a_dimension_too_large_for_a_float_before_sampling(monkeypatch):
    # --dy 10**330 ended in an OverflowError traceback from the chi-square
    # draw.  The API refuses it, and any d_Y not an integer >= 1, in one
    # ValueError, and the CLI in one line; nothing is sampled.
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    for d_y in (10**330, 0, True, 2.0, "3"):
        for call in (tune_threshold, lambda d: expected_weight_mc(d, 1.0)):
            with pytest.raises(ValueError, match=r"^d_y must be an integer from 1 to 4\.494e\+307, got"):
                call(d_y)
    with pytest.raises(SystemExit) as err:
        cli.main(["tune", "--dy", str(10**330)])
    assert str(err.value) == f"tune: d_y must be an integer from 1 to 4.494e+307, got {10**330}"


@pytest.mark.parametrize(
    "args,message",
    [
        (["tune", "--dy", "1", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        (["tune", "--dy", "0"], "--dy must be an integer >= 1, got 0"),
        (["verify", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    ],
)
def test_cli_tune_and_verify_refuse_a_bad_seed_or_dimension_in_one_line(
    monkeypatch, args, message
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "tune_threshold", no_sampling)
    monkeypatch.setattr(checks, "run_checks", no_sampling)
    with pytest.raises(SystemExit) as err:
        cli.main(args)
    assert str(err.value) == message


def test_cli_verify_passes(capsys):
    assert cli.main(["verify"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_config_file_roundtrip(tmp_path, capsys):
    config = {"model": "ou", "filter": "dsm_kf", "t_end": 2.0, "seed": 5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["model"] == "ou"
    assert payload["config"]["t_end"] == 2.0


def test_filter_list_is_complete():
    assert set(FILTERS) == {
        "kf", "dsm_kf", "wolf_kf", "enkf", "dsm_enkf", "wolf_enkf",
        "esrf", "dsm_esrf", "letkf", "dsm_letkf", "wolf_letkf", "dsm_pf",
    }


PUBLIC_NAMES = {
    "AnalysisResult", "ContaminationSpec", "EnsembleState", "ExperimentConfig", "GaussianBelief",
    "LetkfConfig", "LgssModel", "Localization", "MetricReport", "ObservationModel", "PRESETS",
    "ParticleCloud", "RunResult", "SpdFactor", "SweepResult", "TrajectoryRecord",
    "WeightKernelSpec", "ci_coverage", "contaminate", "default_threshold", "dsm_analysis",
    "dsm_log_potential", "enkf_perturbed_analysis", "ensemble_forecast", "esrf_analysis",
    "eval_kernel", "expected_weight_mc", "jensen_bounds", "kf_analysis", "kf_forecast",
    "letkf_analysis", "pf_step", "psd_sym_sqrt", "q_ic", "q_log", "rmse",
    "run_ensemble_size_sweep", "run_single", "run_sweep", "simulate_lorenz63",
    "simulate_lorenz96", "simulate_ou", "simulate_target_tracking", "symmetrize",
    "tune_threshold", "wolf_analysis",
}


def test_the_package_exports_exactly_its_listed_public_names():
    # Submodules are left out: which of them are attributes depends on what
    # has been imported.  A fresh import adds the eight that the package
    # imports itself, 54 public names in all.
    exported = {
        name for name in dir(robust_da)
        if not name.startswith("_") and not inspect.ismodule(getattr(robust_da, name))
    }
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 46


def test_star_import_of_every_module_resolves_its_exports():
    """``import *`` fails on an ``__all__`` entry the module no longer defines."""
    modules = [info.name for info in pkgutil.iter_modules(robust_da.__path__)]
    assert len(modules) > 10
    for name in ["robust_da", *(f"robust_da.{m}" for m in modules)]:
        exec(f"from {name} import *", {})


def test_a_fresh_import_loads_neither_scipy_nor_the_process_pool():
    # The library runs on numpy alone, and only a run on two or more workers
    # needs the process pool; either import would double the cold start.
    code = (
        "import sys, robust_da, robust_da.cli; "
        "print(*(m for m in sys.modules if m.startswith(('scipy', 'multiprocessing', "
        "'concurrent'))))"
    )
    src = str(Path(robust_da.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == []
