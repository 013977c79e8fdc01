import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from robust_da import harness
from robust_da.harness import (
    FILTERS,
    PRESETS,
    ExperimentConfig,
    build_setup,
    resolve_threads,
    run_ensemble_size_sweep,
    run_single,
    run_sweep,
)
from robust_da import cli
from robust_da.ensemble import Localization
from robust_da.models import TrajectoryRecord


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


@pytest.mark.parametrize(
    "setting",
    [
        {"q_sq": -1.0}, {"c_sq": 0.0}, {"wolf_variant": "bogus"}, {"enkf_mode": "bogus"},
        {"kernel_family": "bogus"}, {"rho": 0.5}, {"half_width": -1}, {"taper_length": 0.0},
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


def test_resolve_threads_env(monkeypatch):
    monkeypatch.delenv("ROBUST_DA_THREADS", raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(4) == 4
    monkeypatch.setenv("ROBUST_DA_THREADS", "3")
    assert resolve_threads(None) == 3


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
        run = harness._run_filter(setup, cfg, np.random.default_rng(0))
        assert run.divergence_step == 3, value
        assert np.all(np.isfinite(run.means[:3])) and np.all(np.isnan(run.means[3:]))
        assert harness._evaluate_run(setup, run) is None


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
            run = harness._run_filter(setup, cfg, np.random.default_rng(0))
            assert run.divergence_step is None, (model, value)
            report = harness._evaluate_run(setup, run)
            assert np.isfinite([report.rmse, report.q_ic, report.ci_coverage_95]).all(), value


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kf_scores_a_huge_finite_observation_with_finite_metrics(tmp_path):
    # The plain filter follows a component at 1e200 without diverging; its
    # squared error overflows, yet the run is scored, and its summary is
    # valid JSON.
    cfg, setup = _setup_with_observation("kf", 1e200)
    run = harness._run_filter(setup, cfg, np.random.default_rng(0))
    assert run.divergence_step is None
    report = harness._evaluate_run(setup, run)
    assert np.isfinite([report.rmse, report.q_ic, report.ci_coverage_95]).all()
    assert 1e198 < report.rmse < 1e200
    # A sweep counts a replicate as failed only when it diverged.
    cfg = ExperimentConfig(model="tracking2d", filter="kf", t_end=10.0, mc_reps=3, seed=0)
    stats = run_sweep(cfg, [1.0], [1.3e154]).cell("kf", 0, 0)
    assert (stats.n_ok, stats.n_failed) == (3, 0)
    assert np.isfinite(stats.rmse_values).all()
    summary = run_single(replace(cfg, epsilon=1.0, lam=1.3e154**2, out_dir=str(tmp_path))).summary
    json.dumps(summary, allow_nan=False)


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

    def no_replicate(job):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_replicate_job", no_replicate)
    with pytest.raises(ValueError, match="linear Gaussian"):
        run_sweep(cfg, [0.1], [5.0], filters=["dsm_enkf", "kf"])
    with pytest.raises(ValueError, match="linear Gaussian"):
        run_ensemble_size_sweep(cfg, [10, 20], filters=["kf"])
    with pytest.raises(ValueError, match="ensemble_size"):
        run_ensemble_size_sweep(replace(cfg, model="ou", filter="kf"), [1, 5], filters=["enkf"])


def test_config_refuses_a_contamination_or_horizon_it_cannot_run(monkeypatch):
    for setting in ({"epsilon": 1.5}, {"epsilon": np.nan}, {"lam": 0.5}, {"lam": np.nan}):
        with pytest.raises(ValueError, match="epsilon|lambda"):
            ExperimentConfig(**setting)
    for t_end in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_end"):
            ExperimentConfig(t_end=t_end)

    def no_replicate(job):
        raise AssertionError("a replicate started")

    monkeypatch.setattr(harness, "_replicate_job", no_replicate)
    with pytest.raises(ValueError, match="epsilon"):
        run_sweep(ExperimentConfig(t_end=1.0), [0.1, 1.5], [2.0])


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
    base = dict(model="ou", t_end=2.0, mc_reps=4, seed=23)
    serial = run_sweep(
        ExperimentConfig(threads=1, out_dir=str(tmp_path / "s"), **base),
        [0.1], [10.0], filters=["kf", "dsm_kf"],
    )
    parallel = run_sweep(
        ExperimentConfig(threads=2, out_dir=str(tmp_path / "p"), **base),
        [0.1], [10.0], filters=["kf", "dsm_kf"],
    )
    for key in serial.cells:
        assert serial.cells[key].rmse_values == parallel.cells[key].rmse_values
    assert (tmp_path / "s" / "sweep_cells.csv").read_bytes() == (
        tmp_path / "p" / "sweep_cells.csv"
    ).read_bytes()


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
    header = (tmp_path / "size_sweep_cells.csv").read_text().splitlines()[0]
    assert header.endswith("mc_rate_ref")


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
        ("contamination", {"axis_epsilon": [0.1], "axis_sqrt_lambda": values}, lambda j: (0, j)),
        ("ensemble_size", {"axis_sizes": list(range(2, n + 2))}, lambda j: (j, 0)),
    ):
        cells = {
            ("kf", *key(j)): harness.CellStats(1, 0, v, v, v, v, [v], [v])
            for j, v in enumerate(values)
        }
        sweep = harness.SweepResult(kind, ["kf"], 1, cells, **axes)
        sweep.write_csv(tmp_path / f"{kind}_cells.csv")
        sweep.write_replicates_csv(tmp_path / f"{kind}_replicates.csv")
        cols = _read_columns(tmp_path / f"{kind}_cells.csv", stats)
        assert all(_same_bits(cols[name], values) for name in stats), kind
        cols = _read_columns(tmp_path / f"{kind}_replicates.csv", ["rmse", "q_ic"])
        assert _same_bits(cols["rmse"], values) and _same_bits(cols["q_ic"], values), kind
    cols = _read_columns(tmp_path / "contamination_cells.csv", ["sqrt_lambda"])
    assert _same_bits(cols["sqrt_lambda"], values)


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
    ],
)
def test_cli_sweep_refuses_a_bad_grid_value_in_one_line(grid, message):
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--config", "ou_desk", "--filters", "kf", *grid])
    assert str(err.value) == message


def test_cli_size_sweep_refuses_a_size_a_filter_cannot_run_in_one_line():
    with pytest.raises(SystemExit) as err:
        cli.main(["size-sweep", "--config", "ou_desk", "--filters", "kf,enkf", "--sizes", "1,5"])
    assert str(err.value) == (
        "ou_desk: ensemble_size must be >= 2 for ensemble and particle filters"
    )


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