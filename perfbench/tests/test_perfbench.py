"""Tests of the benchmark itself: inputs, gates, tracer and output contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Workloads are shrunk to a few observations so the suite stays short.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import ROOT, run, tracing
from perfbench.calibration import CalibratedClock
from perfbench.workloads import WORKLOADS, Outcome, reference_problems

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name: str):
    """The workload with a horizon of ten or so observations and two units a pass."""
    workload = WORKLOADS[name]
    t_end = 1.0 if name == "tracking_sweep" else 0.5
    return replace(workload, base=replace(workload.base, t_end=t_end, mc_reps=1),
                   units_per_pass=2)


@pytest.fixture(scope="module")
def clock():
    return CalibratedClock()


def traced_pass(clock, name):
    tracer = tracing.Tracer()
    records, plain, traced, _wall, problems = run.traced_passes(clock, tiny(name), 3, tracer)
    return tracer, records, problems


def test_same_seed_gives_same_inputs_and_results():
    workload = tiny("tracking_sweep")
    first, again = workload.pass_units(11, 2), workload.pass_units(11, 2)
    assert first == again
    assert [u.config.seed for u in first] != [u.config.seed for u in workload.pass_units(12, 2)]
    assert first[0].execute(None) == again[0].execute(None)


@pytest.mark.parametrize("model,name", [("tracking2d", "tracking_sweep"),
                                        ("lorenz63", "l63_sweep"), ("lorenz96", "l96_run")])
def test_observation_count_matches_the_harness(model, name):
    from robust_da import run_single

    unit = tiny(name).pass_units(0, 0)[0]
    config = replace(unit.config, filter=unit.filters[0])
    assert run_single(config).summary["n_obs"] * unit.n_runs == unit.n_obs


def test_metric_names_are_valid_and_match_the_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    layer_names = set(tracing.Tracer().layer_metrics(1.0, 1)) | {"trace.overhead_frac"}
    assert layer_names == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_tracing_changes_no_result(clock, name):
    first, records, problems = traced_pass(clock, name)
    second, _, _ = traced_pass(clock, name)
    assert problems == []  # traced and plain runs of every unit agree bit for bit
    assert first.calls == second.calls and sum(first.calls.values()) > 0
    assert first.counts == second.counts and first.counts["linalg.cholesky"] > 0
    assert first.io_bytes == second.io_bytes
    assert first.filter_obs == second.filter_obs
    assert sum(first.filter_obs.values()) == sum(r[0].n_obs for r in records)


def _bindings():
    import numpy.linalg
    import scipy.linalg
    from robust_da import harness, metrics

    modules = tracing._robust_da_modules() + [numpy.linalg, scipy.linalg]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls in (metrics.MetricReport, harness.SweepResult):
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_every_wrapper_is_removed_after_the_traced_run(clock):
    from robust_da import harness

    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert harness.kf_forecast is not before[("robust_da.harness", "kf_forecast")]
    traced_pass(clock, "l96_run")
    after = _bindings()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []


def test_factorizations_are_counted_per_matrix_and_only_for_robust_da():
    import numpy as np
    from robust_da import SpdFactor, psd_sym_sqrt

    spd = np.eye(3) * 2.0
    stand_in = {"__name__": "robust_da.batched", "np": np, "spd": spd}  # a robust_da module
    tracer = tracing.Tracer()
    with tracer.installed():
        psd_sym_sqrt(spd)                                        # one eigh
        SpdFactor(spd).inv_sym_sqrt                              # one Cholesky, one eigh
        exec("np.linalg.eigh(np.stack([spd] * 4))", stand_in)    # four eigh in one call
        np.linalg.eigh(spd), np.linalg.cholesky(spd)             # not robust_da code
    assert tracer.counts == {"linalg.eigh": 6, "linalg.cholesky": 1}


def test_tracer_restores_bindings_when_the_run_raises():
    from robust_da import harness

    original = harness.run_closed_form_filter
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("unit failed")
    assert harness.run_closed_form_filter is original


def test_setup_is_reported_apart_from_us_per_obs(monkeypatch, capsys):
    workload = tiny("tracking_sweep")

    def slow_setup(name, seed, tmp_root):
        time.sleep(1.0)
        return 1.0, workload

    monkeypatch.setattr(run, "timed_setup", slow_setup)
    monkeypatch.setattr(run, "setup_samples", lambda name, seed, clock: [1.0, 1.0, 1.0])
    run.main(["--workload", "tracking_sweep", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["metrics"]["setup_s"]["value"] == 1.0
    per_unit_s = result["metrics"]["us_per_obs"]["value"] * workload.pass_units(1, 0)[0].n_obs / 1e6
    assert per_unit_s < 0.5
    assert result["attempted"] == 2 * workload.pass_units(1, 0)[0].n_runs


def test_reference_check_catches_a_wrong_filter_and_allows_reordering():
    workload = WORKLOADS["l96_run"]
    recorded = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    outcomes = [Outcome(rmse={k: tuple(v)}, q_ic={}, coverage={}, n_failed=0)
                for k, v in recorded["l96_run"].items()]
    assert reference_problems(workload, outcomes, recorded) == []
    nudged = {"l96_run": {k: [v[0] * (1 + 1e-11)] for k, v in recorded["l96_run"].items()}}
    assert reference_problems(workload, outcomes, nudged) == []
    swapped = {"l96_run": dict(recorded["l96_run"], dsm_letkf=recorded["l96_run"]["wolf_letkf"])}
    assert len(reference_problems(workload, outcomes, swapped)) == 1


def test_ordering_gates_flag_the_unrobust_result():
    def rmse(**values):
        return Outcome({k.replace("__", "/"): (v,) for k, v in values.items()}, {}, {}, 0)

    l96 = WORKLOADS["l96_run"].pooled_check
    assert l96([rmse(letkf=6.5, dsm_letkf=0.3, wolf_letkf=0.3)]) == []
    assert len(l96([rmse(letkf=6.5, dsm_letkf=4.0, wolf_letkf=0.3)])) == 1
    assert len(l96([rmse(letkf=2.0, dsm_letkf=0.3, wolf_letkf=0.3)])) == 1
    l63 = WORKLOADS["l63_sweep"].pooled_check
    assert l63([rmse(enkf__0__0=8.0, dsm_enkf__0__0=9.0), rmse(enkf__0__0=8.0, dsm_enkf__0__0=1.0)]) == []
    assert l63([rmse(enkf__0__0=1.0, dsm_enkf__0__0=2.0)]) != []
    tracking = WORKLOADS["tracking_sweep"]
    assert tracking.pooled_check([rmse(kf__1__0=0.9, dsm_kf__1__0=0.4)]) == []
    assert tracking.pooled_check([rmse(kf__1__0=0.8, dsm_kf__1__0=0.4)]) != []
    assert tracking.problems(Outcome({"kf/0/0": (float("nan"),)}, {}, {}, 0)) != []
    assert tracking.problems(Outcome({}, {}, {}, 1)) != []


def test_a_filter_run_only_in_the_reference_units_is_ordered_too():
    workload = WORKLOADS["l63_sweep"]
    unit = workload.pass_units(1, 0)[0]
    assert "enkf" not in unit.filters and "enkf" in workload.reference_units()[0].filters
    reference = [Outcome({"enkf/0/0": (8.0,), "dsm_enkf/0/0": (0.8,)}, {}, {}, 0)]

    def timed(dsm_rmse):
        return [(unit, Outcome({"dsm_enkf/0/0": (dsm_rmse,)}, {}, {}, 0), 1.0, 1.0)]

    assert run.gate(workload, timed(1.0), reference) == (unit.n_runs, 0, [])
    assert run.gate(workload, timed(20.0), reference)[1:] != (0, [])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tracking_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
