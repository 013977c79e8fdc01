"""Twin-experiment benchmark of robust_da.

Usage, from the repository root:

    python3 perfbench/run.py --workload tracking_sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times whole passes of the workload until ``--seconds``
have elapsed and reports the end-to-end metrics.  With ``--trace 1`` it runs
each unit of the first passes twice, once plain and once under the tracer,
and reports the per-layer metrics.  Every run first checks the workload's
reference units against the recorded RMSEs; a traced run traces them too.
Human-readable lines start with ``#``; the last line of standard output is
the JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import ROOT, pin_threads, timed_setup  # noqa: E402

WORKLOAD_NAMES = ("tracking_sweep", "l63_sweep", "l96_run")
# Cold set-ups timed in fresh interpreters; setup_s is their median.
SETUP_PROBES = 5
# A traced run covers the fewest whole passes with at least this many units,
# so that its gate sees several replicates of each filter.
TRACED_UNITS = 8
TMP_ROOT = ROOT / ".perfbench_tmp"
SPANS_ROOT = ROOT / ".perfbench_out"


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """Machine and build facts that timings depend on."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')} ({info.get('openblas configuration', '')})"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }


def setup_samples(workload: str, seed: int, clock) -> list[float]:
    """Scaled seconds of SETUP_PROBES cold set-ups, each in its own interpreter.

    Each probe is scaled by the calibration run just before it (here) and the
    one it makes right after its set-up.
    """
    from perfbench.calibration import scaled

    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        before = clock.refresh()
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(TMP_ROOT)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, after = map(float, done.stdout.split()[-2:])
        samples.append(scaled(seconds, before, after))
    clock.refresh()
    return samples


def run_unit(clock, unit, tracer=None):
    """Execute one unit in a fresh output directory: (outcome, wall, scaled)."""
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as out_dir:
        if tracer is None:
            return clock.time(unit.execute, out_dir)
        root_layer = "harness.run" if unit.grid is None else "harness.sweep"
        with tracer.installed():
            return clock.time(tracer.wrap(unit.execute, root_layer), out_dir)


def timed_passes(clock, workload, seed: int, seconds: float):
    """Whole passes until ``seconds`` have elapsed.

    Returns (records, pass seconds): one (unit, outcome, wall, scaled) record
    per unit, and each pass's scaled seconds.
    """
    records, pass_seconds = [], []
    start = time.perf_counter()
    while not pass_seconds or time.perf_counter() - start < seconds:
        total = 0.0
        for unit in workload.pass_units(seed, len(pass_seconds)):
            outcome, wall, scaled = run_unit(clock, unit)
            records.append((unit, outcome, wall, scaled))
            total += scaled
        pass_seconds.append(total)
    return records, pass_seconds


def traced_passes(clock, workload, seed: int, tracer):
    """Each unit plain and traced, alternating which runs first.

    Runs the first passes that hold TRACED_UNITS units or more.  Returns
    (records of the plain runs, plain scaled seconds, traced scaled seconds,
    traced wall seconds, problems).  The two runs of a unit must give
    bit-identical results.
    """
    units, passes = [], 0
    while len(units) < TRACED_UNITS:
        units += workload.pass_units(seed, passes)
        passes += 1
    records, problems = [], []
    plain = traced = traced_wall = 0.0
    for index, unit in enumerate(units):
        tracer.unit = index
        outcomes = {}
        for with_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            outcome, wall, scaled = run_unit(clock, unit, tracer if with_tracer else None)
            outcomes[with_tracer] = outcome
            if with_tracer:
                traced += scaled
                traced_wall += wall
            else:
                plain += scaled
                records.append((unit, outcome, wall, scaled))
        if outcomes[True] != outcomes[False]:
            problems.append(f"unit {index}: traced results differ from plain results")
    return records, plain, traced, traced_wall, problems


def us_per_obs(records) -> float:
    """Median scaled us per observation over the units of each kind, averaged
    over kinds.

    A kind is a filter set: sweep units all run every filter, run_single units
    one filter each.  Taking the median within a kind keeps the median from
    landing on the edge between cheap and costly filters.
    """
    kinds: dict[tuple, list[float]] = {}
    for unit, _outcome, _wall, scaled in records:
        kinds.setdefault(unit.filters, []).append(1e6 * scaled / unit.n_obs)
    return statistics.mean(statistics.median(values) for values in kinds.values())


def gate(workload, records, reference) -> tuple[int, int, list[str]]:
    """(runs attempted, runs failed, problems) over the timed units.

    The orderings are checked on the timed and ``reference`` outcomes pooled,
    so a filter that runs in the reference units only is compared too.
    """
    attempted = failed = 0
    problems = []
    for index, (unit, outcome, _wall, _scaled) in enumerate(records):
        attempted += unit.n_runs
        unit_problems = workload.problems(outcome)
        if unit_problems:
            failed += unit.n_runs
            problems += [f"unit {index}: {p}" for p in unit_problems]
    pooled = workload.pooled_check(reference + [record[1] for record in records])
    if pooled:
        failed = attempted
        problems += pooled
    return attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        own_setup, workload = timed_setup(args.workload, args.seed, TMP_ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from perfbench import tracing, workloads
    from perfbench.calibration import CalibratedClock

    print("# environment " + json.dumps(environment(), sort_keys=True))
    clock = CalibratedClock()
    # setup_s is an end-to-end metric, so a traced run skips the cold probes.
    setup = None if args.trace else setup_samples(args.workload, args.seed, clock)

    # A traced run traces the reference units too: some filters run only there.
    tracer = tracing.Tracer() if args.trace else None
    reference_units = workload.reference_units()
    reference_runs = [run_unit(clock, u, tracer) for u in reference_units]
    reference = [outcome for outcome, _wall, _scaled in reference_runs]
    problems = workloads.reference_problems(workload, reference, workloads.load_reference())

    if args.trace:
        records, plain, traced, traced_wall, trace_problems = traced_passes(
            clock, workload, args.seed, tracer)
        problems += trace_problems
        traced_wall += sum(wall for _outcome, wall, _scaled in reference_runs)
        n_obs = sum(record[0].n_obs for record in records) + sum(u.n_obs for u in reference_units)
        metrics = tracer.layer_metrics(traced_wall, n_obs)
        metrics["trace.overhead_frac"] = ((traced - plain) / plain, "fraction")
        SPANS_ROOT.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_ROOT / f"spans-{args.workload}-seed{args.seed}.json")
        print(f"# traced passes: plain {plain:.3f} s, traced {traced:.3f} s (scaled), "
              f"{len(records)} units, {len(tracer.spans)} spans")
    else:
        records, pass_seconds = timed_passes(clock, workload, args.seed, args.seconds)
        unscaled = [(unit, outcome, wall, wall) for unit, outcome, wall, _s in records]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "us_per_obs": (us_per_obs(records), "us"),
            "wall_s": (statistics.mean(pass_seconds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        print(f"# {args.workload} seed {args.seed}: {len(pass_seconds)} passes, "
              f"{len(records)} units; unscaled: us_per_obs {us_per_obs(unscaled):.1f}, "
              f"set-up in this process {own_setup:.3f} s; scaled set-up samples "
              + " ".join(f"{s:.3f}" for s in setup))

    attempted, failed, gate_problems = gate(workload, records, reference)
    if problems:  # a wrong reference result or a result changed by tracing taints every run
        failed = attempted
    problems += gate_problems
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<44} {value:>14.6g} {unit}")
    print(f"# {'failed_frac':<44} {failed / attempted:>14.6g} ({failed}/{attempted} runs)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
