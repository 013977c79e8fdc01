"""Run the benchmark once per seed and summarize each metric's spread.

Usage, from the repository root:

    python3 perfbench/repeat.py --workload l96_run --seeds 1-10 [--out FILE]

For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the interquartile distance over the median, next to
the bound from BENCHMARK.json.  Runs are untraced (``--trace 0``), so the
summary covers the end-to-end metrics.  ``--out`` also writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    runs = []
    for seed in args.seeds:
        command = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name]}
        print(f"{name:<44} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}  bound {bounds[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
