"""Record the reference-unit RMSEs that every benchmark run checks against.

Run from the repository root after a change that is meant to alter results:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``.  A change meant to keep results must
pass the check instead of re-recording.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import load_robust_da, pin_threads  # noqa: E402

if __name__ == "__main__":
    pin_threads()
    load_robust_da()
    from perfbench.workloads import REFERENCE_PATH, WORKLOADS

    recorded = {}
    for name, workload in WORKLOADS.items():
        outcomes = [unit.execute(None) for unit in workload.reference_units()]
        recorded[name] = {k: list(v) for o in outcomes for k, v in sorted(o.rmse.items())}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
