"""Time one cold set-up of a benchmark workload in a fresh interpreter.

Set-up is importing robust_da, building the workload's configs and finishing
one small warm-up call.  Prints the seconds, then the seconds of a
calibration run made right after set-up (see calibration.py), on stdout.  ``run.py`` starts a
few of these one after another and reports their median as ``setup_s``; by
hand: ``python3 perfbench/setup_probe.py <workload> <seed> <tmp dir>``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import pin_threads, timed_setup  # noqa: E402

if __name__ == "__main__":
    pin_threads()
    seconds, _ = timed_setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    from perfbench.calibration import calibration_seconds

    calibration_seconds()  # first call pays one-off numpy/LAPACK set-up
    print(repr(seconds), repr(calibration_seconds()))
