"""Machine-speed calibration for timings taken on a shared, noisy host.

On a shared 2-vCPU Xeon VM, speed drifts by up to 1.6x over tens of seconds
(other tenants) while CPU time stays equal to wall time.  A
median over units does not remove drift that lasts longer than a unit, so
every timing is scaled by how fast a fixed calibration loop ran right before
and right after it.  The loop uses no robust_da code, so no change to the
program can move it; it mixes the operations robust_da's time goes to: small
numpy calls driven from Python, and small LAPACK factorizations.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure near the seconds the calibration loop takes on a quiet 2-vCPU
# Xeon VM; scaled timings read as seconds at that speed.
REFERENCE_S = 0.02

_SPD = np.eye(40) * 40.0 + np.add.outer(np.arange(40.0), np.arange(40.0)) / 40.0


def calibration_seconds() -> float:
    """Wall time of one run of the fixed calibration loop."""
    start = time.perf_counter()
    x = np.ones(4)
    a = np.eye(4) * 2.0 + 0.1
    total = 0.0
    for step in range(1500):
        x = a @ x + 0.5
        x = x / np.sqrt(x @ x)
        total += float(np.linalg.cholesky(a)[0, 0]) + sum(float(v) for v in x)
        if step % 100 == 0:
            total += float(np.linalg.eigh(_SPD)[0][0] + np.linalg.cholesky(_SPD)[0, 0])
    if not np.isfinite(total):
        raise FloatingPointError("calibration loop produced a non-finite value")
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the calibration runs around them."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


class CalibratedClock:
    """Times calls and scales each wall time to the reference speed.

    The scale uses the mean of the calibration runs just before and just after
    the call; consecutive calls share the run between them.
    """

    def __init__(self):
        calibration_seconds()  # first call pays one-off numpy/LAPACK set-up
        self._before = calibration_seconds()

    def time(self, fn, *args):
        """(result, wall seconds, scaled seconds) of ``fn(*args)``."""
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = calibration_seconds()
        at_reference = scaled(wall, self._before, after)
        self._before = after
        return result, wall, at_reference

    def refresh(self) -> float:
        """Run the calibration loop now, after untimed work, and return its seconds."""
        self._before = calibration_seconds()
        return self._before
