"""Twin-experiment benchmark of robust_da: workloads, gates and tracing.

The benchmark imports robust_da from the ``src`` directory next to this
package, never from an installed copy, so it always measures the tree it
sits in.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Thread-count variables read by OpenBLAS, OpenMP and MKL when numpy loads.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS/OpenMP to one thread and drop the harness worker override.

    Must run before numpy is imported; child processes inherit the setting.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ROBUST_DA_THREADS", None)


def load_robust_da():
    """Import robust_da from ``src`` and check that it came from there."""
    if not (SRC / "robust_da" / "__init__.py").is_file():
        raise ImportError(f"no robust_da package under {SRC}")
    sys.path.insert(0, str(SRC))
    import robust_da

    origin = Path(robust_da.__file__).resolve().parent
    if origin != SRC / "robust_da":
        raise ImportError(f"robust_da was imported from {origin}, expected {SRC / 'robust_da'}")
    return robust_da


def timed_setup(workload_name: str, seed: int, tmp_root: Path):
    """Set a workload up and return (seconds taken, workload).

    Set-up is importing robust_da, building the first pass's configs and
    finishing the workload's small warm-up call.  Only the first call in a
    process pays for the import.
    """
    import tempfile
    import time

    start = time.perf_counter()
    load_robust_da()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.pass_units(seed, 0)
    with tempfile.TemporaryDirectory(dir=tmp_root) as out_dir:
        workload.warmup_unit().execute(out_dir)
    return time.perf_counter() - start, workload
