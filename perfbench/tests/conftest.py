import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import load_robust_da, pin_threads  # noqa: E402

pin_threads()
load_robust_da()
