"""Prints the seconds a fresh process takes to import skellam_fields and
warm up, as the benchmark does before its first timed op.

    python3 perfbench/setup_probe.py
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import warm_up  # noqa: E402  (imports the package)

warm_up()
print(repr(time.perf_counter() - T0))
