"""Time one fresh-process set-up: import seqloc, and with it numpy, from
this checkout and build one workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken.  run.py starts it several times, with the
thread counts pinned in its environment, and reports the median as
``setup_s``.  Only interpreter start-up precedes the clock.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), BENCH_DIR / "out" / "probe")
print(f"{time.perf_counter() - START:.9f}")
