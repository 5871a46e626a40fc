"""Time one workload's set-up in a fresh process.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints
the host seconds from before ``import repro`` to the point where the
first job could be released: the import, the environment, offline
profiling and the first plan (for ``fleet_sharded``, the topology and
spec; per-UE set-up happens inside the timed run).
"""

import os
import sys
from time import perf_counter

started = perf_counter()
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import setup  # noqa: E402 - the import is what is timed

setup(sys.argv[1], int(sys.argv[2]))
print(perf_counter() - started)
