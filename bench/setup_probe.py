"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is what a user pays before the first instance: importing sparsecut
(numpy and scipy included), generating the workload's instances and one
warm-up solve of a small (n=8) instance of the workload's first family.
``run.py`` starts this script several times and reports the median.

Usage: python3 bench/setup_probe.py WORKLOAD SEED [--quick]
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sparsecut  # noqa: E402
import workloads  # noqa: E402

instances = workloads.build(sys.argv[1], int(sys.argv[2]), quick="--quick" in sys.argv[3:])
sparsecut.run_pipeline(workloads.warmup_graph(instances))
print(time.perf_counter() - T0)
