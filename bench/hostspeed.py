"""The host's speed, measured with a fixed kernel that does not use sparsecut.

The benchmark runs on shared virtual machines whose speed changes from
minute to minute: on a 2-vCPU Xeon VM, every instance of a run moved
together by a factor of 0.63-1.18 between runs of the same code.  On the
workloads whose time is of the kernel's kind (``workloads.HOST_SCALED``), a
call's time is therefore divided by the host factor measured next to it.

``factor()`` times three parts, each about 1.5-2.5 ms of fixed work of the kinds
the program spends its time in: interpreted Python, numpy calls on small
arrays, and LAPACK factorisations of mid-sized matrices.  The factor is the
geometric mean, over the parts, of seconds taken divided by ``NOMINAL``
seconds.  1.0 is the nominal host; 1.2 means the host runs 20% slower.  The
kernel calls no sparsecut code, so a change to the program does not move it.

The speed swings within a second (consecutive 50 ms calls saw factors of
0.7 and 1.3), so one kernel run describes the host only for calls of that
length.  ``factors`` repeats the kernel for a given time; the benchmark
samples for a share of the call's length on each side of it and divides
the call's seconds by the median factor.
"""

from __future__ import annotations

import math
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_M = _RNG.standard_normal((96, 96))
_SPD = _M @ _M.T + 96 * np.eye(96)
_SYM = _M + _M.T
_X = np.linspace(0.0, 1.0, 32)


def _python():
    total = 0
    seen = {}
    for i in range(12000):
        total += (i * i) % 7
        seen[i & 63] = total
    return total


def _numpy():
    y = np.empty_like(_X)
    for _ in range(400):
        np.multiply(_X, 2.0, out=y)
        np.maximum(y, 1.5, out=y)
        y.sum()


def _lapack():
    for _ in range(2):
        np.linalg.cholesky(_SPD)
        np.linalg.eigh(_SYM)


PARTS = {"python": _python, "numpy": _numpy, "lapack": _lapack}

# Median seconds of each part on the nominal host: a 2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4 with OpenBLAS 0.3 on 2 threads.
NOMINAL = {"python": 1.50e-3, "numpy": 1.67e-3, "lapack": 2.38e-3}


def part_seconds() -> dict[str, float]:
    out = {}
    for name, fn in PARTS.items():
        t0 = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - t0
    return out


def factor() -> float:
    """Host factor now: 1.0 on the nominal host, larger on a slower one."""
    seconds = part_seconds()
    return math.exp(sum(math.log(seconds[k] / NOMINAL[k]) for k in PARTS) / len(PARTS))


def warm_up(limit: float = 5.0) -> None:
    """Run the kernel untimed until five runs in a row read a factor below
    3, for at most ``limit`` seconds.  In a fresh process the first LAPACK
    calls took 100 times their later time for about a second."""
    end = time.perf_counter() + limit
    steady = 0
    while steady < 5 and time.perf_counter() < end:
        steady = steady + 1 if factor() < 3.0 else 0


def factors(min_seconds: float = 0.0) -> list[float]:
    """Host factors of repeated kernel runs, for at least ``min_seconds``
    and at least one run."""
    end = time.perf_counter() + min_seconds
    out = [factor()]
    while time.perf_counter() < end:
        out.append(factor())
    return out
