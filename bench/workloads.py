"""The benchmark's workloads: which instances each one runs, how the seed
turns them into inputs, and the reference values the outputs are checked
against.

Every workload is a fixed list of generator calls ``(family, n, seed)``.  The
benchmark seed does not redraw that list; it relabels the vertices of every
instance by a seeded random permutation.  The program therefore receives
different inputs for every seed, while each instance keeps its difficulty.
Per-instance cost on the corpus has a coefficient of variation of about 3.9:
resampling the measured times of all 600 corpus instances gave throughputs
whose quartile spread was about 30% of their median, more than any
regression bound could absorb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sparsecut import FAMILIES, Cut, WeightedGraphPair, generate, sparsity

# The acceptance-corpus rule of tests/test_acceptance.py (n cycling 4..12,
# seed = 1000 * family index + i), cut to its first 9 instances per family:
# one full cycle of n.  It keeps the two slowest instances of the whole
# corpus (uniform n=10 seed 6 and n=12 seed 8, about 34,000 iterations
# each), which take about 85% of a pass of about 20 s.
CORPUS_PER_FAMILY = 9

SPECS = {
    "corpus": [(family, 4 + i % 9, 1000 * fi + i)
               for i in range(CORPUS_PER_FAMILY) for fi, family in enumerate(FAMILIES)],
    "planted-large": [("planted", 24 + 4 * i, 1000 + i) for i in range(4)],
}

# Whether the workload's timings are divided by the host factor (see
# hostspeed.py).  corpus spends its time in interpreted Python and numpy
# calls on small arrays, like the kernel, and whole runs moved with the
# host's speed, by factors of 0.63-1.18.  planted-large spends it in dense LAPACK on two BLAS
# threads: its unscaled timings spread 0.04-0.07 over five runs, while
# scaling by the kernel spread them 0.08-0.15.
HOST_SCALED = {"corpus": True, "planted-large": False}

# Instances of the workload's family with n <= 8, solved outside the timed
# region and compared with the independent log-barrier solver.  The corpus
# uses its own n <= 8 instances instead.
CROSS_CHECK_SPECS = {
    "corpus": [],
    "planted-large": [("planted", n, 1000 + n) for n in (6, 7, 8)],
}

# Instances kept by --quick, the benchmark's own smoke test.
QUICK = {"corpus": 9, "planted-large": 1}

# Size of the warm-up instance solved as part of set-up.
WARMUP_N = 8


@dataclass(frozen=True)
class Instance:
    family: str
    n: int
    seed: int                  # generator seed, before relabelling
    perm: tuple[int, ...]      # vertex v of the generated graph is vertex perm[v] here
    graph: WeightedGraphPair


def relabel(g: WeightedGraphPair, perm) -> WeightedGraphPair:
    cost = sorted((perm[i], perm[j], w) for (i, j), w in g.cost.items())
    demand = sorted((perm[i], perm[j], w) for (i, j), w in g.demand.items())
    return WeightedGraphPair.from_edges(g.n, cost, demand)


def _instances(specs, rng, generate) -> list[Instance]:
    out = []
    for family, n, seed in specs:
        perm = tuple(int(v) for v in rng.permutation(n))
        out.append(Instance(family, n, seed, perm, relabel(generate(family, n, seed), perm)))
    return out


def build(workload: str, seed: int, quick: bool = False, generate=generate) -> list[Instance]:
    """The workload's instances for ``seed``."""
    specs = SPECS[workload][:QUICK[workload]] if quick else SPECS[workload]
    return _instances(specs, np.random.default_rng(seed), generate)


def cross_check_instances(workload: str, seed: int, quick: bool = False) -> list[Instance]:
    """Extra n <= 8 instances for the solver cross-check, relabelled from their own stream."""
    specs = CROSS_CHECK_SPECS[workload][:1] if quick else CROSS_CHECK_SPECS[workload]
    return _instances(specs, np.random.default_rng([seed, 1]), generate)


def warmup_graph(instances: list[Instance]) -> WeightedGraphPair:
    return generate(instances[0].family, WARMUP_N, 0)


def reference_phi(inst: Instance) -> float | None:
    """Optimal sparsity known without enumeration, or None.

    planted: the bridge cut between the two blocks, optimal by the
    generator's construction.
    """
    g = inst.graph
    if inst.family == "planted":
        return sparsity(g, Cut.from_vertices(inst.perm[:g.n // 2], g.n)).sparsity
    return None
