"""Deterministic random-instance families for the test corpus.

Families:
  uniform          random cost weights on every pair, complete unit demand
                   (the uniform special case of the problem).
  planted          two dense cost blocks joined by a sparse bridge, demand
                   concentrated across the blocks; the bridge cut is optimal
                   by construction (in-block weights dominate the bridge).
  expander-vs-pair cost is a union of three random Hamiltonian cycles
                   (a d-regular-style expander), demand a single pair.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .graphs import WeightedGraphPair

FAMILIES = ("uniform", "planted", "expander-vs-pair")


def generate(family: str, n: int, seed: int) -> WeightedGraphPair:
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if seed < 0:
        raise InputError(f"need seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if family == "uniform":
        cost = [(i, j, float(rng.uniform(0.0, 1.0))) for i in range(n) for j in range(i + 1, n)]
        demand = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        return WeightedGraphPair.from_edges(n, cost, demand)
    if family == "planted":
        return _planted(n, rng)
    return _expander_vs_pair(n, rng)


def _planted(n: int, rng: np.random.Generator) -> WeightedGraphPair:
    a = n // 2
    block_a, block_b = range(a), range(a, n)
    cost = []
    for block in (block_a, block_b):
        for i in block:
            for j in block:
                if i < j:
                    cost.append((i, j, float(rng.uniform(1.0, 2.0))))
    # bridge light enough that every block-splitting cut costs strictly more
    n_bridge = max(1, n // 4)
    for _ in range(n_bridge):
        i = int(rng.integers(0, a))
        j = int(rng.integers(a, n))
        cost.append((i, j, float(rng.uniform(0.1, 0.4)) / n_bridge))
    demand = [(i, j, 1.0) for i in block_a for j in block_b]
    return WeightedGraphPair.from_edges(n, cost, demand)


def _expander_vs_pair(n: int, rng: np.random.Generator) -> WeightedGraphPair:
    cost = []
    for _ in range(3):
        perm = rng.permutation(n)
        for t in range(n):
            cost.append((int(perm[t]), int(perm[(t + 1) % n]), 1.0))
    k, l = (int(v) for v in rng.choice(n, size=2, replace=False))
    demand = [(k, l, 1.0)]
    return WeightedGraphPair.from_edges(n, cost, demand)
