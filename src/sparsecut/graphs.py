"""Cost/demand graph pairs, Laplacians, cuts, and cut sparsity.

Vertices are 0-based integers internally; the instance text format is
1-based (see :func:`parse_instance`).  Pair weights are keyed by sorted
tuples ``(i, j)`` with ``i < j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError, ParseError

PairWeights = Mapping[tuple[int, int], float]


def _validate_weights(weights: PairWeights, n: int, what: str) -> None:
    for (i, j), w in weights.items():
        if not (0 <= i < j < n):
            raise InputError(f"{what} pair ({i}, {j}) out of range for n={n}")
        if not (math.isfinite(w) and w >= 0.0):
            raise InputError(f"{what} weight for pair ({i}, {j}) is {w!r}")


def _merge_edges(edges: Iterable[tuple[int, int, float]]) -> dict[tuple[int, int], float]:
    """Sort each pair and sum duplicates."""
    out: dict[tuple[int, int], float] = {}
    for i, j, w in edges:
        if i == j:
            raise InputError(f"self-loop on vertex {i}")
        key = (i, j) if i < j else (j, i)
        out[key] = out.get(key, 0.0) + float(w)
    return out


@dataclass(frozen=True)
class WeightedGraphPair:
    """Cost and demand weights on a shared vertex set of size ``n``.

    Invariants enforced at construction: n >= 2, all weights finite and
    non-negative, no self-loops, and total demand strictly positive.
    """

    n: int
    cost: dict[tuple[int, int], float]
    demand: dict[tuple[int, int], float]

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"need at least 2 vertices, got n={self.n}")
        _validate_weights(self.cost, self.n, "cost")
        _validate_weights(self.demand, self.n, "demand")
        if self.total_demand <= 0.0:
            raise InputError("total demand must be positive")

    @classmethod
    def from_edges(cls, n, cost_edges, demand_edges):
        """Build from ``(i, j, w)`` triples; unordered pairs, duplicates summed."""
        return cls(n, _merge_edges(cost_edges), _merge_edges(demand_edges))

    @property
    def total_demand(self) -> float:
        return float(sum(self.demand.values()))

    def cost_matrix(self) -> np.ndarray:
        return weight_matrix(self.cost, self.n)

    def demand_matrix(self) -> np.ndarray:
        return weight_matrix(self.demand, self.n)

    def cost_laplacian(self) -> np.ndarray:
        return laplacian(self.cost, self.n)

    def demand_laplacian(self) -> np.ndarray:
        return laplacian(self.demand, self.n)


def weight_matrix(weights: PairWeights, n: int) -> np.ndarray:
    """Dense symmetric weight matrix with zero diagonal."""
    _validate_weights(weights, n, "pair")
    W = np.zeros((n, n))
    for (i, j), w in weights.items():
        W[i, j] += w
        W[j, i] += w
    return W


def laplacian(weights: PairWeights, n: int) -> np.ndarray:
    """Graph Laplacian: L[i,j] = -W(i,j) off-diagonal, row sums zero."""
    W = weight_matrix(weights, n)
    return np.diag(W.sum(axis=1)) - W


@dataclass(frozen=True)
class Cut:
    """A vertex subset encoded as a boolean membership vector."""

    members: np.ndarray

    def __post_init__(self):
        members = np.asarray(self.members, dtype=bool)
        members.setflags(write=False)
        object.__setattr__(self, "members", members)

    @classmethod
    def from_vertices(cls, vertices: Iterable[int], n: int) -> Cut:
        members = np.zeros(n, dtype=bool)
        members[list(vertices)] = True
        return cls(members)

    @property
    def n(self) -> int:
        return int(self.members.size)

    @property
    def is_proper(self) -> bool:
        k = int(self.members.sum())
        return 0 < k < self.n

    def vertices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.members)]


@dataclass(frozen=True)
class CutResult:
    """A cut together with its crossing weights and sparsity ratio."""

    cut: Cut
    cost_cut: float
    demand_cut: float
    sparsity: float


def sparsity(g: WeightedGraphPair, cut: Cut) -> CutResult:
    """Cost and demand weight crossing the cut, and their ratio.

    Improper cuts and cuts crossing zero demand get sparsity +inf so they
    never win an argmin.
    """
    if cut.n != g.n:
        raise InputError(f"cut has {cut.n} vertices, graph has {g.n}")
    ind = cut.members
    cost_cut = float(sum(w for (i, j), w in g.cost.items() if ind[i] != ind[j]))
    demand_cut = float(sum(w for (i, j), w in g.demand.items() if ind[i] != ind[j]))
    ratio = cost_cut / demand_cut if demand_cut > 0 else math.inf
    return CutResult(cut, cost_cut, demand_cut, ratio)


# ---------------------------------------------------------------------------
# Instance text format: "n <count>" then "c i j w" / "d i j w" lines, 1-based,
# pairs sorted on read, duplicate pair lines summed.
# ---------------------------------------------------------------------------

def parse_instance(text: str) -> WeightedGraphPair:
    n = None
    cost: list[tuple[int, int, float]] = []
    demand: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'n <count>', got {raw!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count {parts[1]!r} is not an integer")
            if n < 2:
                raise ParseError(f"line {lineno}: need at least 2 vertices, got {n}")
            continue
        if parts[0] not in ("c", "d") or len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 'c|d i j w', got {raw!r}")
        try:
            i, j = int(parts[1]), int(parts[2])
            w = float(parts[3])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed edge {raw!r}")
        if i == j:
            raise ParseError(f"line {lineno}: self-loop on vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"line {lineno}: vertex out of range in {raw!r}")
        if not (math.isfinite(w) and w >= 0.0):
            raise ParseError(f"line {lineno}: bad weight {parts[3]!r}")
        (cost if parts[0] == "c" else demand).append((i - 1, j - 1, w))
    if n is None:
        raise ParseError("empty instance: missing 'n <count>' line")
    try:
        return WeightedGraphPair.from_edges(n, cost, demand)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def format_instance(g: WeightedGraphPair) -> str:
    """Deterministic text form; inverse of parse_instance up to merging."""
    lines = [f"n {g.n}"]
    for tag, weights in (("c", g.cost), ("d", g.demand)):
        for (i, j) in sorted(weights):
            lines.append(f"{tag} {i + 1} {j + 1} {weights[(i, j)]!r}")
    return "\n".join(lines) + "\n"


def read_instance(path) -> WeightedGraphPair:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
