"""Line embeddings, all-pairs sweep-cut rounding, and the l1-embedding audits.

The rounding scans every direction x_k - x_l, projects all points onto it
(landing in [0, 1] whenever the configuration satisfies the l2^2 triangle
inequalities), and returns the best threshold cut over all directions and
thresholds.  Swapping k and l maps p to 1 - p and yields complementary cuts
of equal sparsity, so only unordered pairs are scanned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDirectionError, InputError,
                     PropertyViolationError, RoundingError)
from .graphs import Cut, CutResult, PairWeights, WeightedGraphPair, sparsity
from .sdp import audit_triangle

DEGENERATE_REL_TOL = 1e-12
AUDIT_SLACK = 1e-7
TRIANGLE_PRE_TOL = 1e-6
EXHAUSTIVE_MAX_N = 40
SAMPLED_QUADRUPLES = 10 ** 6


def _as_points(vectors) -> np.ndarray:
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InputError(f"expected an (n, m) array with n >= 2, got shape {X.shape}")
    return X


def _pair_diffs(X: np.ndarray):
    """All pair differences x_i - x_j for i < j, with their index arrays."""
    n = X.shape[0]
    pi, pj = np.triu_indices(n, k=1)
    return pi, pj, X[pi] - X[pj]


def _degenerate_threshold(sq: np.ndarray) -> float:
    mean = float(sq.mean()) if sq.size else 0.0
    return DEGENERATE_REL_TOL * mean


def _live_directions(X: np.ndarray):
    """Pair differences, their squared lengths, and the indices of the pairs
    whose direction is not degenerate."""
    pi, pj, E = _pair_diffs(X)
    sq = np.einsum("pm,pm->p", E, E)
    live = np.flatnonzero(sq > _degenerate_threshold(sq))
    if live.size == 0:
        raise DegenerateDirectionError("all direction pairs are degenerate")
    return pi, pj, E, sq, live


def _tightest(upper_slack: np.ndarray, lower_slack: np.ndarray) -> tuple[float, int]:
    """Smaller of the two minimum slacks and its flat index; upper wins ties."""
    u, l = int(np.argmin(upper_slack)), int(np.argmin(lower_slack))
    if upper_slack.flat[u] <= lower_slack.flat[l]:
        return float(upper_slack.flat[u]), u
    return float(lower_slack.flat[l]), l


@dataclass(frozen=True)
class LineEmbedding:
    """Projections p_i = <x_i - x_l, x_k - x_l> / |x_k - x_l|^2 for one direction."""

    k: int
    l: int
    values: np.ndarray


def line_embed(vectors, k: int, l: int) -> LineEmbedding:
    X = _as_points(vectors)
    n = X.shape[0]
    if not (0 <= k < n and 0 <= l < n) or k == l:
        raise InputError(f"bad direction pair ({k}, {l}) for n={n}")
    _, _, E = _pair_diffs(X)
    sq = np.einsum("pm,pm->p", E, E)
    direction = X[k] - X[l]
    denom = float(direction @ direction)
    if denom <= _degenerate_threshold(sq):
        raise DegenerateDirectionError(f"direction ({k}, {l}) is numerically degenerate")
    values = (X - X[l]) @ direction / denom
    return LineEmbedding(k=k, l=l, values=values)


def _prefix_cut_values(W: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Crossing weight of every prefix of `order`, by moving one vertex at a time.

    cut(q) = cut(q-1) + sum_{b>q} W[v_q, v_b] - sum_{a<q} W[v_a, v_q].
    """
    M = W[np.ix_(order, order)]
    idx = np.arange(len(order))
    tail = M.sum(axis=1) - np.cumsum(M, axis=1)[idx, idx]
    head = np.empty(len(order))
    head[0] = 0.0
    head[1:] = np.cumsum(M, axis=0)[idx[:-1], idx[1:]]
    return np.cumsum(tail - head)


def threshold_round(vectors, g: WeightedGraphPair) -> CutResult:
    """Best sweep cut over all directions and thresholds (the full rounding)."""
    X = _as_points(vectors)
    n = X.shape[0]
    if n != g.n:
        raise InputError(f"configuration has {n} points, graph has {g.n} vertices")
    audit = audit_triangle(X)
    if audit.max_violation > TRIANGLE_PRE_TOL:
        raise InputError(
            f"configuration violates the triangle family by {audit.max_violation:.2e} "
            f"at triple {audit.worst_triple}; rounding requires a feasible input"
        )
    G = X @ X.T
    diag = np.diag(G)
    D2 = diag[:, None] + diag[None, :] - 2 * G
    iu, ju = np.triu_indices(n, k=1)
    tau = _degenerate_threshold(D2[iu, ju])
    Wc, Wd = g.cost_matrix(), g.demand_matrix()

    best: tuple[float, np.ndarray] | None = None
    saw_direction = False
    for k, l in zip(iu, ju):
        denom = D2[k, l]
        if denom <= tau:
            continue
        saw_direction = True
        p = (G[:, k] - G[:, l] - G[l, k] + G[l, l]) / denom
        order = np.argsort(p, kind="stable")  # ties fall back to vertex index
        cost_vals = _prefix_cut_values(Wc, order)
        dem_vals = _prefix_cut_values(Wd, order)
        p_sorted = p[order]
        valid = np.empty(n, dtype=bool)
        valid[:-1] = p_sorted[1:] > p_sorted[:-1]  # tied vertices enter together
        valid[-1] = False  # the full set is improper
        for q in np.flatnonzero(valid):
            if dem_vals[q] <= 0.0:
                continue
            value = cost_vals[q] / dem_vals[q]
            if best is None or value < best[0]:
                best = (value, order[: q + 1].copy())
    if not saw_direction:
        raise RoundingError("all direction pairs are degenerate (coincident points)")
    if best is None:
        raise RoundingError("no sweep cut crosses positive demand")
    cut = Cut.from_vertices(best[1].tolist(), n)
    return sparsity(g, cut)


@dataclass(frozen=True)
class L1Embedding:
    """Coordinates indexed by positive-demand pairs (k < l).

    coordinate (k,l) of point i:  w_kl * <x_i - x_l, x_k - x_l>
    with weight w_kl = d_kl |x_k - x_l|^2 / sum_{k<l} d_kl |x_k - x_l|^2.
    """

    pairs: list[tuple[int, int]]
    weights: np.ndarray        # scaling weight per coordinate
    coordinates: np.ndarray    # (n, n_pairs)

    def l1_distance(self, i: int, j: int) -> float:
        return float(np.abs(self.coordinates[i] - self.coordinates[j]).sum())


def _demand_directions(X: np.ndarray, demand: PairWeights):
    """Positive-demand pairs (k < l) sorted, with their second endpoints L,
    demands d, directions x_k - x_l, squared lengths, and Z = sum d |x_k - x_l|^2."""
    pairs = sorted(pair for pair, w in demand.items() if w > 0)
    if not pairs:
        raise InputError("no positive demand pairs")
    K = np.array([k for k, _ in pairs])
    L = np.array([l for _, l in pairs])
    d = np.array([demand[p] for p in pairs])
    dirs = X[K] - X[L]                        # (q, m)
    sq = np.einsum("qm,qm->q", dirs, dirs)
    Z = float((d * sq).sum())
    if Z <= 0.0:
        raise InputError("total demand-weighted squared length is zero")
    return pairs, L, d, dirs, sq, Z


def l1_embed(vectors, demand: PairWeights) -> L1Embedding:
    X = _as_points(vectors)
    pairs, L, d, dirs, sq, Z = _demand_directions(X, demand)
    proj = (X @ dirs.T) - (np.einsum("qm,qm->q", X[L], dirs))[None, :]
    weights = d * sq / Z
    return L1Embedding(pairs=pairs, weights=weights, coordinates=weights[None, :] * proj)


@dataclass(frozen=True)
class ProjectionAudit:
    tightest_slack: float
    witness: tuple[int, int, int, int]
    checked: int
    exhaustive: bool


def audit_projection_bounds(vectors, slack: float = AUDIT_SLACK,
                            seed: int = 0) -> ProjectionAudit:
    """Check, over quadruples (i,j,k,l) with non-degenerate (k,l):

        <x_i-x_j, (x_k-x_l)/|x_k-x_l|>^2 <= |<x_i-x_j, x_k-x_l>| <= |x_i-x_j|^2

    Exhaustive for n <= 40, sampled (fixed seed) above.  Raises
    PropertyViolationError when either inequality fails beyond `slack`.
    """
    X = _as_points(vectors)
    n = X.shape[0]
    pi, pj, E, sq, live = _live_directions(X)
    exhaustive = n <= EXHAUSTIVE_MAX_N
    if exhaustive:
        M = np.abs(E @ E[live].T)            # rows: all pairs p, cols: directions q
        tight, idx = _tightest(sq[:, None] - M,          # |x_i-x_j|^2 - |inner|
                               M - M * M / sq[live][None, :])  # |inner| - proj^2
        checked = 2 * M.size
        p, q = np.unravel_index(idx, M.shape)
        q = live[q]
    else:
        rng = np.random.default_rng(seed)
        ps = rng.integers(0, len(pi), size=SAMPLED_QUADRUPLES)
        qs = live[rng.integers(0, live.size, size=SAMPLED_QUADRUPLES)]
        inner = np.abs(np.einsum("sm,sm->s", E[ps], E[qs]))
        tight, idx = _tightest(sq[ps] - inner, inner - inner * inner / sq[qs])
        checked = 2 * SAMPLED_QUADRUPLES
        p, q = ps[idx], qs[idx]
    witness = (int(pi[p]), int(pj[p]), int(pi[q]), int(pj[q]))
    if tight < -slack:
        raise PropertyViolationError(
            f"projection sandwich violated by {-tight:.2e} at quadruple {witness}",
            witness=witness, violation=-tight,
        )
    return ProjectionAudit(tight, witness, checked, exhaustive)


@dataclass(frozen=True)
class DistortionAudit:
    tightest_slack: float
    witness: tuple[int, int]
    pairs_checked: int


def audit_distortion(vectors, demand: PairWeights, slack: float = AUDIT_SLACK) -> DistortionAudit:
    """Check, for every pair (i, j), the l1-embedding distortion sandwich

        sum_kl d_kl <x_i-x_j, x_k-x_l>^2 / Z  <=  |y_i - y_j|_1  <=  |x_i - x_j|^2

    where Z = sum_kl d_kl |x_k - x_l|^2."""
    X = _as_points(vectors)
    _, _, d, dirs, dir_sq, Z = _demand_directions(X, demand)
    pi, pj, E = _pair_diffs(X)
    sq = np.einsum("pm,pm->p", E, E)
    inner = E @ dirs.T                                    # (pairs, demand pairs)
    lower = (inner * inner) @ d / Z
    y1 = np.abs(inner) @ (d * dir_sq) / Z
    tight, p = _tightest(sq - y1, y1 - lower)
    witness = (int(pi[p]), int(pj[p]))
    if tight < -slack:
        raise PropertyViolationError(
            f"l1 distortion sandwich violated by {-tight:.2e} at pair {witness}",
            witness=witness, violation=-tight,
        )
    return DistortionAudit(tight, witness, len(pi))


@dataclass(frozen=True)
class BestDirection:
    pair: tuple[int, int]
    achieved: float            # sum_{i<j} <x_i-x_j, unit direction>^2
    total: float               # sum_{i<j} |x_i - x_j|^2
    margin: float              # min over r of achieved - (delta_r^2 / r) * total


def best_direction_lower_bound(vectors, slack: float = AUDIT_SLACK) -> BestDirection:
    """Best direction by projected mass, checked against the low-rank lower
    bound (delta^2 / r) * total for every r, where delta is the top-r mass
    fraction of the unweighted difference Gram spectrum."""
    X = _as_points(vectors)
    n = X.shape[0]
    pi, pj, E, sq, live = _live_directions(X)
    M = E @ E[live].T
    achieved_all = np.einsum("pq,pq->q", M, M) / sq[live]
    q = int(np.argmax(achieved_all))
    achieved = float(achieved_all[q])
    pair = (int(pi[live[q]]), int(pj[live[q]]))
    total = float(sq.sum())
    lam = np.clip(np.linalg.eigvalsh(E.T @ E), 0.0, None)[::-1]
    if len(lam) < n:
        lam = np.concatenate([lam, np.zeros(n - len(lam))])
    margin = np.inf
    lam_sum = lam.sum()
    if lam_sum > 0:
        for r in range(1, n + 1):
            delta = float(lam[:r].sum() / lam_sum)
            margin = min(margin, achieved - (delta * delta / r) * total)
    if margin < -slack:
        raise PropertyViolationError(
            f"best-direction bound violated by {-margin:.2e}", violation=-margin
        )
    return BestDirection(pair=pair, achieved=achieved, total=total, margin=float(margin))
