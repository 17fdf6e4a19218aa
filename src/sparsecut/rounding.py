"""Line embeddings, all-pairs sweep-cut rounding, and the geometric audits.

The rounding scans every direction x_k - x_l, projects all points onto it
(landing in [0, 1] whenever the configuration satisfies the l2^2 triangle
inequalities), and returns the best threshold cut over all directions and
thresholds.  Swapping k and l maps p to 1 - p and yields complementary cuts
of equal sparsity, so only unordered pairs are scanned.

Every function here reads its points through `sdp._points`, which raises
InputError unless they are at least 2 finite points (one per vertex where a
graph is given) and moves x_0 to the origin.  Every quantity read is an inner
product of point differences, taken from one Gram matrix G of those points:
with A = G[:, k] - G[:, l], <x_i - x_j, x_k - x_l> = A[i] - A[j].  The
demand-weighted l1 embedding is never built: audit_distortion checks its l1
distances pair by pair.

Every verdict here (the rounding's input gate and the three audits) allows a
violation of at most VIOLATION_REL_TOL times s, the mean squared pair
distance, so it does not change when the points are scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDirectionError, InputError,
                     PropertyViolationError, RoundingError)
from .graphs import (Cut, CutResult, PairWeights, WeightedGraphPair, is_vertex,
                     sparsity, validate_weights)
from .sdp import TriangleAudit, _points, audit_triangle

DEGENERATE_REL_TOL = 1e-12
VIOLATION_REL_TOL = 1e-7


def _pair_geometry(X: np.ndarray):
    """The Gram matrix G of the points X from `_points`, the squared pair
    distances D2, and the pairs i < j with their squared distances sq."""
    G = X @ X.T
    diag = np.diag(G)
    D2 = diag[:, None] + diag[None, :] - 2 * G
    pi, pj = np.triu_indices(len(X), k=1)
    return G, D2, pi, pj, D2[pi, pj]


def _degenerate_threshold(sq: np.ndarray) -> float:
    return DEGENERATE_REL_TOL * float(sq.mean())


def _check(violation: float, sq: np.ndarray, what: str, witness=None) -> None:
    """Raise PropertyViolationError when `violation` exceeds VIOLATION_REL_TOL * s,
    where s = sq.mean() is the mean squared pair distance."""
    tol = VIOLATION_REL_TOL * float(sq.mean())
    if violation > tol:
        at = "" if witness is None else f" at {witness}"
        raise PropertyViolationError(
            f"{what} violated by {violation:.2e}{at} (tolerance {tol:.2e})",
            witness=witness, violation=violation,
        )


def require_feasible(triangle: TriangleAudit, vectors) -> None:
    """The rounding's input gate: raise PropertyViolationError when the
    triangle audit of `vectors` shows a violation above VIOLATION_REL_TOL * s."""
    sq = _pair_geometry(_points(vectors))[-1]
    _check(triangle.max_violation, sq, "triangle family", triangle.worst_triple)


def _live_directions(G, D2, sq, K: np.ndarray, L: np.ndarray):
    """The non-degenerate directions (K, L) among x_K[q] - x_L[q] (at least one,
    else DegenerateDirectionError), and over them A = G[:, K] - G[:, L], so that
    <x_i - x_j, x_k - x_l> = A[i, q] - A[j, q]."""
    live = D2[K, L] > _degenerate_threshold(sq)
    if not live.any():
        raise DegenerateDirectionError("all direction pairs are degenerate")
    K, L = K[live], L[live]
    return K, L, G[:, K] - G[:, L]


def _tightest(upper_slack: np.ndarray, lower_slack: np.ndarray) -> tuple[float, int]:
    """Smaller of the two minimum slacks and its flat index; upper wins ties."""
    u, l = int(np.argmin(upper_slack)), int(np.argmin(lower_slack))
    if upper_slack.flat[u] <= lower_slack.flat[l]:
        return float(upper_slack.flat[u]), u
    return float(lower_slack.flat[l]), l


def _projections(X: np.ndarray, K: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Projections onto the non-degenerate directions among x_K[q] - x_L[q];
    column q of the result, for (k, l) = (K[q], L[q]):

        p_i = <x_i - x_l, x_k - x_l> / |x_k - x_l|^2
            = (G_ik - G_il - G_lk + G_ll) / (G_kk + G_ll - 2 G_kl)
    """
    G, D2, *_, sq = _pair_geometry(X)
    K, L, A = _live_directions(G, D2, sq, K, L)
    return (A - G[L, K] + G[L, L]) / D2[K, L]


def line_embed(vectors, k: int, l: int) -> np.ndarray:
    """Projections p_i = <x_i - x_l, x_k - x_l> / |x_k - x_l|^2 for one direction."""
    X = _points(vectors)
    n = X.shape[0]
    if not (is_vertex(k, n) and is_vertex(l, n)) or k == l:
        raise InputError(f"bad direction pair ({k}, {l}) for n={n}")
    return _projections(X, np.array([k]), np.array([l]))[:, 0]


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
    """Best sweep cut over all directions and thresholds (the full rounding).

    The first minimum in scan order wins: directions (k, l) with k < l in
    lexicographic order, thresholds ascending, ties in p by vertex index.
    Raises PropertyViolationError on a configuration that violates the
    triangle family by more than VIOLATION_REL_TOL * s.
    """
    X = _points(vectors, g.n)
    n = X.shape[0]
    require_feasible(audit_triangle(X), X)
    try:
        P = _projections(X, *np.triu_indices(n, k=1))
    except DegenerateDirectionError as exc:
        raise RoundingError("all direction pairs are degenerate (coincident points)") from exc
    orders = np.argsort(P, axis=0, kind="stable")
    p_sorted = np.take_along_axis(P, orders, axis=0)
    Wc, Wd = g.cost_matrix(), g.demand_matrix()
    cost, dem = np.empty_like(P), np.empty_like(P)
    for q, order in enumerate(orders.T):
        cost[:, q] = _prefix_cut_values(Wc, order)
        dem[:, q] = _prefix_cut_values(Wd, order)
    # a threshold after sorted position t: tied vertices enter together, the
    # full set (t = n-1) is improper, and the cut must cross positive demand
    valid = np.zeros(P.shape, dtype=bool)
    valid[:-1] = (p_sorted[1:] > p_sorted[:-1]) & (dem[:-1] > 0.0)
    cells = np.flatnonzero(valid.T)  # q * n + t, in scan order
    if not cells.size:
        raise RoundingError("no sweep cut crosses positive demand")
    q, t = divmod(int(cells[np.argmin(cost.T[valid.T] / dem.T[valid.T])]), n)
    return sparsity(g, Cut.from_vertices(orders[: t + 1, q].tolist(), n))


@dataclass(frozen=True)
class ProjectionAudit:
    tightest_slack: float
    witness: tuple[int, int, int, int]
    checked: int


def audit_projection_bounds(vectors) -> ProjectionAudit:
    """Check, over every quadruple (i,j,k,l) with non-degenerate (k,l):

        <x_i-x_j, (x_k-x_l)/|x_k-x_l|>^2 <= |<x_i-x_j, x_k-x_l>| <= |x_i-x_j|^2

    Raises PropertyViolationError when either inequality fails by more than
    VIOLATION_REL_TOL * s.
    """
    G, D2, pi, pj, sq = _pair_geometry(_points(vectors))
    K, L, A = _live_directions(G, D2, sq, pi, pj)
    M = A[pi]                   # |A[i] - A[j]| in place: rows pairs p, cols directions q
    M -= A[pj]
    np.abs(M, out=M)
    tight, idx = _tightest(sq[:, None] - M,          # |x_i-x_j|^2 - |inner|
                           M - M * M / D2[K, L][None, :])  # |inner| - proj^2
    p, q = np.unravel_index(idx, M.shape)
    witness = (int(pi[p]), int(pj[p]), int(K[q]), int(L[q]))
    _check(-tight, sq, "projection sandwich", witness)
    return ProjectionAudit(tight, witness, 2 * M.size)


@dataclass(frozen=True)
class DistortionAudit:
    tightest_slack: float
    witness: tuple[int, int]
    pairs_checked: int


def audit_distortion(vectors, demand: PairWeights) -> DistortionAudit:
    """Check, for every pair (i, j), the l1-embedding distortion sandwich

        sum_kl d_kl <x_i-x_j, x_k-x_l>^2 / Z  <=  |y_i - y_j|_1  <=  |x_i - x_j|^2

    with the l1 distance of the demand-weighted embedding written out,

        |y_i - y_j|_1 = sum_kl d_kl |x_k - x_l|^2 |<x_i-x_j, x_k-x_l>| / Z,

    and Z = sum_kl d_kl |x_k - x_l|^2, within VIOLATION_REL_TOL * s."""
    X = _points(vectors)
    validate_weights(demand, len(X), "demand")
    pairs = sorted(pair for pair, w in demand.items() if w > 0)
    if not pairs:
        raise InputError("no positive demand pairs")
    d = np.array([demand[p] for p in pairs])
    K, L = np.array(pairs).T
    G, D2, pi, pj, sq = _pair_geometry(X)
    dir_sq = D2[K, L]
    Z = float((d * dir_sq).sum())
    if Z <= 0.0:
        raise InputError("total demand-weighted squared length is zero")
    A = G[:, K] - G[:, L]
    inner = A[pi] - A[pj]                                 # (pairs, demand pairs)
    lower = (inner * inner) @ d / Z
    y1 = np.abs(inner) @ (d * dir_sq) / Z
    tight, p = _tightest(sq - y1, y1 - lower)
    witness = (int(pi[p]), int(pj[p]))
    _check(-tight, sq, "l1 distortion sandwich", witness)
    return DistortionAudit(tight, witness, len(pi))


@dataclass(frozen=True)
class BestDirection:
    pair: tuple[int, int]
    achieved: float            # sum_{i<j} <x_i-x_j, unit direction>^2
    total: float               # sum_{i<j} |x_i - x_j|^2
    margin: float              # min over r of achieved - (delta_r^2 / r) * total


def best_direction_lower_bound(vectors) -> BestDirection:
    """Best direction by projected mass, checked against the low-rank lower
    bound (delta^2 / r) * total for every r, where delta is the top-r mass
    fraction of the unweighted difference Gram spectrum, within
    VIOLATION_REL_TOL * s."""
    G, D2, pi, pj, sq = _pair_geometry(_points(vectors))
    K, L, A = _live_directions(G, D2, sq, pi, pj)
    n = len(G)
    # per direction, sum_{i<j} (a_i - a_j)^2 = n |a - mean(a)|^2 over a column a of A
    A -= A.mean(axis=0)
    achieved_all = n * np.einsum("iq,iq->q", A, A) / D2[K, L]
    q = int(np.argmax(achieved_all))
    achieved = float(achieved_all[q])
    total = float(sq.sum())
    # sum_{i<j} (x_i - x_j)(x_i - x_j)' = n Xc'Xc for the centred points Xc, and
    # Xc Xc' = J G J has the same n eigenvalues up to zeros
    Gc = G - G.mean(axis=0) - G.mean(axis=1)[:, None] + G.mean()
    lam = n * np.clip(np.linalg.eigvalsh(Gc), 0.0, None)[::-1]
    # a live direction makes the spectrum's sum, the total, positive
    delta = np.cumsum(lam) / lam.sum()
    margin = float(np.min(achieved - delta * delta / np.arange(1, n + 1) * total))
    _check(-margin, sq, "best-direction bound")
    return BestDirection((int(K[q]), int(L[q])), achieved, total, margin)
