"""The sparsest-cut semidefinite relaxation and its solver.

The program, over a Gram matrix G of points x_1..x_n:

    minimize    sum_{i<j} c_ij |x_i - x_j|^2         (= <L_C, G>)
    subject to  sum_{k<l} d_kl |x_k - x_l|^2 = 1     (= <L_D, G> = 1)
                <x_i - x_l, x_k - x_l> >= 0          for all ordered triples
                G PSD

The demand-sum normalization turns the fractional objective into a linear
one.  The solver is an augmented-Lagrangian alternating scheme on the dual,
with PSD projection by eigenvalue clamping and lazy generation of the cubic
triangle-constraint family: start with none, after each outer round add the
most violated triples, stop when no triple is violated beyond tolerance and
the KKT residuals are small.  A final polish blends the iterate toward the
strictly feasible scaled identity, so returned solutions satisfy every
triangle inequality exactly (up to float rounding) and the normalization to
machine precision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConvergenceError, InputError
from .graphs import WeightedGraphPair

EXTRACT_TOL = 1e-10
MU = 1.0             # penalty parameter (data is pre-normalized)
RELAX = 1.8          # over-relaxation on the multiplier update
ABS_GAP_TOL = 8e-5   # absolute duality-gap certificate target
SEP_BATCH_PER_VERTEX = 10  # triples added per separation round, per vertex
INNER_CAP = 25_000   # alternating iterations per round
TOTAL_CAP = 400_000  # alternating iterations overall


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-6      # max triangle violation accepted on exit
    obj_tol: float = 1e-4       # relative duality-gap target
    max_outer: int = 10_000     # separation rounds

    def __post_init__(self):
        if self.feas_tol <= 0 or self.obj_tol <= 0:
            raise InputError("tolerances must be positive")
        if self.max_outer < 1:
            raise InputError("max_outer must be at least 1")


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    rounds: int
    active_constraints: int
    dual_objective: float
    wall_time_seconds: float


@dataclass(frozen=True)
class VectorConfiguration:
    """Points extracted from a solved Gram matrix, with feasibility residuals."""

    vectors: np.ndarray            # (n, m) rows are points
    objective_value: float         # <L_C, G> at unit demand normalization
    psd_residual: float            # max(0, -lambda_min) of the raw Gram iterate
    triangle_violation: float      # max over triples of max(0, -inner product)
    normalization_residual: float  # |sum d |x_k-x_l|^2 - 1|
    stats: SolveStats | None = None

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])

    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.T


@dataclass(frozen=True)
class SdpProblem:
    """The relaxation attached to a graph pair.

    The triangle family is indexed by ordered triples (i, k, l) of distinct
    vertices; since (i, k, l) and (k, i, l) give the same inequality, the
    solver and audits scan the canonical half with i < k.
    """

    graph: WeightedGraphPair
    cost_laplacian: np.ndarray = field(repr=False)
    demand_laplacian: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def triangle_count(self) -> int:
        n = self.n
        return n * (n - 1) * (n - 2)

    def triangle_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical triples (I, K, L) with i < k, in lexicographic order."""
        return _canonical_triples(self.n)


def formulate(g: WeightedGraphPair) -> SdpProblem:
    if g.total_demand <= 0:
        raise InputError("total demand must be positive")
    return SdpProblem(g, g.cost_laplacian(), g.demand_laplacian())


def _canonical_triples(n: int):
    if n < 3:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty.copy(), empty.copy()
    iu, ku = np.triu_indices(n, k=1)
    I = np.repeat(iu, n)
    K = np.repeat(ku, n)
    L = np.tile(np.arange(n), len(iu))
    keep = (L != I) & (L != K)
    return I[keep], K[keep], L[keep]


def _triangle_values(G: np.ndarray, I, K, L) -> np.ndarray:
    """<x_i - x_l, x_k - x_l> for each triple, from the Gram matrix."""
    return G[I, K] - G[I, L] - G[K, L] + G[L, L]


def _triangle_rows(n: int, I, K, L) -> sp.csr_matrix:
    """Sparse constraint rows over vec(G) for the given triples."""
    m = len(I)
    rows = np.repeat(np.arange(m), 7)
    cols = np.empty((m, 7), dtype=np.intp)
    vals = np.empty((m, 7))
    cols[:, 0], vals[:, 0] = I * n + K, 0.5
    cols[:, 1], vals[:, 1] = K * n + I, 0.5
    cols[:, 2], vals[:, 2] = I * n + L, -0.5
    cols[:, 3], vals[:, 3] = L * n + I, -0.5
    cols[:, 4], vals[:, 4] = K * n + L, -0.5
    cols[:, 5], vals[:, 5] = L * n + K, -0.5
    cols[:, 6], vals[:, 6] = L * n + L, 1.0
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(m, n * n))


@dataclass(frozen=True)
class TriangleAudit:
    max_violation: float
    worst_triple: tuple[int, int, int] | None


def audit_triangle(vectors: np.ndarray) -> TriangleAudit:
    """Exhaustive scan of the triangle family; max of -<x_i-x_l, x_k-x_l>."""
    X = np.asarray(vectors, dtype=float)
    n = X.shape[0]
    I, K, L = _canonical_triples(n)
    if not len(I):
        return TriangleAudit(0.0, None)
    G = X @ X.T
    viol = -_triangle_values(G, I, K, L)
    t = int(np.argmax(viol))
    worst = float(viol[t]) if viol[t] > 0 else 0.0
    return TriangleAudit(worst, (int(I[t]), int(K[t]), int(L[t])))


def extract_vectors(G: np.ndarray) -> np.ndarray:
    """Factor G = X X' by eigendecomposition, dropping eigenvalues below
    EXTRACT_TOL * trace(G); small negative eigenvalues are clamped to zero."""
    G = np.asarray(G, dtype=float)
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    cut = EXTRACT_TOL * max(float(np.trace(G)), 0.0)
    keep = w > cut
    if not keep.any():
        return np.zeros((G.shape[0], 1))
    return V[:, keep] * np.sqrt(w[keep])


def solve(problem: SdpProblem, opts: SolverOptions | None = None) -> VectorConfiguration:
    """Solve the relaxation; returns a configuration whose residuals are
    within tolerance, or raises ConvergenceError carrying the partial state."""
    opts = opts or SolverOptions()
    t_start = time.perf_counter()
    n = problem.n
    sep_batch = SEP_BATCH_PER_VERTEX * n
    LC, LD = problem.cost_laplacian, problem.demand_laplacian

    # Normalize the data so a fixed penalty parameter behaves uniformly
    # across weight scales; Xh = sd * G throughout.
    sc = float(np.linalg.norm(LC)) or 1.0
    sd = float(np.linalg.norm(LD))
    C = LC / sc
    d_row = (LD / sd).ravel()
    Iall, Kall, Lall = problem.triangle_triples()

    mu, relax = MU, RELAX
    Xh = np.eye(n) * (sd / np.trace(LD))
    SX = np.zeros((n, n))
    active = np.zeros(0, dtype=np.intp)
    y = np.zeros(1)
    s = np.zeros(0)
    Ss = np.zeros(0)
    pres = dres = gap = np.inf
    worst = np.inf

    # Violation target on the Xh scale: 20x inside feas_tol so the polish
    # blend moves the objective by a negligible amount.
    vtarget = 0.05 * opts.feas_tol * sd
    iterations = 0
    rounds = 0
    stalled_rounds = 0

    def _fail(message: str):
        config = _finalize(Xh, sd, LC, LD, Iall, Kall, Lall, polish=False)
        stats = SolveStats(iterations, rounds, len(active), float(y[0]) * sc / sd,
                           time.perf_counter() - t_start)
        raise ConvergenceError(
            message,
            partial=replace(config, stats=stats),
            residuals={"primal": float(pres), "dual": float(dres), "gap": float(gap),
                       "triangle_violation": float(worst / sd)},
        )

    while True:
        if rounds >= opts.max_outer:
            _fail(f"no convergence after {rounds} separation rounds")
        rounds += 1
        I, K, L = Iall[active], Kall[active], Lall[active]
        m = len(active)
        if m:
            R = _triangle_rows(n, I, K, L)
            B = sp.vstack([sp.csr_matrix(d_row), R]).tocsr()
        else:
            B = sp.csr_matrix(d_row)
        Q = (B @ B.T).toarray()
        if m:
            Q[1:, 1:][np.diag_indices(m)] += 1.0  # slack block of the normal matrix
        chol = sla.cho_factor(Q)
        b = np.zeros(m + 1)
        b[0] = 1.0
        if len(y) != m + 1:  # warm start: zeros for newly added constraints
            y = np.concatenate([y, np.zeros(m + 1 - len(y))])
            s = np.concatenate([s, np.zeros(m - len(s))])
            Ss = np.concatenate([Ss, np.zeros(m - len(Ss))])

        converged = False
        for _ in range(INNER_CAP):
            iterations += 1
            BW = np.empty(m + 1)
            BW[0] = d_row @ Xh.ravel()
            if m:
                BW[1:] = _triangle_values(Xh, I, K, L) - s
            CS = C - SX
            rhs = mu * (b - BW)
            rhs[0] += d_row @ CS.ravel()
            if m:
                rhs[1:] += _triangle_values(CS, I, K, L) + Ss
            y = sla.cho_solve(chol, rhs)

            V = C - (B.T @ y).reshape(n, n) - mu * Xh
            V = 0.5 * (V + V.T)
            w, U = np.linalg.eigh(V)
            pos = w > 0
            SX = (U[:, pos] * w[pos]) @ U[:, pos].T
            Xp = (U[:, ~pos] * (-w[~pos] / mu)) @ U[:, ~pos].T
            Xn = Xh + relax * (Xp - Xh)
            if m:
                Vs = y[1:] - mu * s
                Ss = np.maximum(Vs, 0.0)
                sn = s + relax * (np.maximum(-Vs, 0.0) / mu - s)
            else:
                sn = s
            dres = mu * (np.linalg.norm(Xn - Xh) + (np.linalg.norm(sn - s) if m else 0.0))
            Xh, s = Xn, sn

            if iterations % 25 == 0:
                BW[0] = d_row @ Xh.ravel()
                if m:
                    BW[1:] = _triangle_values(Xh, I, K, L) - s
                pres = np.linalg.norm(BW - b)
                p_obj = float((C * Xh).sum())
                gap = abs(p_obj - y[0]) * sc / sd
                # relative contract with an absolute certificate cap, in the
                # units of the original objective
                scale_u = max(abs(p_obj), abs(y[0]), 1e-2) * sc / sd
                gap_target = min(opts.obj_tol * scale_u, ABS_GAP_TOL)
                if pres < 1e-9:
                    if dres < 1e-8 and gap < 0.2 * gap_target:
                        converged = True  # dual settled; y0 is an honest bound
                        break
                    if dres < 1e-4 and gap < gap_target:
                        # degenerate instances: the dual residual levels off
                        # while the raw gap looks closed mid-transient, so
                        # trust only a corrected (valid) dual bound
                        cert = _certified_gap(p_obj, y, C, B, Xh, m) * sc / sd
                        if cert < gap_target:
                            converged = True
                            break
            if iterations >= TOTAL_CAP:
                _fail(f"iteration budget {TOTAL_CAP} exhausted")

        if len(Iall):
            viol = -_triangle_values(Xh, Iall, Kall, Lall)
            worst = float(viol.max())
        else:
            viol = np.zeros(0)
            worst = 0.0
        if converged and worst <= vtarget:
            break
        # separate the most violated triples, lexicographic tie order
        known = set(active.tolist())
        order = np.argsort(-viol, kind="stable")
        fresh = [t for t in order[: 4 * sep_batch]
                 if viol[t] > max(worst * 1e-3, 0.1 * vtarget) and t not in known]
        fresh = fresh[:sep_batch]
        if fresh:
            active = np.concatenate([active, np.asarray(fresh, dtype=np.intp)])
            stalled_rounds = 0
        elif converged:
            break  # nothing left above threshold and the KKT system is tight
        else:
            stalled_rounds += 1
            if stalled_rounds >= 4:
                _fail("alternating scheme stalled with residuals above tolerance")

    config = _finalize(Xh, sd, LC, LD, Iall, Kall, Lall, polish=True)
    stats = SolveStats(iterations, rounds, len(active), float(y[0]) * sc / sd,
                       time.perf_counter() - t_start)
    return replace(config, stats=stats)


def _certified_gap(p_obj: float, y: np.ndarray, C: np.ndarray, B, Xh: np.ndarray,
                   m: int) -> float:
    """Duality gap against a corrected, valid lower bound.

    For any multipliers with non-negative triangle components, weak duality
    gives  optimum >= y0 + lambda_min(C - B'y) * tr(X*).  The trace of an
    optimal solution is estimated by the current (feasible) iterate with 50%
    headroom; the correction vanishes as the dual iterate becomes feasible.
    """
    yc = y.copy()
    if m:
        yc[1:] = np.maximum(yc[1:], 0.0)
    E = C - (B.T @ yc).reshape(Xh.shape)
    lmin = float(np.linalg.eigvalsh(0.5 * (E + E.T)).min())
    bound = float(yc[0]) + min(0.0, lmin) * 1.5 * float(np.trace(Xh))
    return p_obj - bound


def _finalize(Xh, sd, LC, LD, Iall, Kall, Lall, polish: bool) -> VectorConfiguration:
    """Blend toward the strictly feasible scaled identity to cancel the
    residual triangle violations, rescale the normalization to machine
    precision, and extract the point configuration."""
    n = Xh.shape[0]
    G = 0.5 * (Xh + Xh.T) / sd
    psd_residual = max(0.0, -float(np.linalg.eigvalsh(G).min()))
    if polish and len(Iall):
        worst = max(float(np.max(-_triangle_values(G, Iall, Kall, Lall))), 0.0)
        alpha = 1.0 / np.trace(LD)  # triangle slack of the scaled identity
        theta = (worst + 1e-14) / (worst + 1e-14 + alpha)
        G = (1.0 - theta) * G + theta * np.eye(n) / np.trace(LD)
    norm = float((LD * G).sum())
    if norm > 0:
        G = G / norm
    vectors = extract_vectors(G)
    Gv = vectors @ vectors.T
    # <L_C, G> >= 0 for PSD G; float error can leave it a hair below zero
    # when the cost graph is disconnected and the optimum is 0
    objective = max(0.0, float((LC * Gv).sum()))
    normalization_residual = abs(float((LD * Gv).sum()) - 1.0)
    return VectorConfiguration(
        vectors=vectors,
        objective_value=objective,
        psd_residual=psd_residual,
        triangle_violation=audit_triangle(vectors).max_violation,
        normalization_residual=normalization_residual,
    )
