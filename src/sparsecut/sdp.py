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
the KKT residuals are small.

Each iteration solves the normal equations of the multiplier update,
Q y = rhs with Q = BB' + diag(0, I) over the active constraint rows B.
Triples only enter, appended after the earlier ones, so each round's Q has
the previous one as its leading block: the Cholesky factor is grown by the
fresh rows, never rebuilt.  The solves skip scipy's finiteness scans; a
non-finite dual iterate ends the solve in ConvergenceError instead.

A final polish blends the iterate toward the strictly feasible scaled
identity, so returned solutions satisfy every triangle inequality exactly
(up to float rounding) and the normalization to machine precision.
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

    def __post_init__(self):
        # NaN fails both comparisons
        if not (0 < self.feas_tol < np.inf and 0 < self.obj_tol < np.inf):
            raise InputError("tolerances must be finite and positive")


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

    def triangle_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical triples (I, K, L) with i < k, in lexicographic order."""
        return _canonical_triples(self.n)


def formulate(g: WeightedGraphPair) -> SdpProblem:
    if g.total_demand <= 0:
        raise InputError("total demand must be positive")
    return SdpProblem(g, g.cost_laplacian(), g.demand_laplacian())


def _canonical_triples(n: int):
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
    # x_0 to the origin: far from it, G would lose the differences to cancellation
    X = X - X[0]
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
    is_active = np.zeros(len(Iall), dtype=bool)
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

    def _result(polish: bool) -> VectorConfiguration:
        config = _finalize(Xh, sd, LC, LD, Iall, Kall, Lall, polish=polish)
        stats = SolveStats(iterations, rounds, len(active), float(y[0]) * sc / sd,
                           time.perf_counter() - t_start)
        return replace(config, stats=stats)

    def _fail(message: str):
        raise ConvergenceError(
            message,
            partial=_result(polish=False),
            residuals={"primal": float(pres), "dual": float(dres), "gap": float(gap),
                       "triangle_violation": float(worst / sd)},
        )

    # lower Cholesky factor of the normal matrix, grown as triples enter
    chol = np.zeros((0, 0), order="F")
    while True:
        rounds += 1
        # row 0 is the normalization, row 1 + j the j-th active triple
        I, K, L = Iall[active], Kall[active], Lall[active]
        m = len(active)
        B = sp.vstack([sp.csr_matrix(d_row), _triangle_rows(n, I, K, L)]).tocsr()
        BT = B.T.tocsr()
        chol = _extend_factor(chol, B)
        b = np.zeros(m + 1)
        b[0] = 1.0
        BW = _constraint_values(d_row, Xh, s, I, K, L)

        converged = False
        for _ in range(INNER_CAP):
            iterations += 1
            CS = C - SX
            rhs = mu * (b - BW)
            rhs[0] += d_row @ CS.ravel()
            rhs[1:] += _triangle_values(CS, I, K, L) + Ss
            y = sla.cho_solve((chol, True), rhs, check_finite=False)
            if not np.isfinite(y).all():
                # before eigh sees it: the partial result is the last finite iterate
                _fail("non-finite dual iterate")

            V = C - (BT @ y).reshape(n, n) - mu * Xh
            V = 0.5 * (V + V.T)
            w, U = np.linalg.eigh(V)
            pos = w > 0
            SX = (U[:, pos] * w[pos]) @ U[:, pos].T
            Xp = (U[:, ~pos] * (-w[~pos] / mu)) @ U[:, ~pos].T
            Xn = Xh + relax * (Xp - Xh)
            Vs = y[1:] - mu * s
            Ss = np.maximum(Vs, 0.0)
            sn = s + relax * (np.maximum(-Vs, 0.0) / mu - s)
            dres = mu * (np.linalg.norm(Xn - Xh) + np.linalg.norm(sn - s))
            Xh, s = Xn, sn
            BW = _constraint_values(d_row, Xh, s, I, K, L)

            if iterations % 25 == 0:
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
                        cert = _certified_gap(p_obj, y, C, BT, Xh) * sc / sd
                        if cert < gap_target:
                            converged = True
                            break
            if iterations >= TOTAL_CAP:
                _fail(f"iteration budget {TOTAL_CAP} exhausted")

        viol = -_triangle_values(Xh, Iall, Kall, Lall)
        worst = float(viol.max(initial=0.0))
        if converged and worst <= vtarget:
            break
        # separate the most violated inactive triples, lexicographic tie order
        order = np.argsort(-viol, kind="stable")[: 4 * sep_batch]
        above = viol[order] > max(worst * 1e-3, 0.1 * vtarget)
        fresh = order[above & ~is_active[order]][:sep_batch]
        if len(fresh):
            # new triples enter with zero multipliers and slacks
            active = np.concatenate([active, fresh])
            is_active[fresh] = True
            y, s, Ss = (np.concatenate([v, np.zeros(len(fresh))]) for v in (y, s, Ss))
            stalled_rounds = 0
        elif converged:
            break  # nothing left above threshold and the KKT system is tight
        else:
            stalled_rounds += 1
            if stalled_rounds >= 4:
                _fail("alternating scheme stalled with residuals above tolerance")

    return _result(polish=True)


def _extend_factor(L: np.ndarray, B) -> np.ndarray:
    """Lower Cholesky factor of the normal matrix Q = BB' + diag(0, I).

    L factors the leading block of Q, over the first rows of B; the rows of B
    past them enter as the trailing block:
        L21 = (L11^-1 Q12)',   L22 = chol(Q22 - L21 L21').
    The factor is Fortran-ordered, the layout LAPACK reads without a copy.
    """
    m0 = L.shape[0]
    old, new = B[:m0], B[m0:]
    L21 = sla.solve_triangular(L, (old @ new.T).toarray(), lower=True, check_finite=False).T
    Q22 = (new @ new.T).toarray() - L21 @ L21.T
    Q22[np.diag_indices_from(Q22)] += np.arange(m0, B.shape[0]) > 0  # slacks; row 0 has none
    out = np.zeros((B.shape[0], B.shape[0]), order="F")
    out[:m0, :m0] = L
    out[m0:, :m0] = L21
    out[m0:, m0:] = sla.cholesky(Q22, lower=True, check_finite=False)
    return out


def _constraint_values(d_row: np.ndarray, Xh: np.ndarray, s: np.ndarray, I, K, L) -> np.ndarray:
    """B·vec(Xh) - [0, s]: the normalization, then each active triangle less
    its slack."""
    return np.concatenate([[d_row @ Xh.ravel()], _triangle_values(Xh, I, K, L) - s])


def _certified_gap(p_obj: float, y: np.ndarray, C: np.ndarray, BT, Xh: np.ndarray) -> float:
    """Duality gap against a corrected, valid lower bound.

    For any multipliers with non-negative triangle components, weak duality
    gives  optimum >= y0 + lambda_min(C - B'y) * tr(X*).  The trace of an
    optimal solution is estimated by the current (feasible) iterate with 50%
    headroom; the correction vanishes as the dual iterate becomes feasible.
    """
    yc = y.copy()
    yc[1:] = np.maximum(yc[1:], 0.0)
    E = C - (BT @ yc).reshape(Xh.shape)
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
