"""The sparsest-cut semidefinite relaxation and its solver.

The program, over a Gram matrix G of points x_1..x_n:

    minimize    sum_{i<j} c_ij |x_i - x_j|^2         (= <L_C, G>)
    subject to  sum_{k<l} d_kl |x_k - x_l|^2 = 1     (= <L_D, G> = 1)
                <x_i - x_l, x_k - x_l> >= 0          for all ordered triples
                G PSD

The demand-sum normalization turns the fractional objective into a linear
one.  `formulate` divides L_C and L_D by their Frobenius norms once; the
solver, its tolerances and the polish work on that unit-norm data, on which
the iterate is Xh = |L_D| G, and one site in `solve` rescales the result.
The solver is an augmented-Lagrangian alternating scheme on the dual, with
PSD projection by eigenvalue clamping and lazy generation of the cubic
triangle-constraint family: start with none, after each outer round add the
most violated triples, stop when no triple is violated beyond tolerance and
the KKT residuals are small.

Each iteration solves the normal equations Q y = rhs, Q = BB' + diag(0, I),
of the multiplier update over the active constraint rows B = [d; S]: the
normalization row over one triangle row per active triple.  Only
`_NormalEquations` knows the row format; it builds, applies and solves B in
svec coordinates.  Every row is a symmetric n x n matrix, so B has rank at
most p = n(n+1)/2 however many triples are active, and the solve runs on a
p x p matrix (Sherman-Morrison-Woodbury); no matrix of the size of the
active set is formed.  A non-finite dual iterate ends in ConvergenceError.

A final polish blends the iterate toward the strictly feasible scaled
identity, so returned solutions satisfy every triangle inequality exactly
(up to float rounding) and the normalization to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, InputError
from .graphs import WeightedGraphPair

EXTRACT_TOL = 1e-10
MU = 1.0             # penalty parameter (data is pre-normalized)
RELAX = 1.8          # over-relaxation on the multiplier update
ABS_GAP_TOL = 8e-5   # duality-gap certificate cap, on the unit-norm scale
SEP_BATCH_PER_VERTEX = 10  # triples added per separation round, per vertex
INNER_CAP = 25_000   # alternating iterations per round
TOTAL_CAP = 400_000  # alternating iterations overall


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-6      # max triangle violation of the unit-norm iterate on exit
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
    stop_reason: str        # kkt, certified-gap, no-fresh-triples, or the failure
    polish_shift: float     # objective after _finalize minus that of the last iterate


@dataclass(frozen=True)
class VectorConfiguration:
    """Points extracted from a solved Gram matrix, with feasibility residuals."""

    vectors: np.ndarray            # (n, m) rows are points
    objective_value: float         # <L_C, G> at unit demand normalization
    psd_residual: float            # max(0, -lambda_min) of the raw Gram iterate
    triangle_violation: float      # max over triples of max(0, -inner product)
    normalization_residual: float  # |sum d |x_k-x_l|^2 - 1|
    stats: SolveStats | None = None

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
    cost: np.ndarray = field(repr=False)    # L_C / cost_norm
    demand: np.ndarray = field(repr=False)  # L_D / demand_norm
    cost_norm: float                        # |L_C|_F, or 1 with no cost
    demand_norm: float                      # |L_D|_F

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def objective_scale(self) -> float:
        """Phi per unit of the objective <cost, Xh> on the unit-norm data."""
        return self.cost_norm / self.demand_norm

    def triangle_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical triples (I, K, L) with i < k, in lexicographic order."""
        return _canonical_triples(self.n)


def formulate(g: WeightedGraphPair) -> SdpProblem:
    if g.total_demand <= 0:
        raise InputError("total demand must be positive")
    LC, LD = g.cost_laplacian(), g.demand_laplacian()
    sc, sd = float(np.linalg.norm(LC)) or 1.0, float(np.linalg.norm(LD))
    return SdpProblem(g, LC / sc, LD / sd, sc, sd)


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
    within tolerance, or raises ConvergenceError carrying the partial state.
    The result is in the original units; the error's residuals (primal, dual,
    gap, triangle_violation) are on the unit-norm scale the solve runs on."""
    opts = opts or SolverOptions()
    n = problem.n
    sep_batch = SEP_BATCH_PER_VERTEX * n
    C, D = problem.cost, problem.demand
    normal = _NormalEquations(D)
    Iall, Kall, Lall = problem.triangle_triples()

    mu, relax = MU, RELAX
    Xh = np.eye(n) / np.trace(D)
    SX = np.zeros((n, n))
    is_active = np.zeros(len(Iall), dtype=bool)
    y = np.zeros(1)
    s = np.zeros(0)
    Ss = np.zeros(0)
    pres = dres = gap = worst = np.inf

    # 20x inside feas_tol, so the polish barely moves the objective
    vtarget = 0.05 * opts.feas_tol
    iterations = rounds = stalled_rounds = 0

    def _result(polish: bool, stop_reason: str) -> VectorConfiguration:
        vectors, objective, psd, norm_residual = _finalize(Xh, C, D, Iall, Kall, Lall, polish)
        # the one rescale site: G = Xh / |L_D|, Phi = <C, Xh> |L_C| / |L_D|
        vectors = vectors / np.sqrt(problem.demand_norm)
        phi = problem.objective_scale
        stats = SolveStats(
            iterations=iterations, rounds=rounds, active_constraints=int(is_active.sum()),
            dual_objective=float(y[0]) * phi, stop_reason=stop_reason,
            polish_shift=(objective - float((C * Xh).sum())) * phi)
        return VectorConfiguration(vectors, objective * phi, psd / problem.demand_norm,
                                   audit_triangle(vectors).max_violation, norm_residual, stats)

    def _fail(message: str):
        raise ConvergenceError(
            message,
            partial=_result(polish=False, stop_reason=message),
            residuals={"primal": float(pres), "dual": float(dres), "gap": float(gap),
                       "triangle_violation": float(worst)},
        )

    while True:
        rounds += 1
        # primal residual B·svec(Xh) - [1; s]: the normalization, then each
        # active triangle less its slack
        res = normal.values(Xh) - np.concatenate([[1.0], s])

        converged = None  # the test that passed
        for _ in range(INNER_CAP):
            iterations += 1
            rhs = normal.values(C - SX)
            rhs[1:] += Ss
            rhs -= mu * res
            y, By = normal.solve(rhs)
            if not np.isfinite(y).all():
                # before eigh sees it: the partial result is the last finite iterate
                _fail("non-finite dual iterate")

            V = C - By - mu * Xh
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
            res = normal.values(Xh) - np.concatenate([[1.0], s])

            if iterations % 25 == 0:
                pres = np.linalg.norm(res)
                p_obj = float((C * Xh).sum())
                gap = abs(p_obj - y[0])
                # relative contract with an absolute certificate cap; the
                # floor keeps a zero optimum within reach
                scale_u = max(abs(p_obj), abs(y[0]), 1e-6)
                gap_target = min(opts.obj_tol * scale_u, ABS_GAP_TOL)
                if pres < 1e-9:
                    if dres < 1e-8 and gap < 0.2 * gap_target:
                        converged = "kkt"  # dual settled; y0 is an honest bound
                        break
                    if dres < 1e-4 and gap < gap_target:
                        # degenerate instances: the dual residual levels off
                        # while the raw gap looks closed mid-transient, so
                        # trust only a corrected (valid) dual bound
                        if _certified_gap(p_obj, y, C, normal, Xh) < gap_target:
                            converged = "certified-gap"
                            break
            if iterations >= TOTAL_CAP:
                _fail(f"iteration budget {TOTAL_CAP} exhausted")

        viol = -_triangle_values(Xh, Iall, Kall, Lall)
        worst = float(viol.max(initial=0.0))
        if converged and worst <= vtarget:
            stop_reason = converged
            break
        # separate the most violated inactive triples, lexicographic tie order
        order = np.argsort(-viol, kind="stable")[: 4 * sep_batch]
        above = viol[order] > max(worst * 1e-3, 0.1 * vtarget)
        fresh = order[above & ~is_active[order]][:sep_batch]
        if len(fresh):
            # new triples enter with zero multipliers and slacks
            normal.extend(Iall[fresh], Kall[fresh], Lall[fresh])
            is_active[fresh] = True
            y, s, Ss = (np.concatenate([v, np.zeros(len(fresh))]) for v in (y, s, Ss))
            stalled_rounds = 0
        elif converged:
            stop_reason = "no-fresh-triples"  # nothing left above threshold
            break
        else:
            stalled_rounds += 1
            if stalled_rounds >= 4:
                _fail("alternating scheme stalled with residuals above tolerance")

    return _result(polish=True, stop_reason=stop_reason)


class _NormalEquations:
    """The constraint rows B = [d; S] of the multiplier update: the
    normalization row d over one triangle row per active triple, in the order
    the triples entered.  It applies B (`values`) and B' (`transpose`) and
    solves the normal equations Q y = r with Q = BB' + diag(0, I) (`solve`).

    Each row is a symmetric n x n matrix, held in orthonormal svec
    coordinates (the upper triangle, off-diagonal entries weighted sqrt 2),
    so B has p = n(n+1)/2 columns and the row of the triple (i, k, l),
    <x_i - x_l, x_k - x_l> = G_ik - G_il - G_kl + G_ll, has 4 nonzeros.
    With z = B'y the rows of Q y = r read
        d'z = r_0,    S z + y_t = r_t,
    hence H z = d y_0 + S'r_t for H = I + S'S, and
        z = H^-1 S'r_t + y_0 H^-1 d,    y_0 = (r_0 - d'H^-1 S'r_t) / d'H^-1 d,
        y_t = r_t - S z.
    H grows by the outer products of the triangle rows as they enter.  Its
    eigenvalues lie in [1, 1 + |S|^2], so its inverse is formed once per
    extension.
    """

    def __init__(self, D: np.ndarray):
        self.n = n = D.shape[0]
        iu, ju = np.triu_indices(n)
        self.scale = np.where(iu == ju, 1.0, np.sqrt(2.0))
        # svec position of each entry (i, j), either order
        self.index = np.empty((n, n), dtype=np.intp)
        self.index[iu, ju] = self.index[ju, iu] = np.arange(len(iu))
        self.D = D
        self.d = D[iu, ju] * self.scale
        self.H = np.eye(len(iu))
        self.S = sp.csr_matrix((0, len(iu)))
        self.entries = np.zeros((4, 0), dtype=np.intp)
        self.extend(*np.zeros((3, 0), dtype=np.intp))

    def extend(self, I, K, L) -> None:
        """Append the rows of the fresh triples (I, K, L)."""
        m, r = len(I), 0.5 * np.sqrt(2.0)
        # vec(G) positions of G_ik, G_il, G_kl and G_ll, one column per row
        entries = np.stack([I, I, K, L]) * self.n + np.stack([K, L, L, L])
        self.entries = np.hstack([self.entries, entries])
        cols = self.index.ravel()[entries.T.ravel()]  # svec positions, row by row
        new = sp.csr_matrix((np.tile([r, -r, -r, 1.0], m), cols, np.arange(0, 4 * m + 1, 4)),
                            shape=(m, len(self.d)))
        self.H += (new.T @ new).toarray()
        self.S = sp.vstack([self.S, new]).tocsr()
        self.ST = self.S.T.tocsr()
        self.Hinv = np.linalg.inv(self.H)
        self.h = self.Hinv @ self.d
        self.c = float(self.d @ self.h)  # > 0: the demand is not zero

    def values(self, X: np.ndarray) -> np.ndarray:
        """B·svec(X) for a symmetric n x n matrix X: <D, X>, then the
        triangle value of each held triple."""
        g = X.ravel()[self.entries]
        return np.concatenate([[np.vdot(self.D, X)], g[0] - g[1] - g[2] + g[3]])

    def unpack(self, z: np.ndarray) -> np.ndarray:
        """The symmetric n x n matrix with svec coordinates z."""
        return (z / self.scale)[self.index]

    def solve(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y with Q y = r, and B'y as an n x n matrix."""
        u = self.ST @ r[1:]
        y0 = (r[0] - self.h @ u) / self.c
        z = self.Hinv @ u + y0 * self.h
        return np.concatenate([[y0], r[1:] - self.S @ z]), self.unpack(z)

    def transpose(self, y: np.ndarray) -> np.ndarray:
        """B'y as an n x n matrix."""
        return self.unpack(self.d * y[0] + self.ST @ y[1:])


def _certified_gap(p_obj: float, y: np.ndarray, C: np.ndarray, normal: _NormalEquations,
                   Xh: np.ndarray) -> float:
    """Duality gap against a corrected, valid lower bound.

    For any multipliers with non-negative triangle components, weak duality
    gives  optimum >= y0 + lambda_min(C - B'y) * tr(X*).  The trace of an
    optimal solution is estimated by the current (feasible) iterate with 50%
    headroom; the correction vanishes as the dual iterate becomes feasible.
    """
    yc = y.copy()
    yc[1:] = np.maximum(yc[1:], 0.0)
    E = C - normal.transpose(yc)
    lmin = float(np.linalg.eigvalsh(0.5 * (E + E.T)).min())
    bound = float(yc[0]) + min(0.0, lmin) * 1.5 * float(np.trace(Xh))
    return p_obj - bound


def _finalize(Xh, C, D, Iall, Kall, Lall, polish: bool):
    """Blend toward the strictly feasible scaled identity to cancel the
    residual triangle violations, rescale the normalization to machine
    precision, and extract the point configuration, all on the unit-norm
    scale.  Returns the points, <C, X>, the PSD and normalization residuals."""
    n = Xh.shape[0]
    X = 0.5 * (Xh + Xh.T)
    psd_residual = max(0.0, -float(np.linalg.eigvalsh(X).min()))
    if polish and len(Iall):
        worst = max(float(np.max(-_triangle_values(X, Iall, Kall, Lall))), 0.0)
        alpha = 1.0 / np.trace(D)  # triangle slack of the scaled identity
        theta = (worst + 1e-14) / (worst + 1e-14 + alpha)
        X = (1.0 - theta) * X + theta * np.eye(n) * alpha
    norm = float((D * X).sum())
    if norm > 0:
        X = X / norm
    vectors = extract_vectors(X)
    Xv = vectors @ vectors.T
    # <C, X> >= 0 for PSD X; when the cost graph is disconnected and the
    # optimum is 0, float error leaves the sum a hair to either side of 0, so
    # a sum within eps of its terms' magnitudes is 0
    terms = C * Xv
    objective = float(terms.sum())
    if objective <= np.finfo(float).eps * float(np.abs(terms).sum()):
        objective = 0.0
    return vectors, objective, psd_residual, abs(float((D * Xv).sum()) - 1.0)
