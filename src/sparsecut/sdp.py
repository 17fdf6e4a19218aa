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
The solver is one loop of an augmented-Lagrangian alternating scheme on
the dual (Wen, Goldfarb & Yin 2010), with PSD projection by eigenvalue
clamping, computed from the non-positive eigenpairs (the primal block is low
rank), and lazy generation of the cubic triangle-constraint family: it
starts with no triple, and every 25th iteration is a checkpoint that may add
the most violated ones.  The solve stops there on one test, the KKT test
(primal residual below 1e-9, dual residual below 1e-8, duality gap within
its share of the error budget below), once no triple is violated beyond
vtarget or none is left to add.  Otherwise the checkpoint separates, which
ends a round, when the KKT test passed on the active set, or earlier, once
the residuals bound every active triple's violation below the worst
violation among the inactive triples: the worst triple is then inactive,
and separation adds it.  TOTAL_CAP iterations is the one budget; a solve that reaches it ends
in ConvergenceError.

The penalty mu starts at MU and is only ever lowered: at a checkpoint where
the primal residual is below a tenth of the dual residual, mu is divided by
MU_SHRINK, down to MU_FLOOR, and it is kept across rounds (residual
balancing: Wen, Goldfarb & Yin 2010, section 3.3; Boyd et al. 2011, section
3.4.1).  With mu fixed at 1, uniform instances drifted for thousands of
iterations with the primal residual near 1e-14 and the dual one at 3e-3.
Raising mu too, when the primal residual is the larger, cost planted
instances iterations.  mu enters no matrix the solver factors, and the dual
residual is a dual infeasibility whatever mu is, so the KKT test reads the
same.

Each iteration solves the normal equations Q y = B w + e, Q = BB' +
diag(0, I), of the multiplier update over the active constraint rows
B = [d; S]: the normalization row over one triangle row per active triple,
with w = svec(C - SX - mu Xh) and e = [mu; Ss + mu s].  The triangle
family is held once, as the flat positions of the four entries G_ik, G_il,
G_kl, G_ll of each canonical triple (`_triangle_positions`); the scans read
the triangle values through them, and `_NormalEquations` maps them to svec
coordinates.  Every row is a symmetric n x n matrix, so B has rank at most
p = n(n+1)/2 however many triples are active, and the solve runs on the
p x p matrix H = I + S'S (Sherman-Morrison-Woodbury); no matrix of the size
of the active set is formed.  Since H^-1 S'S = I - H^-1, the B w terms fold
into one vector: an iteration costs one scatter S'e, one product with H^-1
and one gather S a, and the next matrix C - B'y - mu Xh is SX less the
matrix of a.  A triangle row touches 4 svec coordinates, and H (so H^-1) is
exactly the identity on every coordinate no active row touches, so H^-1 is
held only on the t <= p touched ones, the live coordinates, and updated there
by the rank-k Woodbury identity as k triples enter, in pieces of at most
WOODBURY_PIECE rows, each by a Cholesky factor and one symmetric product; H
itself is never stored.  The product with H^-1 costs O(t^2) and an update
O(t^2 k).  A non-finite dual iterate or a failed eigensolver ends in
ConvergenceError.

A final polish blends the iterate toward the strictly feasible scaled
identity, so returned solutions satisfy every triangle inequality exactly
(up to float rounding) and the normalization to machine precision.  Its
shift of the objective grows with the worst violation.  Phi(SDP) has one
error budget, obj_tol relative: the polish may spend POLISH_SHARE of it, the
gap the rest, and vtarget is feas_tol or, if smaller, the worst violation at
which the polish spends its share (at least 1e-14, the blend's own floor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InputError
from .graphs import WeightedGraphPair

EXTRACT_TOL = 1e-10
MU = 1.0             # starting penalty (data is pre-normalized)
RELAX = 1.8          # over-relaxation on the multiplier update
POLISH_SHARE = 0.1   # share of the obj_tol budget the final polish may move Phi(SDP)
SEP_BATCH_PER_VERTEX = 10  # triples added per separation round, per vertex
MU_SHRINK = 1.5      # a checkpoint with pres < 0.1 dres divides mu by this
MU_FLOOR = 1e-2      # lowest mu; with none, uniform 8/193 drifts to 4.5e-4 and slows
# alternating iterations per solve, the one budget; the longest solve of the
# acceptance corpus, planted-large and planted 48/3 takes 1,575 (1,600 with
# both tolerances at 1e-12)
TOTAL_CAP = 100_000
# From this n the PSD split computes only the non-positive eigenpairs, by
# LAPACK dsyevr: 116 us a split at n = 36, against 239 us with a full eigh.
# Importing scipy.linalg for it adds about 28 MB and 0.3 s to a numpy-only
# process, so a run that solves only small instances, where the full eigh is
# within about 20 us, skips it.
SUBSET_EIG_MIN_N = 16
# fresh rows per piece of the Woodbury update in `_NormalEquations.extend`:
# best of 3 on 2 BLAS threads, pieces of 64, 128 and 256 solved the four
# planted-large instances (n 24..36) in 0.32, 0.31 and 0.33 s and planted
# 64/3 in 1.85, 1.43 and 1.45 s
WOODBURY_PIECE = 128


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-6      # cap on the worst triangle violation of the unit-norm iterate
    obj_tol: float = 1e-4       # relative error budget of Phi(SDP): duality gap plus polish

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
    stop_reason: str        # kkt, no-fresh-triples, or the failure
    polish_shift: float     # objective after _finalize minus that of the last iterate
    penalty: float          # final mu: MU, or lower where pres sat far below dres


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
        flat = _triangle_positions(self.n)
        return (*np.divmod(flat[0], self.n), flat[1] % self.n)


def formulate(g: WeightedGraphPair) -> SdpProblem:
    if g.total_demand <= 0:
        raise InputError("total demand must be positive")
    if g.n >= SUBSET_EIG_MIN_N:
        # the PSD split will need dsyevr: load scipy.linalg here (about 0.3 s
        # in a fresh process), so that the solve's time does not include it
        import scipy.linalg.lapack  # noqa: F401
    LC, LD = g.cost_laplacian(), g.demand_laplacian()
    sc, sd = float(np.linalg.norm(LC)) or 1.0, float(np.linalg.norm(LD))
    return SdpProblem(g, LC / sc, LD / sd, sc, sd)


def _triangle_positions(n: int) -> np.ndarray:
    """The triangle family: for each canonical triple (i, k, l), i < k, in
    lexicographic order, the flat positions in an n x n matrix of G_ik,
    G_il, G_kl and G_ll, one column per triple."""
    iu, ku = np.triu_indices(n, k=1)
    I, K = np.repeat(iu, n), np.repeat(ku, n)
    L = np.tile(np.arange(n), len(iu))
    keep = (L != I) & (L != K)
    I, K, L = I[keep], K[keep], L[keep]
    return np.stack([I * n + K, I * n + L, K * n + L, L * (n + 1)])


def _triangle_values(G: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """<x_i - x_l, x_k - x_l> for each triple, from the Gram matrix and the
    triples' `_triangle_positions`."""
    g = G.ravel()
    return np.take(g, flat[0]) - np.take(g, flat[1]) - np.take(g, flat[2]) + np.take(g, flat[3])


@dataclass(frozen=True)
class TriangleAudit:
    max_violation: float
    worst_triple: tuple[int, int, int] | None


def _points(vectors, n: int | None = None) -> np.ndarray:
    """The (n, m) points with x_0 moved to the origin (far from it, a Gram
    matrix would lose the differences to cancellation); InputError unless
    they are at least 2 finite points, exactly n when n is given."""
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InputError(f"expected an (n, m) array with n >= 2, got shape {X.shape}")
    if n is not None and X.shape[0] != n:
        raise InputError(f"configuration has {X.shape[0]} points, graph has {n} vertices")
    if not np.isfinite(X).all():
        raise InputError("point coordinates must be finite")
    return X - X[0]


def audit_triangle(vectors: np.ndarray) -> TriangleAudit:
    """Exhaustive scan of the triangle family; max of -<x_i-x_l, x_k-x_l>."""
    X = _points(vectors)
    n = len(X)
    flat = _triangle_positions(n)
    if not flat.shape[1]:
        return TriangleAudit(0.0, None)
    viol = -_triangle_values(X @ X.T, flat)
    t = int(np.argmax(viol))
    worst = float(viol[t]) if viol[t] > 0 else 0.0
    return TriangleAudit(worst, (*divmod(int(flat[0, t]), n), int(flat[1, t]) % n))


def extract_vectors(G: np.ndarray) -> np.ndarray:
    """Factor G = X X' by eigendecomposition (`_factor`)."""
    G = np.asarray(G, dtype=float)
    return _factor(*np.linalg.eigh(0.5 * (G + G.T)))


def _factor(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The points X with X X' = V diag(w) V', dropping eigenvalues below
    EXTRACT_TOL * sum(w); small negative eigenvalues are clamped to zero."""
    keep = w > EXTRACT_TOL * max(float(w.sum()), 0.0)
    return V[:, keep] * np.sqrt(w[keep]) if keep.any() else np.zeros((len(w), 1))


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
    flat = _triangle_positions(n)
    active = np.zeros(0, dtype=np.intp)  # columns of flat, in the order they entered

    mu, relax = MU, RELAX
    Xh = np.eye(n) / np.trace(D)
    SX = np.zeros((n, n))
    y0 = 0.0
    s = np.zeros(0)
    Ss = np.zeros(0)
    pres = dres = gap = worst = np.inf
    # the polish blends Xh toward alpha I, whose triangle values are all alpha, by
    # theta(worst) = (worst + 1e-14) / (worst + 1e-14 + alpha): a triangle value of
    # -worst ends above 0, and p_obj rises by theta (<C, alpha I> - p_obj)
    alpha = 1.0 / np.trace(D)
    iterations, rounds = 0, 1

    def _result(polish: bool, stop_reason: str) -> VectorConfiguration:
        theta = (worst + 1e-14) / (worst + 1e-14 + alpha) if polish else 0.0
        vectors, objective, psd, norm_residual = _finalize(Xh, C, D, alpha, theta)
        # the one rescale site: G = Xh / |L_D|, Phi = <C, Xh> |L_C| / |L_D|
        vectors = vectors / np.sqrt(problem.demand_norm)
        phi = problem.objective_scale
        stats = SolveStats(
            iterations=iterations, rounds=rounds, active_constraints=len(active),
            dual_objective=float(y0) * phi, stop_reason=stop_reason,
            polish_shift=(objective - float((C * Xh).sum())) * phi, penalty=mu)
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
        iterations += 1
        # the multiplier update of the module docstring
        y0, yt, A = normal.step(C - SX - mu * Xh, mu, Ss + mu * s)
        if not (np.isfinite(y0) and np.isfinite(yt).all()):
            # before the eigensolver sees it: the partial result is the last finite iterate
            _fail("non-finite dual iterate")

        V = SX - A  # = C - B'y - mu Xh
        try:
            SX, Xp = _psd_split(0.5 * (V + V.T), mu)
        except np.linalg.LinAlgError:
            _fail("eigensolver failed")
        Xn = Xh + relax * (Xp - Xh)
        Vs = yt - mu * s
        Ss = np.maximum(Vs, 0.0)
        sn = s + relax * (np.maximum(-Vs, 0.0) / mu - s)
        checkpoint = iterations % 25 == 0
        if checkpoint:
            # the dual residual: only the checkpoint and _fail read it
            dres = mu * (np.linalg.norm(Xn - Xh) + np.linalg.norm(sn - s))
        Xh, s = Xn, sn

        # the checkpoint: stop, adapt mu, end the round and separate
        if checkpoint:
            viol = -_triangle_values(Xh, flat)
            worst = float(viol.max(initial=0.0))
            # primal residual B·svec(Xh) - [1; s]: normalization, active triangles less slacks
            pres = np.linalg.norm(np.concatenate([[(D * Xh).sum() - 1.0], -viol[active] - s]))
            viol[active] = 0.0  # from here on, only the inactive triples' violations
            p_obj = float((C * Xh).sum())
            gap = abs(p_obj - y0)
            # the error budget of Phi(SDP); the floor keeps a zero optimum within reach
            budget = opts.obj_tol * max(abs(p_obj), abs(y0), 1e-6)
            # the polish moves p_obj by at most b, its share, while worst <= w*, where
            # theta(w*) = b / rise; w* has no limit if rise <= b, and is at least the
            # 1e-14 of theta, below which theta is within a factor 2 of theta(0)
            b, rise = POLISH_SHARE * budget, alpha * np.trace(C) - p_obj
            w_star = max(alpha * b / (rise - b) - 1e-14, 1e-14) if rise > b else np.inf
            vtarget = min(opts.feas_tol, w_star)
            # the active set converged; y0 is an honest bound
            kkt = pres < 1e-9 and dres < 1e-8 and gap < (1.0 - POLISH_SHARE) * budget
            if kkt and worst <= vtarget:
                stop_reason = "kkt"
                break
            # the one-way residual balancing of the module docstring
            if not kkt and pres < 0.1 * dres:
                mu = max(mu / MU_SHRINK, MU_FLOOR)
            # round exit.  An active triple's violation is below
            # pres + (RELAX - 1) / RELAX * dres / mu (its over-relaxed slack dips at
            # most that far below 0; mu only fell since dres): once that is below
            # w_in, the worst triple is inactive, and separation adds it
            w_in = float(viol.max(initial=0.0))
            if kkt or (w_in > vtarget and pres + (RELAX - 1) / RELAX * dres / mu < w_in):
                # separate the most violated inactive triples, lexicographic tie order
                cand = np.flatnonzero(viol > max(worst * 1e-3, 0.1 * vtarget))
                fresh = cand[np.argsort(-viol[cand], kind="stable")[:sep_batch]]
                if kkt and not len(fresh):
                    stop_reason = "no-fresh-triples"  # nothing left above threshold
                    break
                # every separation that does not end the solve ends a round;
                # by the round exit's bound it adds at least one triple
                rounds += 1
                if len(fresh):
                    # new triples enter with zero multipliers and slacks
                    normal.extend(flat[:, fresh])
                    active = np.concatenate([active, fresh])
                    s, Ss = (np.concatenate([v, np.zeros(len(fresh))]) for v in (s, Ss))
        if iterations >= TOTAL_CAP:
            _fail(f"iteration budget {TOTAL_CAP} exhausted")

    return _result(polish=True, stop_reason=stop_reason)


class _NormalEquations:
    """The constraint rows B = [d; S] of the multiplier update: the
    normalization row d over one triangle row per active triple, in the order
    the triples entered.  It takes the multiplier step
    y = Q^-1 (B w + e), Q = BB' + diag(0, I), for w = svec(W) (`step`).

    Each row is a symmetric n x n matrix, held in orthonormal svec
    coordinates (the upper triangle, off-diagonal entries weighted sqrt 2),
    so B has p = n(n+1)/2 columns and the row of the triple (i, k, l),
    <x_i - x_l, x_k - x_l> = G_ik - G_il - G_kl + G_ll, has 4 nonzeros; only
    their svec positions are held, S z is a 4-entry gather and S'v one
    scatter.  With z = B'y the rows of Q y = B w + e read
        d'z = d'w + e_0,    S z + y_t = S w + e_t,
    hence H z = d y_0 + S'S w + S'e_t for H = I + S'S.  Since
    H^-1 S'S = I - H^-1, z = w + a with
        q = H^-1 (S'e_t - w),    y_0 = (e_0 - d'q) / d'H^-1 d,
        a = q + y_0 H^-1 d,      y_t = e_t - S a:
    the d'w terms cancel, and one product with H^-1 is the whole solve.
    Only H^-1 is held, starting at the identity.  When rows N enter, H grows
    by N'N, and H^-1 takes the rank-k Woodbury update (Hager 1989)
        H^-1 <- H^-1 - W (I_k + N W)^-1 W',    W = H^-1 N',
    H itself is never stored.  H >= I, so I_k + N W = I_k + N H^-1 N' >= I_k
    is well conditioned.  The update is applied to pieces of at most
    WOODBURY_PIECE fresh rows in turn, each to the H^-1 the previous piece
    left: with the Cholesky factor L L' = I_b + N W of a piece of b rows,
        H^-1 <- H^-1 - Y'Y,    Y = L^-1 W'.
    numpy forms the product of Y' with Y by a symmetric rank-b update, so Y'Y
    and H^-1 stay exactly symmetric.  A piece costs O(t^2 b + t b^2) over t
    live coordinates, so k rows cost O(t^2 k), with b x b factors in place of
    an LU of the k x k matrix with t right-hand sides.

    `live` lists the svec coordinates the held rows touch, in the order they
    entered, and H^-1 is held only on them: off them S'S has no entry, so H
    and H^-1 are exactly the identity there.  The update keeps it so: a
    column of N' is zero off the 4 coordinates of its row, so W is zero off
    the live coordinates (the fresh rows' among them, where H^-1 was the
    identity until now), and so is the update.  Over t live coordinates a
    product with H^-1 costs O(t^2) and an update O(t^2 k), not O(p^2) and
    O(p^2 k).
    """

    def __init__(self, D: np.ndarray):
        n = D.shape[0]
        iu, ju = np.triu_indices(n)
        self.upper = iu * n + ju  # vec position of each svec coordinate
        self.scale = np.where(iu == ju, 1.0, np.sqrt(2.0))
        # svec position of each entry (i, j), either order
        self.index = np.empty((n, n), dtype=np.intp)
        self.index[iu, ju] = self.index[ju, iu] = np.arange(len(iu))
        self.d = self.svec(D)
        # the live coordinates, and the position in them of each svec
        # coordinate (-1 off them)
        self.live = np.zeros(0, dtype=np.intp)
        self.pos = np.full(len(iu), -1, dtype=np.intp)
        self.Hinv = np.eye(0)
        # svec coefficients of a triangle row at the positions of its 4 entries
        r = 0.5 * np.sqrt(2.0)
        self.coef = np.array([[r], [-r], [-r], [1.0]])
        self.cols = np.zeros((4, 0), dtype=np.intp)
        self.extend(np.zeros((4, 0), dtype=np.intp))

    def extend(self, flat: np.ndarray) -> None:
        """Append the rows of the fresh triples with `_triangle_positions` flat."""
        # svec positions of G_ik, G_il, G_kl and G_ll, one column per row
        cols = np.take(self.index, flat)
        self.cols = np.hstack([self.cols, cols])
        # the coordinates the fresh rows touch first join the live ones,
        # where H^-1 is the identity so far (a boolean mark, not np.unique,
        # which imports numpy.ma)
        touched = np.zeros(len(self.pos), dtype=bool)
        touched[cols.ravel()] = True
        new = np.flatnonzero(touched & (self.pos < 0))
        t0, t = len(self.live), len(self.live) + len(new)
        self.pos[new] = np.arange(t0, t)
        self.live = np.concatenate([self.live, new])
        padded = np.eye(t)
        padded[:t0, :t0] = self.Hinv
        self.Hinv = padded
        # the Woodbury update of the class docstring on the live block, one
        # piece of rows at a time: Wt = W' = N H^-1, L L' = I_b + N W
        local = self.pos[cols]
        for j in range(0, cols.shape[1], WOODBURY_PIECE):
            P = local[:, j:j + WOODBURY_PIECE]
            Wt = _rows(self.Hinv, P)
            Y = np.linalg.inv(np.linalg.cholesky(np.eye(P.shape[1]) + _rows(Wt.T, P))) @ Wt
            self.Hinv -= Y.T @ Y
        self.h = self.inverse(self.d.copy())
        self.c = float(self.d @ self.h)  # > 0: the demand is not zero

    def inverse(self, u: np.ndarray) -> np.ndarray:
        """H^-1 u, in place: H^-1 is the identity off the live coordinates."""
        u[self.live] = self.Hinv @ u[self.live]
        return u

    def svec(self, X: np.ndarray) -> np.ndarray:
        """The svec coordinates of the symmetric n x n matrix X."""
        return np.take(X, self.upper) * self.scale

    def unpack(self, z: np.ndarray) -> np.ndarray:
        """The symmetric n x n matrix with svec coordinates z."""
        return (z / self.scale)[self.index]

    def step(self, W: np.ndarray, e0: float,
             et: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """y = Q^-1 (B·svec(W) + [e0; et]) as y_0 and y_t, and the symmetric
        matrix A = B'y - W, by the fold of the class docstring."""
        Se = np.bincount(self.cols.ravel(), (self.coef * et).ravel(), len(self.d))
        q = self.inverse(Se - self.svec(W))
        y0 = (e0 - self.d @ q) / self.c
        a = q + y0 * self.h
        return y0, et - _rows(a, self.cols), self.unpack(a)


def _rows(M: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """N M for the triangle rows N with svec positions cols (4 x k), summed
    into one k-row buffer, so no (4, k, ...) gather is formed."""
    out = M[cols[0]]
    out -= M[cols[1]]
    out -= M[cols[2]]
    out *= 0.5 * np.sqrt(2.0)
    out += M[cols[3]]
    return out


def _psd_split(V: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """SX, Xp with V = SX - mu Xp, both PSD: Xp = -U_k diag(w_k / mu) U_k'
    over the non-positive eigenpairs (w_k, U_k) of the symmetric V, and SX,
    the positive part of V, is V less them.  From SUBSET_EIG_MIN_N on, only
    those eigenpairs are computed.  Raises LinAlgError if the eigensolver
    fails."""
    if len(V) < SUBSET_EIG_MIN_N:
        w, U = np.linalg.eigh(V)
        k = int(np.searchsorted(w, 0.0, side="right"))
    else:
        from scipy.linalg.lapack import dsyevr
        w, U, k, _, info = dsyevr(V, range="V", vl=-np.inf, vu=0.0)
        if info:
            raise np.linalg.LinAlgError(f"dsyevr info {info}")
    Xp = (U[:, :k] * (-w[:k] / mu)) @ U[:, :k].T
    return V + mu * Xp, Xp


def _finalize(Xh, C, D, alpha: float, theta: float):
    """Blend Xh by theta toward the strictly feasible scaled identity alpha I,
    rescale the normalization to machine precision, and extract the points,
    on the unit-norm scale; both steps change only the eigenvalues, so one
    eigh serves.  Returns the points, <C, X>, the PSD and normalization residuals."""
    X = 0.5 * (Xh + Xh.T)
    w, V = np.linalg.eigh(X)
    lam = (1.0 - theta) * w + theta * alpha
    norm = (1.0 - theta) * float((D * X).sum()) + theta  # <D, alpha I> = 1
    vectors = _factor(lam / norm if norm > 0 else lam, V)
    Xv = vectors @ vectors.T
    # <C, X> >= 0 for PSD X; when the cost graph is disconnected and the
    # optimum is 0, float error leaves the sum a hair to either side of 0, so
    # a sum within eps of its terms' magnitudes is 0
    terms = C * Xv
    objective = float(terms.sum())
    if objective <= np.finfo(float).eps * float(np.abs(terms).sum()):
        objective = 0.0
    return vectors, objective, max(0.0, -float(w[0])), abs(float((D * Xv).sum()) - 1.0)
