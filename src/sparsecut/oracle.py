"""Ground truth at desk scale: exact sparsest cut by enumeration, an
independent all-constraints relaxation solver, and the spectral lower bound.

The slow relaxation check deliberately uses a different algorithm from the
fast solver (a log-barrier Newton method on the full constraint family,
versus lazily-separated operator splitting), so agreement between the two is
evidence rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .graphs import Cut, CutResult, WeightedGraphPair, sparsity
from .sdp import SdpProblem
from .spectral import generalized_eigenvalues

ENUMERATION_MAX_N = 24
SLOW_SDP_MAX_N = 8
COURANT_FISHER_TOL = 1e-7
SLOW_SDP_GAP_TOL = 1e-6  # relative certified gap at which the barrier stops
_CHUNK_BITS = 16


def exact_sparsest_cut(g: WeightedGraphPair) -> CutResult:
    """Minimum-sparsity proper cut by enumerating all 2^(n-1) sides.

    Vertex 0 is fixed inside S (a cut and its complement have equal
    sparsity); ties are broken by the smallest subset encoding.
    """
    n = g.n
    if n > ENUMERATION_MAX_N:
        raise InputError(f"enumeration budget is n <= {ENUMERATION_MAX_N}, got n={n}")
    LC, LD = g.cost_laplacian(), g.demand_laplacian()
    total = 1 << (n - 1)
    best_value = np.inf
    best_mask = None
    # masks run over subsets of {1..n-1}; the all-ones mask gives S = V (improper)
    for start in range(0, total - 1, 1 << _CHUNK_BITS):
        masks = np.arange(start, min(start + (1 << _CHUNK_BITS), total - 1), dtype=np.uint64)
        ind = np.empty((len(masks), n))
        ind[:, 0] = 1.0  # vertex 0 fixed inside S
        for i in range(n - 1):
            ind[:, i + 1] = (masks >> np.uint64(i)) & np.uint64(1)
        cost_cuts = np.einsum("si,ij,sj->s", ind, LC, ind)
        dem_cuts = np.einsum("si,ij,sj->s", ind, LD, ind)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(dem_cuts > 0, cost_cuts / np.maximum(dem_cuts, 1e-300), np.inf)
        pos = int(np.argmin(vals))  # first minimum = smallest encoding (masks ascend)
        if vals[pos] < best_value:
            best_value = float(vals[pos])
            best_mask = int(masks[pos])
    if best_mask is None:
        raise InputError("no proper cut crosses positive demand")
    members = np.zeros(n, dtype=bool)
    members[0] = True
    for i in range(n - 1):
        members[i + 1] = bool((best_mask >> i) & 1)
    return sparsity(g, Cut(members))


@dataclass(frozen=True)
class CourantFisherCheck:
    lambda_1: float
    phi_star: float

    @property
    def holds(self) -> bool:
        """lambda_1 <= Phi*, within COURANT_FISHER_TOL."""
        return bool(self.lambda_1 <= self.phi_star + COURANT_FISHER_TOL)


def courant_fisher_check(g: WeightedGraphPair) -> CourantFisherCheck:
    """Verify lambda_1(L_C, L_D) <= Phi* (the easy spectral direction)."""
    lam1 = float(generalized_eigenvalues(g.cost_laplacian(), g.demand_laplacian())[0])
    return CourantFisherCheck(lam1, exact_sparsest_cut(g).sparsity)


def _triangle_rows(n: int, I, K, L) -> np.ndarray:
    """Dense (m, n, n) constraint rows over G for the given triples; the 7
    positions of a row are distinct."""
    R = np.zeros((len(I), n, n))
    t = np.arange(len(I))
    R[t, I, K] = R[t, K, I] = 0.5
    R[t, I, L] = R[t, L, I] = R[t, K, L] = R[t, L, K] = -0.5
    R[t, L, L] = 1.0
    return R


def _centered_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the all-ones vector."""
    P = np.eye(n) - np.full((n, n), 1.0 / n)
    w, U = np.linalg.eigh(P)
    return U[:, w > 0.5]


def slow_sdp_check(problem: SdpProblem) -> float:
    """Objective of the relaxation by a log-barrier Newton method carrying
    ALL triangle constraints (no lazy separation).

    The barrier works in the centered subspace (Gram matrices of point sets
    with centroid at the origin): the raw Gram formulation has a flat
    recession direction along the all-ones rank-one matrix, which only
    translates the points but sends the central path to infinity.  It runs
    on the problem's unit-norm data.
    """
    n = problem.n
    if n > SLOW_SDP_MAX_N:
        raise InputError(f"slow check budget is n <= {SLOW_SDP_MAX_N}, got n={n}")
    B = _centered_basis(n)
    q = n - 1
    c = (B.T @ problem.cost @ B).ravel()
    d = (B.T @ problem.demand @ B).ravel()
    I, K, L = problem.triangle_triples()
    m = len(I)
    R = _triangle_rows(n, I, K, L)
    Rz = np.einsum("ai,tab,bj->tij", B, R, B).reshape(m, q * q)
    nu = q + m  # total barrier parameter
    obj_scale = problem.objective_scale  # the stopping rule is in original units

    z = np.eye(q).ravel()
    z = z / (d @ z)
    t = 1.0
    for _ in range(64):  # barrier stages
        centered = False
        for _ in range(100):
            Z = z.reshape(q, q)
            w, U = np.linalg.eigh(Z)
            if w.min() <= 0:
                break
            Zi = (U / w) @ U.T
            slack = Rz @ z
            grad = t * c - Zi.ravel() - Rz.T @ (1.0 / slack)
            H = np.kron(Zi, Zi) + (Rz.T * (1.0 / slack ** 2)) @ Rz
            p = q * q
            KKT = np.zeros((p + 1, p + 1))
            KKT[:p, :p] = H
            KKT[:p, -1] = d
            KKT[-1, :p] = d
            try:
                sol = np.linalg.solve(KKT, np.concatenate([-grad, [0.0]]))
            except np.linalg.LinAlgError:
                break
            dz = sol[:p]
            decrement = float(-dz @ grad)
            if not np.isfinite(decrement) or decrement <= 0:
                centered = True
                break
            f0 = t * (c @ z) - np.log(w).sum() - np.log(slack).sum()
            step, moved = 1.0, False
            while step > 1e-13:
                zn = z + step * dz
                wn = np.linalg.eigvalsh(zn.reshape(q, q))
                sn = Rz @ zn
                if wn.min() > 0 and np.all(sn > 0):
                    fn = t * (c @ zn) - np.log(wn).sum() - np.log(sn).sum()
                    if fn <= f0 - 0.25 * step * decrement:
                        z = zn
                        moved = True
                        break
                step *= 0.5
            if not moved:
                break
            if decrement / 2.0 < 1e-9:
                centered = True
                break
        pobj = float(c @ z) * obj_scale
        gap = nu / t * obj_scale
        if gap <= SLOW_SDP_GAP_TOL * max(1.0, abs(pobj)):
            return pobj
        if not centered:
            raise ConvergenceError(
                f"barrier could not center at t={t:.2e} (certified gap {gap:.2e})",
                residuals={"gap": gap},
            )
        t *= 10.0
    raise ConvergenceError("barrier stage budget exhausted", residuals={"gap": gap})
