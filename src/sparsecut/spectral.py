"""Generalized eigenvalues of Laplacian pairs, the spectrum of
demand-weighted difference vectors, and the per-r approximation table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import PairWeights, WeightedGraphPair, laplacian

RANK_TOL = 1e-9
SYMMETRY_TOL = 1e-9


def is_symmetric(A: np.ndarray) -> bool:
    """|A - A'|_F <= SYMMETRY_TOL * max(|A|_F, 1)."""
    return bool(np.linalg.norm(A - A.T) <= SYMMETRY_TOL * max(np.linalg.norm(A), 1.0))


def generalized_eigenvalues(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues of the PSD pencil (X, Y), ascending, one per
    positive eigendirection of Y.

    These are the maximin values of w'Xw / w'Yw over subspaces, with w ranging
    over all directions with w'Yw > 0.  The numerator is first partially
    minimized over ker(Y) (Schur complement); skipping that step overestimates
    the values whenever ker(Y) is not contained in ker(X), e.g. for a demand
    graph with more connected components than the cost graph.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise InputError(f"shape mismatch: {X.shape} vs {Y.shape}")
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise InputError(f"expected square matrices, got shape {X.shape}")
    if not (is_symmetric(X) and is_symmetric(Y)):
        raise InputError("matrix is not symmetric within tolerance")
    w, Q = np.linalg.eigh(0.5 * (Y + Y.T))
    keep = w > RANK_TOL * max(float(w.max(initial=0.0)), 0.0)
    if not keep.any():
        raise InputError("demand Laplacian has rank 0")
    Qk, lk = Q[:, keep], w[keep]
    K = Q[:, ~keep]
    # pseudo-inverse with a cutoff on the scale of X, not of K'XK: shared
    # nullspace directions show up here as pure float noise
    XK = X @ K
    M = K.T @ XK
    wm, Um = np.linalg.eigh(0.5 * (M + M.T))
    good = wm > RANK_TOL * max(float(np.abs(X).max()), 1e-300)
    Minv = (Um[:, good] / wm[good]) @ Um[:, good].T
    X = X - XK @ Minv @ XK.T
    B = (Qk / np.sqrt(lk)).T @ X @ (Qk / np.sqrt(lk))
    vals = np.linalg.eigvalsh(0.5 * (B + B.T))
    return np.clip(np.sort(vals), 0.0, None)


def gram_spectrum_of_differences(vectors: np.ndarray, demand: PairWeights) -> np.ndarray:
    """Descending eigenvalues of the Gram matrix of {sqrt(d_kl) (x_k - x_l)}.

    Computed from the m x m second-moment matrix X' L_D X, which shares its
    nonzero spectrum with the pair-indexed Gram matrix; padded with zeros to
    length n.  X is centered at x_0 first (L_D 1 = 0, so the spectrum is the
    same): far from the origin, X' L_D X would lose the differences to
    cancellation.
    """
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2:
        raise InputError(f"expected an (n, m) vector array, got shape {X.shape}")
    n, m = X.shape
    LD = laplacian(demand, n)
    X = X - X[:1]
    S = X.T @ LD @ X
    vals = np.clip(np.linalg.eigvalsh(0.5 * (S + S.T)), 0.0, None)[::-1]
    if len(vals) < n:
        vals = np.concatenate([vals, np.zeros(n - len(vals))])
    return vals[:n]


@dataclass(frozen=True)
class SpectralReport:
    """Generalized eigenvalues of (L_C, L_D) and the demand-difference Gram spectrum."""

    generalized: np.ndarray  # ascending, length rank(L_D)
    gram: np.ndarray         # descending, length n
    rank_demand: int

    @classmethod
    def from_solution(cls, g: WeightedGraphPair, vectors: np.ndarray) -> SpectralReport:
        lam = generalized_eigenvalues(g.cost_laplacian(), g.demand_laplacian())
        sig = gram_spectrum_of_differences(vectors, g.demand)
        return cls(generalized=lam, gram=sig, rank_demand=len(lam))


@dataclass(frozen=True)
class RankProfileRow:
    r: int
    lambda_next: float       # lambda_{r+1}
    tail_fraction: float     # sum_{t >= r+1} sigma_t / sum sigma_t
    applicable: bool         # lambda_{r+1} > phi_sdp
    factor: float | None     # r * (1 - phi_sdp / lambda_{r+1})^(-2)
    bound: float | None      # factor * phi_sdp
    best: bool = False


def rank_profile(report: SpectralReport, phi_sdp: float) -> list[RankProfileRow]:
    """Per-r table of the spectral approximation guarantee.

    Rows run over r = 1 .. rank(L_D) - 1 so that lambda_{r+1} is defined;
    rows with lambda_{r+1} <= phi_sdp are inapplicable.  The minimum
    applicable bound is flagged.  An empty applicable set is a legal outcome.
    """
    if phi_sdp < 0:
        raise InputError(f"phi_sdp must be non-negative, got {phi_sdp}")
    lam = report.generalized
    sig = report.gram
    total = float(sig.sum())
    rows = []
    for r in range(1, report.rank_demand):
        lam_next = float(lam[r])  # ascending list, 0-based index r holds lambda_{r+1}
        tail = float(sig[r:].sum() / total) if total > 0 else 0.0
        applicable = lam_next > phi_sdp
        if applicable:
            factor = r * (1.0 - phi_sdp / lam_next) ** -2
            rows.append(RankProfileRow(r, lam_next, tail, True, factor, factor * phi_sdp))
        else:
            rows.append(RankProfileRow(r, lam_next, tail, False, None, None))
    applicable_rows = [row for row in rows if row.applicable]
    if applicable_rows:
        best = min(applicable_rows, key=lambda row: row.bound)
        rows[rows.index(best)] = RankProfileRow(
            best.r, best.lambda_next, best.tail_fraction, True, best.factor, best.bound, best=True
        )
    return rows


def best_bound(rows: list[RankProfileRow]) -> float | None:
    """The flagged minimum applicable bound, or None when no row applies."""
    for row in rows:
        if row.best:
            return row.bound
    return None
