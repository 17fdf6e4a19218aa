import numpy as np
import pytest
import scipy.linalg as sla

from sparsecut import (InputError, SpectralReport, WeightedGraphPair, formulate,
                       generalized_eigenvalues, generate, gram_spectrum_of_differences,
                       laplacian, rank_profile, solve)
from sparsecut.spectral import best_bound

from conftest import brute_force_phi_star, random_pair

P3 = {(0, 1): 1.0, (1, 2): 1.0}
K3 = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}


class TestSymEig:
    # the symmetric eigensolves inside generalized_eigenvalues: with Y = I the
    # pencil's values are the eigenvalues of X, ascending

    def test_identity(self):
        assert np.allclose(generalized_eigenvalues(np.eye(3), np.eye(3)), [1, 1, 1])

    def test_two_by_two_closed_form(self):
        X = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(generalized_eigenvalues(X, np.eye(2)), [1.0, 3.0])

    def test_path_laplacian(self):
        # characteristic polynomial of the P3 Laplacian factors as x(x-1)(x-3)
        vals = generalized_eigenvalues(laplacian(P3, 3), np.eye(3))
        assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)

    def test_non_symmetric_rejected(self):
        # both matrices are symmetrized, so either one that is not symmetric
        # is rejected first
        Y = laplacian(K3, 3)
        bent = Y.copy()
        bent[0, 1] += 3.0
        for X_, Y_ in ((bent, Y), (Y, bent)):
            with pytest.raises(InputError, match="not symmetric"):
                generalized_eigenvalues(X_, Y_)


class TestGeneralizedEigenvalues:
    def test_same_matrix_gives_ones(self):
        Y = laplacian(K3, 3)
        vals = generalized_eigenvalues(Y, Y)
        assert len(vals) == 2  # rank of the K3 Laplacian
        assert np.allclose(vals, 1.0)

    def test_scaling(self):
        Y = laplacian(K3, 3)
        assert np.allclose(generalized_eigenvalues(2 * Y, Y), 2.0)

    def test_path_vs_triangle(self):
        # reduction onto the 2-dim range of L_K3 (which acts as 3*I there)
        # diagonalizes L_P3 with eigenvalues 1 and 3, so the pencil gives (1/3, 1)
        vals = generalized_eigenvalues(laplacian(P3, 3), laplacian(K3, 3))
        assert np.allclose(vals, [1.0 / 3.0, 1.0], atol=1e-12)

    def test_zero_rank_rejected(self):
        with pytest.raises(InputError):
            generalized_eigenvalues(np.eye(3), np.zeros((3, 3)))

    def test_congruence_invariance(self, rng):
        for _ in range(15):
            A = rng.standard_normal((4, 6))
            X = A @ A.T
            Bm = rng.standard_normal((4, rng.integers(2, 5)))
            Y = Bm @ Bm.T
            S = rng.standard_normal((4, 4)) + 4 * np.eye(4)
            v1 = generalized_eigenvalues(X, Y)
            v2 = generalized_eigenvalues(S.T @ X @ S, S.T @ Y @ S)
            assert np.allclose(v1, v2, rtol=1e-7, atol=1e-9)

    def test_nullspace_cross_terms_minimized(self):
        # demand graph disconnected from vertex 2: the minimizing direction may
        # use the demand nullspace, so the plain range-restricted reduction
        # would report 11/4 here; the true maximin value is 10/11.
        LC = laplacian({(0, 2): 1.0, (1, 2): 10.0}, 3)
        LD = laplacian({(0, 1): 1.0}, 3)
        vals = generalized_eigenvalues(LC, LD)
        assert len(vals) == 1
        assert vals[0] == pytest.approx(10.0 / 11.0, abs=1e-12)

    def test_definite_demand_matches_reference(self, rng):
        # positive definite Y has an empty kernel, so no Schur step applies
        # and the values are the textbook generalized eigenvalues
        for _ in range(15):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            Bm = rng.standard_normal((n, n))
            X, Y = A @ A.T, Bm @ Bm.T + 0.1 * np.eye(n)
            ref = sla.eigh(X, Y, eigvals_only=True)
            vals = generalized_eigenvalues(X, Y)
            assert len(vals) == n
            # relative to the spectrum's scale: the smallest values of an
            # ill-conditioned pencil carry only absolute accuracy
            assert np.abs(vals - ref).max() <= 1e-9 * ref.max()

    def test_lambda1_below_phi_star(self, rng):
        # easy spectral direction, brute forced over all proper cuts
        for _ in range(30):
            n = int(rng.integers(3, 8))
            g = random_pair(n, rng, demand_p=0.4)
            lam1 = generalized_eigenvalues(g.cost_laplacian(), g.demand_laplacian())[0]
            assert lam1 <= brute_force_phi_star(g) + 1e-7


class TestGramSpectrum:
    def test_single_demand_pair(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5]])
        sig = gram_spectrum_of_differences(X, {(0, 1): 1.0})
        assert sig[0] == pytest.approx(4.0)
        assert np.allclose(sig[1:], 0.0, atol=1e-12)

    def test_identical_points(self):
        X = np.ones((4, 3))
        assert np.allclose(gram_spectrum_of_differences(X, {(0, 1): 1.0}), 0.0)

    def test_equilateral_triangle_trace(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        sig = gram_spectrum_of_differences(X, K3)
        assert sig.sum() == pytest.approx(3.0, abs=1e-12)

    def test_trace_identity_random(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 8))
            g = random_pair(n, rng)
            X = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            sig = gram_spectrum_of_differences(X, g.demand)
            direct = sum(w * np.sum((X[i] - X[j]) ** 2) for (i, j), w in g.demand.items())
            assert sig.sum() == pytest.approx(direct, rel=1e-8, abs=1e-12)
            assert len(sig) == n
            assert np.all(np.diff(sig) <= 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            gram_spectrum_of_differences(np.zeros(3), {(0, 1): 1.0})

    def test_translation_invariant_far_from_origin(self):
        g = generate("planted", 8, 1)
        X = solve(formulate(g)).vectors
        sig = gram_spectrum_of_differences(X, g.demand)
        for shift in (1e4, 1e5):
            moved = gram_spectrum_of_differences(X + shift, g.demand)
            assert np.abs(moved - sig).max() <= 1e-9


class TestRankProfile:
    def _report(self, lam, sig):
        lam = np.asarray(lam, dtype=float)
        sig = np.asarray(sig, dtype=float)
        return SpectralReport(generalized=lam, gram=sig, rank_demand=len(lam))

    def test_factor_at_double(self):
        # lambda_{r+1} = 2 phi -> (1 - 1/2)^(-2) = 4, factor 4r
        rep = self._report([0.1, 2.0, 4.0], [3.0, 1.0, 0.5])
        rows = rank_profile(rep, 1.0)
        assert rows[0].r == 1 and rows[0].applicable
        assert rows[0].factor == pytest.approx(4.0)
        assert rows[0].bound == pytest.approx(4.0)

    def test_boundary_inapplicable(self):
        rep = self._report([0.1, 1.0], [1.0, 1.0])
        rows = rank_profile(rep, 1.0)
        assert len(rows) == 1
        assert not rows[0].applicable
        assert rows[0].factor is None
        assert best_bound(rows) is None

    def test_zero_phi_gives_factor_r(self):
        rep = self._report([0.0, 0.5, 1.0, 2.0], [1.0, 1.0, 0.0, 0.0])
        rows = rank_profile(rep, 0.0)
        for row in rows:
            assert row.factor == pytest.approx(float(row.r))
            assert row.bound == pytest.approx(0.0)

    def test_minimum_flagged(self):
        rep = self._report([0.1, 1.5, 8.0], [2.0, 1.0, 0.1])
        rows = rank_profile(rep, 1.0)
        best = [row for row in rows if row.best]
        assert len(best) == 1
        applicable = [row.bound for row in rows if row.applicable]
        assert best[0].bound == min(applicable)

    def test_tail_fractions(self):
        rep = self._report([0.1, 1.0, 2.0], [4.0, 3.0, 1.0])
        rows = rank_profile(rep, 0.5)
        assert rows[0].tail_fraction == pytest.approx(0.5)
        assert rows[1].tail_fraction == pytest.approx(0.125)
