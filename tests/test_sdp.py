import numpy as np
import pytest

from sparsecut import (ConvergenceError, SolverOptions, WeightedGraphPair,
                       audit_triangle, extract_vectors, formulate, solve)

from conftest import brute_force_phi_star, four_cycle_complete, random_pair


def unit_hypercube(bits: int) -> np.ndarray:
    return np.array([[(v >> b) & 1 for b in range(bits)] for v in range(2 ** bits)],
                    dtype=float)


class TestFormulate:
    def test_triangle_count_n3(self):
        g = WeightedGraphPair.from_edges(3, [(0, 1, 1.0)], [(0, 1, 1.0)])
        assert formulate(g).triangle_count == 6  # ordered triples 3*2*1

    def test_canonical_triples_cover_half_the_family(self):
        g = WeightedGraphPair.from_edges(4, [(0, 1, 1.0)], [(0, 1, 1.0)])
        p = formulate(g)
        I, K, L = p.triangle_triples()
        assert len(I) == p.triangle_count // 2
        assert np.all(I < K)
        triples = set(zip(I.tolist(), K.tolist(), L.tolist()))
        assert len(triples) == len(I)

    def test_no_triples_for_n2(self):
        g = WeightedGraphPair.from_edges(2, [(0, 1, 1.0)], [(0, 1, 1.0)])
        I, _, _ = formulate(g).triangle_triples()
        assert len(I) == 0


class TestSolve:
    def test_single_pair_closed_form(self):
        g = WeightedGraphPair.from_edges(2, [(0, 1, 2.0)], [(0, 1, 0.5)])
        config = solve(formulate(g))
        assert config.objective_value == pytest.approx(4.0, abs=1e-6)
        assert config.normalization_residual <= 1e-6
        assert config.vectors.shape[0] == 2

    def test_four_cycle_below_oracle(self):
        config = solve(formulate(four_cycle_complete()))
        assert config.objective_value <= 0.5 + 1e-4
        assert config.triangle_violation <= 1e-6

    def test_cost_equals_demand_is_one(self, rng):
        g = random_pair(7, rng)
        same = WeightedGraphPair(7, dict(g.demand), dict(g.demand))
        config = solve(formulate(same))
        assert config.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_disconnected_cost_graph_gives_zero(self):
        cost = [(0, 1, 1.0), (2, 3, 1.0)]
        demand = [(0, 2, 1.0), (1, 3, 1.0)]
        g = WeightedGraphPair.from_edges(4, cost, demand)
        config = solve(formulate(g))
        assert config.objective_value <= 1e-6

    def test_relaxation_soundness(self, rng):
        # the indicator embedding of any proper cut is feasible, so the
        # relaxation value sits below every cut sparsity
        for _ in range(6):
            n = int(rng.integers(3, 8))
            g = random_pair(n, rng)
            config = solve(formulate(g))
            assert config.objective_value <= brute_force_phi_star(g) + 1e-4

    def test_scale_invariance_in_demand(self, rng):
        g = random_pair(6, rng)
        base = solve(formulate(g)).objective_value
        alpha = 3.7
        scaled = WeightedGraphPair(
            6, dict(g.cost), {p: alpha * w for p, w in g.demand.items()})
        value = solve(formulate(scaled)).objective_value
        assert value == pytest.approx(base / alpha, rel=1e-5)

    def test_residual_contract(self, rng):
        for _ in range(4):
            g = random_pair(int(rng.integers(4, 9)), rng)
            config = solve(formulate(g))
            assert config.triangle_violation <= 1e-6
            assert config.normalization_residual <= 1e-6
            assert config.psd_residual <= 1e-8
            stats = config.stats
            n = g.n
            assert 0 <= stats.active_constraints <= n * (n - 1) * (n - 2)
            assert stats.rounds >= 1
            # duality: the dual objective certifies the primal from below
            assert stats.dual_objective <= config.objective_value + 1e-5

    def test_iteration_budget_raises_with_partial(self, monkeypatch):
        import sparsecut.sdp as sdp
        monkeypatch.setattr(sdp, "TOTAL_CAP", 10)
        monkeypatch.setattr(sdp, "INNER_CAP", 10)
        g = four_cycle_complete()
        with pytest.raises(ConvergenceError) as err:
            solve(formulate(g))
        assert err.value.partial is not None
        assert "primal" in err.value.residuals

    def test_bad_options(self):
        from sparsecut import InputError
        with pytest.raises(InputError):
            SolverOptions(feas_tol=0.0)


class TestExtractVectors:
    def test_identity_gives_orthonormal_points(self):
        X = extract_vectors(np.eye(3))
        assert np.allclose(X @ X.T, np.eye(3), atol=1e-12)

    def test_rank_one_gives_collinear_points(self):
        v = np.array([1.0, -2.0, 0.5])
        X = extract_vectors(np.outer(v, v))
        assert X.shape[1] == 1
        assert np.allclose(X @ X.T, np.outer(v, v), atol=1e-10)

    def test_round_trip_on_solved_instance(self):
        config = solve(formulate(four_cycle_complete()))
        G = config.gram()
        X = extract_vectors(G)
        err = np.linalg.norm(X @ X.T - G) / np.linalg.norm(G)
        assert err <= 1e-8

    def test_small_negative_eigenvalues_clamped(self):
        G = np.diag([1.0, -1e-13, 0.5])
        X = extract_vectors(G)
        assert X.shape[1] == 2


class TestAuditTriangle:
    def test_hypercube_is_feasible(self):
        audit = audit_triangle(unit_hypercube(3))
        assert audit.max_violation == 0.0

    def test_right_angle_is_tight(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert audit_triangle(X).max_violation == 0.0

    def test_evenly_spaced_collinear_violates(self):
        # squared distances 1, 1, 4: the middle point sees an obtuse pair,
        # <x0 - x1, x2 - x1> = -1
        X = np.array([[0.0], [1.0], [2.0]])
        audit = audit_triangle(X)
        assert audit.max_violation == pytest.approx(1.0)
        assert audit.worst_triple == (0, 2, 1)

    def test_skewed_collinear_violates(self):
        # points 0, 3, 4 on a line: <x0 - x1, x2 - x1> = (-3)(1) = -3
        X = np.array([[0.0], [3.0], [4.0]])
        audit = audit_triangle(X)
        assert audit.max_violation == pytest.approx(3.0)
        assert audit.worst_triple == (0, 2, 1)

    def test_no_triples_at_n2(self):
        audit = audit_triangle(np.array([[0.0], [1.0]]))
        assert audit.max_violation == 0.0
        assert audit.worst_triple is None
