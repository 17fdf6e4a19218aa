import numpy as np
import pytest

from sparsecut import (DegenerateDirectionError, InputError,
                       PropertyViolationError, RoundingError,
                       WeightedGraphPair, audit_distortion,
                       audit_projection_bounds, best_direction_lower_bound,
                       formulate, l1_embed, line_embed, solve,
                       threshold_round)

from sparsecut.report import audit_configuration

from conftest import brute_force_phi_star, four_cycle_complete, random_pair


def unit_hypercube(bits: int) -> np.ndarray:
    return np.array([[(v >> b) & 1 for b in range(bits)] for v in range(2 ** bits)],
                    dtype=float)


@pytest.fixture(scope="module")
def solved_six():
    rng = np.random.default_rng(77)
    g = random_pair(6, rng)
    return g, solve(formulate(g)).vectors


class TestLineEmbed:
    def test_endpoints(self):
        X = unit_hypercube(3)
        emb = line_embed(X, 7, 0)
        assert emb.values[0] == pytest.approx(0.0, abs=1e-12)
        assert emb.values[7] == pytest.approx(1.0, abs=1e-12)

    def test_midpoint(self):
        X = np.array([[0.0], [1.0], [0.5]])
        emb = line_embed(X, 1, 0)
        assert emb.values[2] == pytest.approx(0.5)

    def test_hypercube_popcount(self):
        # direction from the origin to (1,1,1): p = ones-count / 3
        X = unit_hypercube(3)
        emb = line_embed(X, 7, 0)
        expected = np.array([bin(v).count("1") / 3 for v in range(8)])
        assert np.allclose(emb.values, expected, atol=1e-12)

    def test_degenerate_direction(self):
        X = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(DegenerateDirectionError):
            line_embed(X, 1, 0)

    def test_complement_identity(self, rng):
        # 1 - p_i^{(k,l)} = <x_k - x_i, x_k - x_l> / |x_k - x_l|^2
        for _ in range(10):
            X = rng.standard_normal((6, 3))
            emb = line_embed(X, 2, 5)
            d = X[2] - X[5]
            other = (X[2] - X) @ d / (d @ d)
            assert np.allclose(1.0 - emb.values, other, atol=1e-9)

    def test_values_in_unit_interval_on_feasible_input(self, solved_six):
        _, X = solved_six
        n = X.shape[0]
        for k in range(n):
            for l in range(n):
                if k == l:
                    continue
                try:
                    emb = line_embed(X, k, l)
                except DegenerateDirectionError:
                    continue
                assert emb.values.min() >= -1e-7
                assert emb.values.max() <= 1.0 + 1e-7


class TestThresholdRound:
    def test_two_points(self):
        g = WeightedGraphPair.from_edges(2, [(0, 1, 3.0)], [(0, 1, 2.0)])
        X = np.array([[0.0], [1.0]])
        res = threshold_round(X, g)
        assert res.sparsity == pytest.approx(1.5)
        assert res.cut.is_proper

    def test_four_cycle_recovers_optimum(self):
        g = four_cycle_complete()
        config = solve(formulate(g))
        res = threshold_round(config.vectors, g)
        assert res.sparsity == pytest.approx(0.5, abs=1e-9)

    def test_identical_points_raise(self):
        g = four_cycle_complete()
        with pytest.raises(RoundingError):
            threshold_round(np.zeros((4, 2)), g)

    def test_infeasible_configuration_rejected(self):
        # triangle violation 3 * scale^2 against a mean squared pair distance
        # of 8.7 * scale^2: the gate is relative, so scaling the points down
        # does not hide the violation
        g = WeightedGraphPair.from_edges(
            3, [(0, 1, 1.0), (1, 2, 1.0)], [(0, 2, 1.0)])
        for scale in (1.0, 1e-4):
            X = scale * np.array([[0.0], [3.0], [4.0]])
            with pytest.raises(PropertyViolationError) as exc:
                threshold_round(X, g)
            assert exc.value.violation == pytest.approx(3 * scale ** 2)
            with pytest.raises(PropertyViolationError):
                audit_configuration(X, g, 0.0)

    def test_orthogonal_and_scaling_invariance(self, solved_six, rng):
        g, X = solved_six
        base = threshold_round(X, g)
        Q, _ = np.linalg.qr(rng.standard_normal((X.shape[1], X.shape[1])))
        for Y in (2.5 * X, X @ Q, 0.3 * X @ Q, 1e-6 * X, 1e6 * X):
            same = threshold_round(Y, g)
            assert same.sparsity == pytest.approx(base.sparsity, rel=1e-12)
            assert np.array_equal(same.cut.members, base.cut.members)

    def test_beats_every_sweep_by_construction(self, solved_six):
        # the returned cut is the argmin over the sweep family
        from sparsecut import sparsity, sweep_cut_from_values
        g, X = solved_six
        best = threshold_round(X, g).sparsity
        n = X.shape[0]
        for k in range(n):
            for l in range(k + 1, n):
                try:
                    emb = line_embed(X, k, l)
                except DegenerateDirectionError:
                    continue
                for t in range(n):
                    cut = sweep_cut_from_values(emb.values, t)
                    if cut.is_proper:
                        assert best <= sparsity(g, cut).sparsity + 1e-12


class TestL1Embed:
    def test_single_demand_pair(self):
        X = np.array([[0.0], [2.0], [1.0]])
        emb = l1_embed(X, {(0, 1): 1.0})
        assert emb.coordinates.shape == (3, 1)
        # one coordinate: differences proportional to projections on x_0 - x_1
        assert emb.l1_distance(0, 1) == pytest.approx(4.0)  # = |x_0 - x_1|^2
        assert emb.l1_distance(0, 2) == pytest.approx(2.0)

    def test_identical_points_rejected(self):
        with pytest.raises(InputError):
            l1_embed(np.ones((3, 2)), {(0, 1): 1.0})

    def test_no_positive_demand_rejected(self):
        with pytest.raises(InputError):
            l1_embed(np.eye(3), {(0, 1): 0.0})

    def test_two_path_agreement(self, rng):
        # coordinate-sum l1 distance equals the weighted-projection formula
        for _ in range(10):
            X = rng.standard_normal((3, 2))
            demand = {(0, 1): 0.7, (0, 2): 1.3, (1, 2): 0.4}
            emb = l1_embed(X, demand)
            Z = sum(d * np.sum((X[k] - X[l]) ** 2) for (k, l), d in demand.items())
            for i in range(3):
                for j in range(i + 1, 3):
                    direct = sum(
                        d * np.sum((X[k] - X[l]) ** 2)
                        * abs((X[i] - X[j]) @ (X[k] - X[l])) / Z
                        for (k, l), d in demand.items()
                    )
                    assert emb.l1_distance(i, j) == pytest.approx(direct, abs=1e-10)

    def test_weights_sum_to_one(self, solved_six):
        g, X = solved_six
        emb = l1_embed(X, g.demand)
        # weights are d_kl |x_k - x_l|^2 / Z, so they form a distribution
        assert emb.weights.sum() == pytest.approx(1.0)


class TestProjectionAudit:
    def test_hypercube_has_tight_quadruples(self):
        audit = audit_projection_bounds(unit_hypercube(2))
        assert audit.tightest_slack == pytest.approx(0.0, abs=1e-12)

    def test_same_pair_quadruple_is_tight(self):
        # (i,j) = (k,l): the projection term equals |x_i - x_j|^2, so both
        # inequalities hold with equality and the tightest slack is zero
        X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
        audit = audit_projection_bounds(X)
        assert audit.tightest_slack == pytest.approx(0.0, abs=1e-12)
        i, j, k, l = audit.witness
        assert {i, j} == {k, l} or audit.tightest_slack >= 0.0

    def test_solved_instance_clean(self, solved_six):
        _, X = solved_six
        audit = audit_projection_bounds(X)
        assert audit.tightest_slack >= -1e-7

    def test_infeasible_configuration_raises(self):
        X = np.array([[0.0], [3.0], [4.0]])
        with pytest.raises(PropertyViolationError):
            audit_projection_bounds(X)

    def test_exhaustive_at_41_points(self):
        # all 820 x 820 (pair, direction) quadruples, both inequalities each
        X = unit_hypercube(6)[:41]
        audit = audit_projection_bounds(X)
        assert audit.checked == 2 * 820 * 820
        assert audit.tightest_slack == 0.0


class TestDistortionAudit:
    def test_single_pair_tight_at_its_own_pair(self):
        X = np.array([[0.0], [2.0]])
        audit = audit_distortion(X, {(0, 1): 1.0})
        # lower = <x0-x1, x0-x1>^2 / |x0-x1|^2 = |y_0 - y_1|_1 = |x0-x1|^2
        assert audit.tightest_slack == pytest.approx(0.0, abs=1e-12)

    def test_staircase_line_metric_upper_tight_everywhere(self):
        # squared distances form a line metric: every difference projects
        # fully onto the single demand direction, so the upper bound is
        # tight for every pair
        s = np.array([0.5, 2.0, 1.0])
        X = np.zeros((4, 3))
        for i in range(1, 4):
            X[i] = X[i - 1]
            X[i, i - 1] += np.sqrt(s[i - 1])
        demand = {(0, 3): 1.0}
        emb = l1_embed(X, demand)
        for i in range(4):
            for j in range(i + 1, 4):
                assert emb.l1_distance(i, j) == pytest.approx(
                    float(np.sum((X[i] - X[j]) ** 2)), abs=1e-12)
        audit = audit_distortion(X, demand)
        assert audit.tightest_slack == pytest.approx(0.0, abs=1e-10)

    def test_infeasible_collinear_raises(self):
        X = np.array([[0.0], [0.5], [1.0], [2.5]])
        with pytest.raises(PropertyViolationError):
            audit_distortion(X, {(0, 3): 1.0, (1, 2): 0.5})

    def test_solved_instance_all_pairs(self, solved_six):
        g, X = solved_six
        audit = audit_distortion(X, g.demand)
        assert audit.tightest_slack >= -1e-7
        assert audit.pairs_checked == 15


class TestBestDirection:
    def test_rank_one_captures_everything(self):
        X = np.array([[0.0], [1.0], [3.0]])
        res = best_direction_lower_bound(X)
        # delta = 1 at r = 1: the single direction carries the full mass
        assert res.achieved == pytest.approx(res.total)
        assert res.margin >= -1e-12

    def test_degenerate_pairs_skipped(self):
        X = np.array([[0.0], [0.0], [1.0]])
        res = best_direction_lower_bound(X)
        assert res.pair in ((0, 2), (1, 2))
        assert res.margin >= -1e-9

    def test_all_degenerate_raises_skip_signal(self):
        with pytest.raises(DegenerateDirectionError):
            best_direction_lower_bound(np.zeros((3, 2)))

    def test_orthonormal_configuration(self):
        res = best_direction_lower_bound(np.eye(4))
        assert res.margin >= -1e-9

    def test_solved_instance(self, solved_six):
        _, X = solved_six
        assert best_direction_lower_bound(X).margin >= -1e-7


class TestSweepDominance:
    def test_alg_bounded_by_l1_ratio(self, rng):
        # the best sweep cut is at least as good as the l1-embedding ratio
        for seed in range(5):
            g = random_pair(int(rng.integers(3, 7)), rng)
            config = solve(formulate(g))
            X = config.vectors
            emb = l1_embed(X, g.demand)
            num = sum(w * emb.l1_distance(i, j) for (i, j), w in g.cost.items())
            den = sum(w * emb.l1_distance(i, j) for (i, j), w in g.demand.items())
            if den <= 0:
                continue
            alg = threshold_round(X, g).sparsity
            assert alg <= num / den + 1e-9
            assert alg >= brute_force_phi_star(g) - 1e-12
