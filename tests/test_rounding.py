import tracemalloc

import numpy as np
import pytest

from sparsecut import (Cut, DegenerateDirectionError, InputError,
                       PropertyViolationError, RoundingError,
                       WeightedGraphPair, audit_distortion,
                       audit_projection_bounds, best_direction_lower_bound,
                       formulate, generate, line_embed, solve, sparsity,
                       threshold_round)

from sparsecut.report import audit_configuration

from conftest import brute_force_phi_star, four_cycle_complete, random_pair


def unit_hypercube(bits: int) -> np.ndarray:
    return np.array([[(v >> b) & 1 for b in range(bits)] for v in range(2 ** bits)],
                    dtype=float)


def l1_distance(X, demand, i, j):
    """|y_i - y_j|_1 in the demand-weighted l1 embedding of the points X:
    sum_kl d_kl |x_k - x_l|^2 |<x_i - x_j, x_k - x_l>| / Z, Z = sum_kl d_kl |x_k - x_l|^2."""
    Z = sum(d * np.sum((X[k] - X[l]) ** 2) for (k, l), d in demand.items())
    return sum(d * np.sum((X[k] - X[l]) ** 2) * abs((X[i] - X[j]) @ (X[k] - X[l])) / Z
               for (k, l), d in demand.items())


@pytest.fixture(scope="module")
def solved_six():
    rng = np.random.default_rng(77)
    g = random_pair(6, rng)
    return g, solve(formulate(g)).vectors


class TestLineEmbed:
    def test_endpoints(self):
        X = unit_hypercube(3)
        p = line_embed(X, 7, 0)
        assert p[0] == pytest.approx(0.0, abs=1e-12)
        assert p[7] == pytest.approx(1.0, abs=1e-12)

    def test_midpoint(self):
        X = np.array([[0.0], [1.0], [0.5]])
        assert line_embed(X, 1, 0)[2] == pytest.approx(0.5)

    def test_hypercube_popcount(self):
        # direction from the origin to (1,1,1): p = ones-count / 3
        X = unit_hypercube(3)
        expected = np.array([bin(v).count("1") / 3 for v in range(8)])
        assert np.allclose(line_embed(X, 7, 0), expected, atol=1e-12)

    def test_degenerate_direction(self):
        X = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(DegenerateDirectionError):
            line_embed(X, 1, 0)

    def test_bad_direction_pair_rejected(self):
        # 1.5 once escaped as IndexError
        X = unit_hypercube(2)
        for k, l in ((1.5, 0), (0, 4), (-1, 0), (2, 2)):
            with pytest.raises(InputError, match="bad direction pair"):
                line_embed(X, k, l)

    def test_complement_identity(self, rng):
        # 1 - p_i^{(k,l)} = <x_k - x_i, x_k - x_l> / |x_k - x_l|^2
        for _ in range(10):
            X = rng.standard_normal((6, 3))
            d = X[2] - X[5]
            other = (X[2] - X) @ d / (d @ d)
            assert np.allclose(1.0 - line_embed(X, 2, 5), other, atol=1e-9)

    def test_values_in_unit_interval_on_feasible_input(self, solved_six):
        _, X = solved_six
        n = X.shape[0]
        for k in range(n):
            for l in range(n):
                if k == l:
                    continue
                try:
                    p = line_embed(X, k, l)
                except DegenerateDirectionError:
                    continue
                assert p.min() >= -1e-7
                assert p.max() <= 1.0 + 1e-7


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

    def test_no_cut_crossing_demand_raises(self):
        # triangle-feasible, but the demand pair's points coincide, so no
        # threshold separates them
        g = WeightedGraphPair.from_edges(
            4, [(0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)], [(0, 1, 1.0)])
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(RoundingError, match="no sweep cut crosses positive demand"):
            threshold_round(X, g)

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

    def test_translation_invariance(self):
        # every quantity the rounding and the audits read is a difference
        # x_k - x_l, so a shift far larger than the configuration must not
        # move the cut or the audits' slacks
        g = generate("planted", 8, 1)
        X = solve(formulate(g)).vectors
        base = threshold_round(X, g)
        D2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        k, l = np.unravel_index(np.argmax(D2), D2.shape)
        emb = line_embed(X, k, l)
        s = D2[np.triu_indices(len(X), k=1)].mean()
        audits = audit_configuration(X, g, 0.0)
        for shift in (1e4, 1e5):
            Y = X + shift
            same = threshold_round(Y, g)
            assert np.array_equal(same.cut.members, base.cut.members)
            assert same.sparsity == pytest.approx(base.sparsity, rel=1e-12)
            assert np.abs(line_embed(Y, k, l) - emb).max() <= 1e-10
            shifted = audit_configuration(Y, g, 0.0)
            for key in ("projection_slack", "distortion_slack", "direction_margin"):
                assert abs(shifted[key] - audits[key]) <= 1e-9 * s

    def test_normalization_residual_reads_the_centred_points(self):
        # the residual once came from the Gram matrix of the points as given:
        # 2.6e-10 here, 4.3e-7 after a shift by 1e4, and AttributeError on a
        # list of rows
        g = generate("planted", 8, 1)
        X = solve(formulate(g)).vectors
        base = audit_configuration(X, g, 0.0)["normalization_residual"]
        assert base <= 1e-9
        for Y in (X.tolist(), X + 1e4):
            assert audit_configuration(Y, g, 0.0)["normalization_residual"] <= 1e-9

    def test_beats_every_sweep_by_construction(self, solved_six):
        # the returned cut is the argmin over the sweep family
        g, X = solved_six
        best = threshold_round(X, g).sparsity
        n = X.shape[0]
        for k in range(n):
            for l in range(k + 1, n):
                try:
                    values = line_embed(X, k, l)
                except DegenerateDirectionError:
                    continue
                for t in range(n):
                    cut = Cut(values <= values[t])
                    if cut.is_proper:
                        assert best <= sparsity(g, cut).sparsity + 1e-12


class TestL1Embed:
    # the embedding exists only as the l1 distance that audit_distortion checks

    def test_two_path_agreement(self, rng):
        # the audit's tightest slack, from its matrix form of the l1 distance,
        # equals the one from the written-out sums; the points are cube corners
        # with weighted axes, so squared distances form an l1 metric
        demand = {(0, 1): 0.7, (2, 3): 1.3, (4, 5): 0.4, (1, 4): 0.9}
        for _ in range(10):
            X = unit_hypercube(5)[rng.permutation(32)[:6]] * np.sqrt(rng.uniform(0.5, 2.0, 5))
            Z = sum(d * np.sum((X[k] - X[l]) ** 2) for (k, l), d in demand.items())
            slack = np.inf
            for i in range(6):
                for j in range(i + 1, 6):
                    y1 = l1_distance(X, demand, i, j)
                    lower = sum(d * ((X[i] - X[j]) @ (X[k] - X[l])) ** 2
                                for (k, l), d in demand.items()) / Z
                    slack = min(slack, np.sum((X[i] - X[j]) ** 2) - y1, y1 - lower)
            assert audit_distortion(X, demand).tightest_slack == pytest.approx(slack, abs=1e-10)

    def test_identical_points_rejected(self):
        with pytest.raises(InputError):
            audit_distortion(np.ones((3, 2)), {(0, 1): 1.0})

    def test_no_positive_demand_rejected(self):
        with pytest.raises(InputError):
            audit_distortion(np.eye(3), {(0, 1): 0.0})

    def test_demand_pair_out_of_range_rejected(self):
        # (-1, 2) once wrapped around to the pair (2, 2) and (0, 5) and
        # (0.5, 1) raised IndexError; every pair must be integers 0 <= k < l < n
        for pair in ((0, 5), (-1, 2), (2, 1), (1, 1), (0.5, 1)):
            with pytest.raises(InputError, match="out of range"):
                audit_distortion(np.eye(3), {pair: 1.0})


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
        for i in range(4):
            for j in range(i + 1, 4):
                assert l1_distance(X, demand, i, j) == pytest.approx(
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

    def test_closed_forms_match_the_pair_sums(self, rng):
        # the audit takes the masses and the spectrum in closed form; here
        # they are summed over the pair differences e_p: mass of a direction
        # d is sum_p <e_p, d>^2 / |d|^2, and the spectrum is that of
        # sum_p e_p e_p', with zeros up to n values
        for shape in ((7, 3), (5, 8)) * 3:
            X = rng.standard_normal(shape)
            n = len(X)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            E = np.array([X[i] - X[j] for i, j in pairs])
            mass = [sum((e @ d) ** 2 for e in E) / (d @ d) for d in E]
            total = sum(e @ e for e in E)
            lam = np.sort(np.concatenate([np.linalg.eigvalsh(E.T @ E), np.zeros(n)]))[::-1]
            margin = min(max(mass) - (lam[:r].sum() / lam.sum()) ** 2 / r * total
                         for r in range(1, n + 1))
            res = best_direction_lower_bound(X)
            assert res.pair == pairs[int(np.argmax(mass))]
            assert res.achieved == pytest.approx(max(mass), rel=1e-12)
            assert res.total == pytest.approx(total, rel=1e-12)
            assert abs(res.margin - margin) <= 1e-12 * total

    def test_memory_at_96_points(self):
        # the per-direction mass and the spectrum come in closed form from
        # the n x n Gram matrix: no (pairs x directions) product, which at
        # 96 points and 4,560 directions takes 160 MB
        X = np.unique(np.random.default_rng(0).integers(0, 2, (96, 24)), axis=0)[:96].astype(float)
        tracemalloc.start()
        try:
            best_direction_lower_bound(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20


class TestSweepDominance:
    def test_alg_bounded_by_l1_ratio(self, rng):
        # the best sweep cut is at least as good as the l1-embedding ratio
        for seed in range(5):
            g = random_pair(int(rng.integers(3, 7)), rng)
            config = solve(formulate(g))
            X = config.vectors
            num = sum(w * l1_distance(X, g.demand, i, j) for (i, j), w in g.cost.items())
            den = sum(w * l1_distance(X, g.demand, i, j) for (i, j), w in g.demand.items())
            if den <= 0:
                continue
            alg = threshold_round(X, g).sparsity
            assert alg <= num / den + 1e-9
            assert alg >= brute_force_phi_star(g) - 1e-12
