import math
from pathlib import Path

import numpy as np
import pytest

from sparsecut import (Cut, InputError, ParseError, WeightedGraphPair,
                       format_instance, laplacian, parse_instance, sparsity)

from conftest import four_cycle_complete, random_pair


class TestLaplacian:
    def test_single_edge(self):
        L = laplacian({(0, 1): 1.0}, 2)
        assert np.array_equal(L, [[1, -1], [-1, 1]])

    def test_empty_weights(self):
        assert np.array_equal(laplacian({}, 3), np.zeros((3, 3)))

    def test_unit_triangle(self):
        L = laplacian({(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, 3)
        assert np.array_equal(L, 3 * np.eye(3) - 1)

    def test_out_of_range_index(self):
        with pytest.raises(InputError):
            laplacian({(0, 3): 1.0}, 3)

    def test_quadratic_form_identity(self, rng):
        # y' L y == sum_ij w_ij (y_i - y_j)^2
        for _ in range(25):
            n = int(rng.integers(2, 9))
            g = random_pair(n, rng)
            L = g.cost_laplacian()
            y = rng.standard_normal(n)
            direct = sum(w * (y[i] - y[j]) ** 2 for (i, j), w in g.cost.items())
            assert y @ L @ y == pytest.approx(direct, rel=1e-9, abs=1e-12)
            assert np.allclose(L, L.T)
            assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
            assert np.linalg.eigvalsh(L).min() >= -1e-9 * max(1, np.abs(L).max())

    def test_quadratic_form_equals_cut_value(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            g = random_pair(n, rng)
            members = rng.random(n) < 0.5
            ind = members.astype(float)
            res = sparsity(g, Cut(members))
            assert ind @ g.cost_laplacian() @ ind == pytest.approx(res.cost_cut, abs=1e-9)
            assert ind @ g.demand_laplacian() @ ind == pytest.approx(res.demand_cut, abs=1e-9)


class TestSparsity:
    def test_four_cycle_adjacent_pair(self):
        # S = {1, 2} in 1-based vertices: crosses 2 cost edges and 4 demand pairs
        g = four_cycle_complete()
        res = sparsity(g, Cut.from_vertices([0, 1], 4))
        assert res.cost_cut == 2.0
        assert res.demand_cut == 4.0
        assert res.sparsity == 0.5

    def test_empty_cut_is_infinite(self):
        g = four_cycle_complete()
        assert sparsity(g, Cut(np.zeros(4, dtype=bool))).sparsity == math.inf
        assert sparsity(g, Cut(np.ones(4, dtype=bool))).sparsity == math.inf

    def test_cost_equals_demand_gives_one(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 8))
            g = random_pair(n, rng)
            same = WeightedGraphPair(n, dict(g.demand), dict(g.demand))
            members = np.zeros(n, dtype=bool)
            members[: int(rng.integers(1, n))] = True
            res = sparsity(same, Cut(members))
            if res.demand_cut > 0:
                assert res.sparsity == pytest.approx(1.0)

    def test_complement_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = random_pair(n, rng)
            members = rng.random(n) < 0.5
            a = sparsity(g, Cut(members)).sparsity
            b = sparsity(g, Cut(~members)).sparsity
            assert a == b or (math.isinf(a) and math.isinf(b))


class TestGraphPairValidation:
    def test_negative_weight(self):
        with pytest.raises(InputError):
            WeightedGraphPair(2, {(0, 1): -1.0}, {(0, 1): 1.0})

    def test_nonfinite_weight(self):
        with pytest.raises(InputError):
            WeightedGraphPair(2, {(0, 1): math.inf}, {(0, 1): 1.0})

    def test_zero_total_demand(self):
        with pytest.raises(InputError):
            WeightedGraphPair(2, {(0, 1): 1.0}, {})

    def test_self_loop_via_from_edges(self):
        with pytest.raises(InputError):
            WeightedGraphPair.from_edges(3, [(1, 1, 1.0)], [(0, 1, 1.0)])

    def test_from_edges_sorts_and_merges(self):
        g = WeightedGraphPair.from_edges(3, [(2, 0, 1.0), (0, 2, 0.5)], [(1, 0, 2.0)])
        assert g.cost == {(0, 2): 1.5}
        assert g.demand == {(0, 1): 2.0}


class TestInstanceFormat:
    def test_round_trip(self, rng):
        for _ in range(10):
            g = random_pair(int(rng.integers(2, 9)), rng)
            again = parse_instance(format_instance(g))
            assert again.n == g.n
            assert again.cost == pytest.approx(g.cost)
            assert again.demand == pytest.approx(g.demand)

    def test_duplicates_summed_and_pairs_sorted(self):
        g = parse_instance("n 3\nc 2 1 1.5\nc 1 2 0.5\nd 3 1 1.0\n")
        assert g.cost == {(0, 1): 2.0}
        assert g.demand == {(0, 2): 1.0}

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("n 3\nc 1 1 2.0\nd 1 2 1.0\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_instance("n 3\nc 1 4 2.0\nd 1 2 1.0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_instance("m 3\nc 1 2 2.0\n")

    def test_empty_text(self):
        with pytest.raises(ParseError):
            parse_instance("\n\n")

    def test_bad_weight(self):
        with pytest.raises(ParseError):
            parse_instance("n 2\nc 1 2 abc\nd 1 2 1\n")

    def test_zero_demand_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("n 2\nc 1 2 1.0\n")

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Instance format", 1)[1]
        block = section.split("```", 2)[1]
        g = parse_instance(block)
        assert g.n == 4
        assert g.cost == {(0, 1): 1.0}
        assert g.demand == {(0, 2): 0.5}
