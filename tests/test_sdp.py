import os
import subprocess
import sys

import numpy as np
import pytest

from sparsecut import (ConvergenceError, SolverOptions, WeightedGraphPair,
                       audit_triangle, formulate, generate, run_pipeline,
                       slow_sdp_check, solve, threshold_round)
from sparsecut.sdp import extract_vectors

from conftest import brute_force_phi_star, four_cycle_complete, random_pair


def unit_hypercube(bits: int) -> np.ndarray:
    return np.array([[(v >> b) & 1 for b in range(bits)] for v in range(2 ** bits)],
                    dtype=float)


class TestFormulate:
    def test_triangle_count_n3(self):
        g = WeightedGraphPair.from_edges(3, [(0, 1, 1.0)], [(0, 1, 1.0)])
        I, _, _ = formulate(g).triangle_triples()
        assert len(I) == 3  # canonical half of the ordered 3*2*1

    def test_canonical_triples_cover_half_the_family(self):
        # every (i, k, l) with i < k and l apart from both, in lexicographic order
        for n in range(2, 8):
            g = WeightedGraphPair.from_edges(n, [(0, 1, 1.0)], [(0, 1, 1.0)])
            I, K, L = formulate(g).triangle_triples()
            expected = [(i, k, l) for i in range(n) for k in range(i + 1, n)
                        for l in range(n) if l not in (i, k)]
            assert len(expected) == n * (n - 1) * (n - 2) // 2
            assert list(zip(I.tolist(), K.tolist(), L.tolist())) == expected

    def test_flat_triangle_values_equal_the_two_dimensional_gather(self):
        # the flat positions read the same four entries in the same order,
        # so every value is bitwise that of the 2-D gather
        from sparsecut.sdp import _triangle_positions, _triangle_values
        n = 9
        I, K, L = formulate(random_pair(n, np.random.default_rng(1))).triangle_triples()
        G = np.random.default_rng(0).standard_normal((n, n))
        G = G @ G.T
        expected = G[I, K] - G[I, L] - G[K, L] + G[L, L]
        assert np.array_equal(_triangle_values(G, _triangle_positions(n)), expected)

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

    def test_scale_invariance_in_demand(self, rng, powers=(-12, -6, 0, 6, 12)):
        # cost and demand scaled by independent powers of ten scale Phi(SDP)
        # by the matching factor and keep it below the rounded cut; planted
        # 8/1 with demand x1e6 once gave 6.65 x Phi(ALG)
        tol = SolverOptions().obj_tol
        for g in (random_pair(6, rng), generate("planted", 8, 1), four_cycle_complete(),
                  generate("expander-vs-pair", 8, 2)):
            base = solve(formulate(g)).objective_value
            for pc in powers:
                for pd in powers:
                    cs, ds = 10.0 ** pc, 10.0 ** pd
                    scaled = WeightedGraphPair(g.n, {p: cs * w for p, w in g.cost.items()},
                                               {p: ds * w for p, w in g.demand.items()})
                    config = solve(formulate(scaled))
                    value = config.objective_value
                    alg = threshold_round(config.vectors, scaled).sparsity
                    assert value == pytest.approx(base * cs / ds, rel=1e-5), (pc, pd)
                    assert value <= alg * (1 + tol), (pc, pd)

    def test_residual_contract(self, rng):
        for _ in range(4):
            g = random_pair(int(rng.integers(4, 9)), rng)
            config = solve(formulate(g))
            assert config.triangle_violation <= 1e-6
            assert config.normalization_residual <= 1e-6
            assert config.psd_residual <= 1e-8
            stats = config.stats
            # separation adds each canonical triple at most once
            assert 0 <= stats.active_constraints <= len(formulate(g).triangle_triples()[0])
            assert stats.rounds >= 1
            # duality: the dual objective certifies the primal from below
            assert stats.dual_objective <= config.objective_value + 1e-5

    def test_iteration_budget_raises_with_partial(self, monkeypatch):
        import sparsecut.sdp as sdp
        monkeypatch.setattr(sdp, "TOTAL_CAP", 10)
        g = four_cycle_complete()
        with pytest.raises(ConvergenceError) as err:
            solve(formulate(g))
        partial = err.value.partial
        assert partial is not None
        assert partial.stats.iterations == 10
        assert partial.stats.rounds == 1
        assert partial.stats.active_constraints == 0
        assert partial.stats.penalty == sdp.MU  # no checkpoint reached
        assert err.value.residuals.keys() == {"primal", "dual", "gap", "triangle_violation"}

    def test_non_finite_dual_iterate_raises(self, monkeypatch):
        # no linear-algebra call in the multiplier step checks for NaN; a NaN
        # must still end in ConvergenceError, with the last finite iterate as
        # partial
        import sparsecut.sdp as sdp
        monkeypatch.setattr(sdp, "MU", float("nan"))
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            solve(formulate(four_cycle_complete()))
        assert err.value.partial.stats.iterations <= 25
        assert np.isfinite(err.value.partial.vectors).all()

    @pytest.mark.parametrize("subset", [False, True])
    def test_eigensolver_failure_raises(self, monkeypatch, subset):
        # a failed eigensolver (a nonzero LAPACK info from dsyevr, LinAlgError
        # from eigh) ends the solve, with the last finite iterate as partial
        import scipy.linalg.lapack as lapack
        import sparsecut.sdp as sdp
        module, name = (lapack, "dsyevr") if subset else (np.linalg, "eigh")
        real, calls = getattr(module, name), []

        def fails_on_call_30(*args, **kwargs):
            calls.append(None)
            out = real(*args, **kwargs)
            if len(calls) != 30:
                return out
            if subset:
                return (*out[:-1], 1)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(sdp, "SUBSET_EIG_MIN_N", 0 if subset else 100)
        monkeypatch.setattr(module, name, fails_on_call_30)
        with pytest.raises(ConvergenceError, match="eigensolver failed") as err:
            solve(formulate(generate("uniform", 8, 1)))
        partial = err.value.partial
        assert partial.stats.iterations == 30
        assert partial.stats.stop_reason == "eigensolver failed"
        assert np.isfinite(partial.vectors).all()
        assert all(np.isfinite(v) for v in err.value.residuals.values())

    def test_stop_reason_and_polish_shift_reported(self):
        first, second = (run_pipeline(four_cycle_complete()) for _ in range(2))
        solver = first.to_dict(include_timing=False)["solver"]
        assert solver["stop_reason"] in ("kkt", "no-fresh-triples")
        assert solver["polish_shift"] == first.configuration.stats.polish_shift
        assert solver["penalty"] == first.configuration.stats.penalty
        assert first.to_json(include_timing=False) == second.to_json(include_timing=False)

    def test_no_fresh_triples_stop(self):
        # at feas_tol = 5e-11 the KKT test passes with a triple still violated
        # beyond the solver's target, and separation finds none to add
        g = generate("uniform", 4, 0)
        tight = solve(formulate(g), SolverOptions(feas_tol=5e-11))
        assert tight.stats.stop_reason == "no-fresh-triples"
        assert tight.triangle_violation <= 5e-11
        assert tight.objective_value == solve(formulate(g)).objective_value
        assert tight.objective_value == pytest.approx(0.2851395280352965, rel=1e-12)

    def test_scipy_loads_only_for_the_subset_eigensolver(self):
        # import sparsecut loads numpy only, and a solve below SUBSET_EIG_MIN_N
        # loads nothing more (numpy.ma included); formulate loads scipy.linalg
        # from SUBSET_EIG_MIN_N on, so that the solve's stage time does not
        # include it
        import sparsecut
        code = ("import sys, sparsecut\n"
                "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "sparsecut.solve(sparsecut.formulate(sparsecut.generate('planted', 8, 1)))\n"
                "assert not scipy(), scipy()\n"
                "assert 'numpy.ma' not in sys.modules\n"
                "sparsecut.formulate(sparsecut.generate('planted', 16, 1))\n"
                "assert 'scipy.linalg.lapack' in sys.modules, scipy()\n")
        src = os.path.dirname(os.path.dirname(sparsecut.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": path})

    @pytest.mark.parametrize("n, seed, feas_tol", [
        # the polish once lifted Phi(SDP) above the rounded cut by 2.1% on
        # planted 40/3, by 8.9e-5 on 36/1 (a shift of 8.9e-5 of Phi(SDP)),
        # and by 27.6% on 36/1003 at feas_tol = 1e-3 (a shift of 0.216)
        (40, 3, 1e-6), (36, 1, 1e-6), (36, 1003, 1e-3),
    ], ids=["planted-40-3", "planted-36-1", "planted-36-1003-feas-1e-3"])
    def test_polish_keeps_phi_below_the_rounded_cut(self, n, seed, feas_tol):
        import sparsecut.sdp as sdp
        g = generate("planted", n, seed)
        opts = SolverOptions(feas_tol=feas_tol)
        config = solve(formulate(g), opts)
        share = sdp.POLISH_SHARE * opts.obj_tol
        assert abs(config.stats.polish_shift) <= share * config.objective_value
        alg = threshold_round(config.vectors, g).sparsity
        assert config.objective_value <= alg * (1 + opts.obj_tol)

    def test_mixed_scales_stall_or_stay_below_the_rounded_cut(self, monkeypatch):
        # cost weights over 12 decades: a gap target floored at 1e-2 on the
        # unit-norm scale accepted Phi(SDP) = 1.75 against Phi(ALG) = 0.999.
        # It still stalls with the penalty lowered to MU_FLOOR: dual
        # residual 9.5e-7 and unit-scale gap 4.2e-7 against a 1e-10 target
        # (a 1e-4 floor gave 5.2e-10 and 2.4e-10, and stalled too), so it
        # ends on the iteration budget, cut here to keep the test short.  Only
        # a valid lower bound on Phi(SDP) ends it before the budget
        import sparsecut.sdp as sdp
        monkeypatch.setattr(sdp, "TOTAL_CAP", 2_500)
        cost = [(i, (i + 1) % 6, w) for i, w in enumerate([1e6, 1e-6, 1.0, 1e6, 1e-6, 1.0])]
        g = WeightedGraphPair.from_edges(6, cost, [(0, 5, 1.0), (1, 4, 1e-3)])
        try:
            config = solve(formulate(g))
        except ConvergenceError:
            return
        alg = threshold_round(config.vectors, g).sparsity
        assert config.objective_value <= alg * (1 + SolverOptions().obj_tol)

    def test_uniform_8_193_stops_on_the_kkt_test(self):
        # a heuristic trace bound once stopped this solve at 550 iterations
        # with Phi(SDP) 1.9e-5 above Phi(ALG); the KKT test stops it below,
        # at 1,575 iterations (3,425 with the residuals held to 1e-2 of the
        # worst inactive violation at each round's end)
        g = generate("uniform", 8, 193)
        problem = formulate(g)
        config = solve(problem)
        tol = SolverOptions().obj_tol
        assert config.stats.stop_reason == "kkt"
        assert config.stats.iterations <= 1_900
        assert config.objective_value <= threshold_round(config.vectors, g).sparsity * (1 + tol)
        assert config.objective_value == pytest.approx(slow_sdp_check(problem), rel=tol)

    @pytest.mark.parametrize("family, n, seed, cap, phi", [
        # Phi(SDP) when each round ran to convergence or a per-round cap, which
        # took 33,750, 4,000, 34,000 and 1,750 iterations.  The round exit
        # takes 300, 575, 525 and 525; it took 2,350, 625, 650 and 800 when
        # it waited for the residuals to fall below 1e-2 of the worst
        # inactive violation
        ("uniform", 10, 6, 360, 0.3765997241455032),
        ("uniform", 11, 7, 690, 0.36814631581609475),
        ("uniform", 12, 8, 630, 0.32525542138992164),
        ("planted", 36, 1003, 630, 0.0008333890942301436),
    ], ids=["uniform-10-6", "uniform-11-7", "uniform-12-8", "planted-36-1003"])
    def test_round_exit_cuts_the_tail(self, family, n, seed, cap, phi):
        # a round ends once the bound on every active triple's violation is
        # below the worst violation of the triples it ignores, not when its
        # own active set converges
        opts = SolverOptions()
        config = solve(formulate(generate(family, n, seed)))
        assert config.stats.iterations <= cap
        assert config.objective_value == pytest.approx(phi, rel=opts.obj_tol)
        assert config.triangle_violation <= opts.feas_tol

    def test_balanced_residuals_keep_the_starting_penalty(self):
        # the primal residual never sits far below the dual one here, so mu
        # stays at MU and the solve takes its fixed-penalty 325 iterations
        import sparsecut.sdp as sdp
        config = solve(formulate(generate("planted", 24, 1000)))
        assert config.stats.penalty == sdp.MU
        assert config.stats.iterations <= 325

    @pytest.mark.parametrize("family, n, seed", [
        ("uniform", 10, 6), ("uniform", 12, 8), ("planted", 24, 1000),
        ("expander-vs-pair", 32, 3),
    ])
    def test_every_round_but_the_last_adds_triples(self, monkeypatch, family, n, seed):
        # a round exit bounds every active triple's violation below the worst
        # inactive one, so every separation that does not end the solve adds
        # triples
        import sparsecut.sdp as sdp
        added, extend = [], sdp._NormalEquations.extend

        def record(self, flat):
            added.append(flat.shape[1])
            extend(self, flat)

        monkeypatch.setattr(sdp._NormalEquations, "extend", record)
        config = solve(formulate(generate(family, n, seed)))
        # the first call is the constructor's empty one
        assert added[0] == 0
        assert len(added[1:]) == config.stats.rounds - 1
        assert min(added[1:]) >= 1
        assert sum(added) == config.stats.active_constraints

    def test_bad_options(self):
        from sparsecut import InputError
        for value in (0.0, np.nan, np.inf):
            with pytest.raises(InputError):
                SolverOptions(feas_tol=value)
            with pytest.raises(InputError):
                SolverOptions(obj_tol=value)


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


class TestPsdSplit:
    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("spectrum", ["mixed", "positive", "negative"])
    @pytest.mark.parametrize("subset", [False, True])
    def test_matches_the_full_eigh_split(self, monkeypatch, n, spectrum, subset):
        import sparsecut.sdp as sdp
        from sparsecut.sdp import _psd_split
        monkeypatch.setattr(sdp, "SUBSET_EIG_MIN_N", 0 if subset else 100)
        rng = np.random.default_rng(n)
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(0.1, 2.0, n)
        if spectrum == "mixed":
            w[: n // 2] *= -1
        elif spectrum == "negative":
            w *= -1
        V = (U * w) @ U.T
        V = 0.5 * (V + V.T)
        mu = 0.7
        SX, Xp = _psd_split(V, mu)
        tol = 1e-12 * np.linalg.norm(V)
        assert np.linalg.eigvalsh(SX).min() >= -tol
        assert np.linalg.eigvalsh(Xp).min() >= -tol
        assert np.abs(SX - mu * Xp - V).max() <= tol
        # the split of the full eigendecomposition
        ew, EU = np.linalg.eigh(V)
        pos = ew > 0
        assert np.abs(SX - (EU[:, pos] * ew[pos]) @ EU[:, pos].T).max() <= tol
        assert np.abs(Xp - (EU[:, ~pos] * (-ew[~pos] / mu)) @ EU[:, ~pos].T).max() <= tol


class TestNormalEquations:
    @pytest.mark.parametrize("n", range(5, 10))
    def test_reduced_solve_matches_the_dense_normal_matrix(self, n):
        # B is built here from the vec(G) rows of the oracle, not from the
        # object's own rows; the folded step must solve Q y = B w + e
        from sparsecut.oracle import _triangle_rows
        from sparsecut.sdp import WOODBURY_PIECE, _NormalEquations, _triangle_positions
        rng = np.random.default_rng(n)
        problem = formulate(random_pair(n, rng))
        D = problem.demand
        I, K, L = problem.triangle_triples()
        flat = _triangle_positions(n)
        order = rng.permutation(len(I))
        p = n * (n + 1) // 2
        assert len(I) > p
        # P maps svec coordinates to vec(G): 1 on the diagonal, 1/sqrt 2 at
        # both mirrored entries off it
        iu, ju = np.triu_indices(n)
        P = np.zeros((n * n, p))
        weight = np.where(iu == ju, 1.0, np.sqrt(0.5))
        P[iu * n + ju, np.arange(p)] = P[ju * n + iu, np.arange(p)] = weight

        def symmetric():
            X = rng.standard_normal((n, n))
            return X + X.T

        normal = _NormalEquations(D)
        # no triangle rows, fewer than p, an extension by none, more than p
        held = 0
        for m in (0, p // 2, p // 2, len(I)):
            fresh, t, held = order[held:m], order[:m], m
            normal.extend(flat[:, fresh])
            R = _triangle_rows(n, I[t], K[t], L[t]).reshape(m, n * n)
            B = np.vstack([D.ravel(), R])
            Q = B @ B.T
            Q[1:, 1:] += np.eye(m)
            C, SX, Xh = symmetric(), symmetric(), symmetric()
            s, Ss = rng.standard_normal(m), np.abs(rng.standard_normal(m))
            mu = rng.uniform(0.01, 1.0)
            rhs = B @ (C - SX - mu * Xh).ravel() + np.concatenate([[mu], Ss + mu * s])
            y0, yt, A = normal.step(C - SX - mu * Xh, mu, Ss + mu * s)
            y = np.concatenate([[y0], yt])
            assert np.linalg.norm(Q @ y - rhs) <= 1e-10 * np.linalg.norm(Q, 2) * np.linalg.norm(y)
            # the step's matrix: SX - unpack(a) = C - B'y - mu Xh
            assert np.array_equal(A, A.T)
            assert np.abs((SX - A) - (C - (B.T @ y).reshape(n, n) - mu * Xh)).max() <= 1e-12
            # H^-1 is updated, not formed, and held only on the coordinates
            # the held rows touch: the inverse of I + S'S matches it there and
            # is exactly the identity everywhere else; the update subtracts
            # Y'Y, so the held block stays exactly symmetric
            S = R @ P
            live = normal.live
            assert np.array_equal(np.sort(live), np.flatnonzero(np.abs(S).sum(axis=0)))
            Hinv = np.linalg.inv(np.eye(p) + S.T @ S)
            block = np.ix_(live, live)
            assert np.array_equal(normal.Hinv, normal.Hinv.T)
            assert np.linalg.norm(normal.Hinv - Hinv[block]) <= 1e-10 * np.linalg.norm(Hinv)
            expected = np.eye(p)
            expected[block] = Hinv[block]
            assert np.array_equal(Hinv, expected)
        assert not hasattr(normal, "H")
        # from n = 8 the last extension (150 rows at n = 8, 230 at n = 9)
        # takes the update in more than one piece
        assert (len(fresh) > WOODBURY_PIECE) == (n >= 8)

    def test_extend_allocates_no_gather_of_all_four_entries(self):
        # one round of 10n triples at n = 36: the Woodbury update needs the
        # held t x t block over the t <= p live coordinates and the t x t
        # product Y'Y beside two b x t arrays and b x b matrices for a piece of
        # b <= 128 rows (it peaked at 5.9 MiB; the LU with all k rows as one
        # piece at 7.9 MiB); gathering the four entries of every fresh row of
        # H^-1 at once would add a (4, k, t) array
        import tracemalloc
        from sparsecut.sdp import _NormalEquations, _triangle_positions
        n = 36
        p, k = n * (n + 1) // 2, 10 * n
        flat = _triangle_positions(n)
        fresh = flat[:, np.random.default_rng(0).permutation(flat.shape[1])[:k]]
        normal = _NormalEquations(formulate(generate("planted", n, 3)).demand)
        tracemalloc.start()
        try:
            normal.extend(fresh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (p * p + k * p + k * k)

    def test_peak_memory_below_one_dense_normal_matrix(self):
        # the solve works in the n(n+1)/2-dimensional space of the rows, so it
        # never holds an (m+1) x (m+1) matrix over the m active triples
        import tracemalloc
        tracemalloc.start()
        try:
            config = solve(formulate(generate("planted", 28, 1001)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = config.stats.active_constraints
        assert peak < (m + 1) ** 2 * 8

    def test_peak_memory_of_planted_36(self):
        # H^-1 is held only on the coordinates the active rows touch, 481 of
        # the 666 at the end of this solve, and updated in pieces of at most
        # 128 rows, and the triangle family only as its flat positions: 5.6
        # MiB, against 6.1 MiB with the triples held beside them, 7.1 MiB with
        # the k x k LU of all of a round's rows and 11.4 MB holding all of H^-1
        import tracemalloc
        problem = formulate(generate("planted", 36, 1003))
        tracemalloc.start()
        try:
            config = solve(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stats = config.stats
        assert (stats.iterations, stats.rounds, stats.active_constraints) == (525, 8, 2520)
        assert peak <= 6.0 * 2 ** 20
