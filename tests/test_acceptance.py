"""Package-level acceptance suite.

Shared corpus: 200 instances per generator family with n cycling over
4..12, solved once per session with default solver options.  Each criterion
prints a single PASS/FAIL line (run with -s to see them inline).
"""

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from sparsecut import (FAMILIES, WeightedGraphPair, audit_distortion,
                       audit_projection_bounds, best_direction_lower_bound,
                       exact_sparsest_cut, formulate, generate, run_pipeline,
                       slow_sdp_check, solve, threshold_round)
from sparsecut.errors import SparseCutError
from sparsecut.spectral import SpectralReport, rank_profile

import conftest
from conftest import four_cycle_complete, random_pair

CORPUS_PER_FAMILY = 200
CORPUS_NS = tuple(range(4, 13))
RUNTIME_BUDGET_SECONDS = 150.0


@dataclass
class Record:
    family: str
    n: int
    seed: int
    graph: WeightedGraphPair
    config: object
    phi_sdp: float
    phi_alg: float
    phi_star: float
    spectra: SpectralReport
    table: list
    projection_slack: float
    distortion_slack: float
    direction_margin: float

    @property
    def name(self) -> str:
        return f"{self.family}/n={self.n}/seed={self.seed}"


def _check(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {name}: {status}" + (f"  [{detail}]" if detail else "")
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="session")
def corpus():
    t0 = time.perf_counter()
    records = []
    failures = []
    for fi, family in enumerate(FAMILIES):
        for i in range(CORPUS_PER_FAMILY):
            n = CORPUS_NS[i % len(CORPUS_NS)]
            seed = 1000 * fi + i
            g = generate(family, n, seed)
            try:
                config = solve(formulate(g))
                alg = threshold_round(config.vectors, g)
                star = exact_sparsest_cut(g)
                spectra = SpectralReport.from_solution(g, config.vectors)
                table = rank_profile(spectra, config.objective_value)
                proj = audit_projection_bounds(config.vectors)
                dist = audit_distortion(config.vectors, g.demand)
                direction = best_direction_lower_bound(config.vectors)
            except SparseCutError as exc:
                failures.append((family, n, seed, f"{type(exc).__name__}: {exc}"))
                continue
            records.append(Record(
                family=family, n=n, seed=seed, graph=g, config=config,
                phi_sdp=config.objective_value, phi_alg=alg.sparsity,
                phi_star=star.sparsity, spectra=spectra, table=table,
                projection_slack=proj.tightest_slack,
                distortion_slack=dist.tightest_slack,
                direction_margin=direction.margin,
            ))
    return SimpleNamespace(records=records, failures=failures,
                           elapsed=time.perf_counter() - t0)


def test_criterion_01_sandwich(corpus):
    """Phi(SDP) - 1e-4 <= Phi* <= Phi(ALG) + 1e-9 on the full corpus, < 5 min."""
    bad = [r.name for r in corpus.records
           if not (r.phi_sdp - 1e-4 <= r.phi_star <= r.phi_alg + 1e-9)]
    ok = (not bad and not corpus.failures
          and len(corpus.records) == len(FAMILIES) * CORPUS_PER_FAMILY
          and corpus.elapsed < RUNTIME_BUDGET_SECONDS)
    _check(1, "sandwich Phi(SDP) <= Phi* <= Phi(ALG)", ok,
           f"{len(corpus.records)} instances in {corpus.elapsed:.1f}s")
    assert not corpus.failures, corpus.failures[:5]
    assert not bad, bad[:5]
    assert corpus.elapsed < RUNTIME_BUDGET_SECONDS


def test_criterion_02_spectral_approximation_bound(corpus):
    """Phi(ALG) <= min applicable r * (1 - Phi(SDP)/lambda_{r+1})^(-2) * Phi(SDP) + 1e-6."""
    bad, applicable_count = [], 0
    for r in corpus.records:
        bounds = [row.bound for row in r.table if row.applicable]
        if not bounds:
            continue
        applicable_count += 1
        if r.phi_alg > min(bounds) + 1e-6:
            bad.append((r.name, r.phi_alg, min(bounds)))
    _check(2, "spectral approximation bound on Phi(ALG)", not bad,
           f"{applicable_count} instances with an applicable bound")
    assert applicable_count > 0
    assert not bad, bad[:5]


def test_criterion_03_projection_sandwich(corpus):
    """Exhaustive quadruple audit of the projection sandwich, 1e-7 slack."""
    worst = min(r.projection_slack for r in corpus.records)
    ok = worst >= -1e-7
    _check(3, "projection sandwich audit", ok, f"tightest slack {worst:.2e}")
    assert ok


def test_criterion_04_distortion_sandwich(corpus):
    """l1-embedding distortion sandwich for all pairs, 1e-7 slack."""
    worst = min(r.distortion_slack for r in corpus.records)
    ok = worst >= -1e-7
    _check(4, "l1 distortion sandwich audit", ok, f"tightest slack {worst:.2e}")
    assert ok


def test_criterion_05_gram_tail_bound(corpus):
    """sum_{t>=r+1} sigma_t / sum sigma_t <= Phi(SDP)/lambda_{r+1} + 1e-6."""
    bad = []
    checked = 0
    for r in corpus.records:
        lam, sig = r.spectra.generalized, r.spectra.gram
        total = sig.sum()
        if total <= 0:
            continue
        for k in range(1, r.spectra.rank_demand):
            if lam[k] <= 0:
                continue
            checked += 1
            tail = sig[k:].sum() / total
            if tail > r.phi_sdp / lam[k] + 1e-6:
                bad.append((r.name, k, tail, r.phi_sdp / lam[k]))
    _check(5, "demand Gram tail bound", not bad, f"{checked} (instance, r) pairs")
    assert not bad, bad[:5]


def test_criterion_06_best_direction_bound(corpus):
    """Best direction captures (delta^2/r) of the difference mass, 1e-7 slack."""
    worst = min(r.direction_margin for r in corpus.records)
    ok = worst >= -1e-7
    _check(6, "best-direction lower bound", ok, f"worst margin {worst:.2e}")
    assert ok


def test_criterion_07_courant_fisher(corpus):
    """lambda_1 <= Phi* + 1e-7 across the full oracle corpus."""
    bad = [(r.name, float(r.spectra.generalized[0]), r.phi_star)
           for r in corpus.records
           if float(r.spectra.generalized[0]) > r.phi_star + 1e-7]
    _check(7, "Courant-Fisher lower bound", not bad, f"{len(corpus.records)} instances")
    assert not bad, bad[:5]


def test_criterion_08_solver_cross_validation(corpus):
    """Fast (lazy) and slow (all-constraints) solvers agree within 1e-3 relative
    on every corpus instance with n <= 8."""
    bad, checked = [], 0
    t0 = time.perf_counter()
    for r in corpus.records:
        if r.n > 8:
            continue
        checked += 1
        slow = slow_sdp_check(formulate(r.graph))
        if not np.isclose(r.phi_sdp, slow, rtol=1e-3, atol=1e-6):
            bad.append((r.name, r.phi_sdp, slow))
    _check(8, "fast/slow solver agreement", not bad,
           f"{checked} instances in {time.perf_counter() - t0:.1f}s")
    assert checked > 0
    assert not bad, bad[:5]


def test_criterion_09_exact_small_cases():
    """cost = demand gives 1 everywhere; the 4-cycle/complete instance gives
    Phi* = Phi(ALG) = 1/2 exactly and Phi(SDP) <= 1/2 + 1e-4."""
    ok = True
    details = []
    rng = np.random.default_rng(4242)
    for trial in range(5):
        n = int(rng.integers(4, 9))
        base = random_pair(n, rng)
        g = WeightedGraphPair(n, dict(base.demand), dict(base.demand))
        config = solve(formulate(g))
        alg = threshold_round(config.vectors, g)
        star = exact_sparsest_cut(g)
        for value in (config.objective_value, alg.sparsity, star.sparsity):
            if abs(value - 1.0) > 1e-6:
                ok = False
                details.append(f"cost=demand trial {trial}: {value}")
    g = four_cycle_complete()
    config = solve(formulate(g))
    alg = threshold_round(config.vectors, g)
    star = exact_sparsest_cut(g)
    if star.sparsity != 0.5 or alg.sparsity != 0.5:
        ok = False
        details.append(f"4-cycle exact: star={star.sparsity}, alg={alg.sparsity}")
    if config.objective_value > 0.5 + 1e-4:
        ok = False
        details.append(f"4-cycle sdp={config.objective_value}")
    _check(9, "exact small cases", ok, "; ".join(details) or "cost=demand x5, 4-cycle")
    assert ok, details


def test_criterion_10_determinism():
    """Two full pipeline runs produce identical reports modulo timing."""
    ok = True
    details = []
    for family in FAMILIES:
        g = generate(family, 6, 5)
        a = run_pipeline(g).to_json(include_timing=False)
        b = run_pipeline(g).to_json(include_timing=False)
        if a != b:
            ok = False
            details.append(family)
    _check(10, "report determinism", ok, "; ".join(details) or "3 families x 2 runs")
    assert ok, details
