"""Smoke tests of the benchmark itself (not part of the library's suite):

    python3 -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import sparsecut  # noqa: E402
import sparsecut.rounding as rounding  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from checks import check_report  # noqa: E402
from run import EXTRA_SHARE, schedule  # noqa: E402
from tracing import (FROM_SOLUTION_SPAN, PIPELINE_SPANS, Tracer, instrument,  # noqa: E402
                     scanned_directions, self_times)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OBJ_TOL = sparsecut.SolverOptions().obj_tol


@pytest.fixture(scope="module")
def solved():
    g = workloads.build("corpus", 3, quick=True)[4].graph
    return g, sparsecut.run_pipeline(g)


def test_check_passes_on_a_real_result(solved):
    g, report = solved
    assert report.phi_star is not None
    assert check_report(g, report, report.phi_star, OBJ_TOL) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda g, r: {"phi_alg": r.phi_alg * 1.01}, "reported cut has sparsity"),
    (lambda g, r: {"alg_cut": list(range(1, g.n + 1))}, "not proper"),
    (lambda g, r: {"phi_sdp": r.phi_alg * 1.01}, "more than obj_tol"),
    (lambda g, r: {"phi_star": r.phi_alg * 1.01}, "sandwich fails"),
])
def test_check_fires_on_a_corrupted_result(solved, corrupt, message):
    g, report = solved
    bad = dataclasses.replace(report, **corrupt(g, report))
    problems = check_report(g, bad, bad.phi_star, OBJ_TOL)
    assert any(message in p for p in problems), problems


def test_seed_relabels_the_same_instances():
    a, b, c = (workloads.build("corpus", seed, quick=True) for seed in (1, 1, 2))
    assert [i.graph for i in a] == [i.graph for i in b]
    assert [i.graph for i in a] != [i.graph for i in c]
    assert [(i.family, i.n, i.seed) for i in a] == [(i.family, i.n, i.seed) for i in c]


def test_references_match_the_oracle():
    for inst in workloads.cross_check_instances("planted-large", 4):
        star = sparsecut.exact_sparsest_cut(inst.graph).sparsity
        assert workloads.reference_phi(inst) == pytest.approx(star, rel=1e-12)


def test_schedule_makes_whole_passes_then_skips_what_does_not_fit():
    times = [[], [], []]
    order = []
    for idx in schedule(times, 0.05):
        order.append(idx)
        times[idx].append(10.0 if idx == 1 else 0.001)
    assert order[:6] == [0, 1, 2, 0, 1, 2]
    assert order.count(1) == 2 and order.count(0) > 2


def test_schedule_calls_the_cheaper_instances_round_robin():
    seconds = 0.2
    cost = [0.001, 0.004, 0.002, 2 * EXTRA_SHARE * seconds]
    times = [[] for _ in cost]
    order = []
    for idx in schedule(times, seconds):
        order.append(idx)
        times[idx].append(cost[idx])
    assert order[:10] == [0, 1, 2, 3, 0, 1, 2, 0, 1, 2]
    assert order.count(3) == 2 and min(order.count(i) for i in range(3)) > 2


def test_host_factor_is_near_one():
    hostspeed.warm_up()
    assert 0.2 < hostspeed.factor() < 5.0


def test_scanned_directions_are_the_sweeps_directions(monkeypatch):
    # uniform n=5: some of the solution's points coincide, so the sweep
    # scans 4 of its 10 directions; it prefix-sums cost and demand once each
    g = workloads.build("corpus", 7, quick=True)[3].graph
    vectors = sparsecut.solve(sparsecut.formulate(g)).vectors
    swept = []
    prefix_cut_values = rounding._prefix_cut_values
    monkeypatch.setattr(rounding, "_prefix_cut_values",
                        lambda W, order: swept.append(order) or prefix_cut_values(W, order))
    rounding.threshold_round(vectors, g)
    assert scanned_directions(vectors) == len(swept) // 2 == 4


def test_spans_cover_run_pipeline_and_are_removed_after(solved):
    g, _ = solved
    saved = sparsecut.report.solve
    tracer = Tracer()
    tracer.instance = tracer.call = 0
    pipeline = tracer.wrap("report.run_pipeline", sparsecut.run_pipeline)
    with instrument(tracer):
        pipeline(g)
    assert sparsecut.report.solve is saved
    assert {s["name"] for s in tracer.spans} == {"report.run_pipeline", FROM_SOLUTION_SPAN,
                                                 *PIPELINE_SPANS.values()}
    total = next(s["end"] - s["start"] for s in tracer.spans if s["parent"] is None)
    assert sum(self_times(tracer.spans)[0, 0].values()) == pytest.approx(total)


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric(workload, trace):
    done = _run(["--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--quick"], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_a_failing_reference_is_reported_and_left_out():
    # slow_sdp_check cannot centre on planted n=6 seed 1002 relabelled by seed 106
    done = _run(["--workload", "corpus", "--seed", "106", "--seconds", "0", "--trace", "0", "--quick"], ROOT)
    assert done.returncode == 0, done.stderr
    assert "REFERENCE FAILED planted/n=6/seed=1002" in done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
