"""sparsecut benchmark.

Drives the public API (``generate``, then ``run_pipeline`` with default
``SolverOptions`` and ``oracle_max``) for one workload from one process with
one sequential caller: a closed loop, where the next instance starts when the
previous one returns.  Every output is checked.  The last line of stdout is a
JSON object with the metrics that BENCHMARK.json names:

    python3 bench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
traced run that reports the per-layer metrics.  ``--quick`` keeps only the
first instances of the workload, for the benchmark's own smoke test.  The
full result, with the machine description and per-instance records, is also
written to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
MIN_CALLS = 2
# Instances slower than this share of --seconds get MIN_CALLS calls only.
EXTRA_SHARE = 0.05
# The host factor is sampled for this share of a call's length on each side.
SAMPLE_SHARE = 0.025


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure this long, or until every instance has its minimum number of calls")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="first instances only (smoke test)")
    return p, p.parse_args(argv)


def schedule(times: list[list[float]], seconds: float, min_calls: int = MIN_CALLS):
    """Instance indices in call order; the caller appends each call's seconds
    to ``times[idx]`` before asking for the next index.

    One pass over the instances comes first.  After it the instances whose
    fastest call takes at most ``seconds * EXTRA_SHARE`` are called round
    robin, fewest calls first, while their fastest call fits in the time
    left.  Time is kept back, at each instance's fastest call, for every
    instance to reach ``min_calls`` calls; those calls come when nothing else
    fits.  The run ends at the deadline, or once every instance has
    ``min_calls`` calls if that is later.
    """
    deadline = time.perf_counter() + seconds
    yield from range(len(times))
    while True:
        owed = [idx for idx, t in enumerate(times) if len(t) < min_calls]
        left = deadline - time.perf_counter() - sum(min(times[idx]) for idx in owed)
        fits = [idx for idx, t in enumerate(times) if min(t) < min(left, seconds * EXTRA_SHARE)]
        if fits:
            yield min(fits, key=lambda idx: (len(times[idx]), idx))
        elif owed:
            yield owed[0]
        else:
            return


class Runner:
    """Times ``run_pipeline`` calls and checks every result."""

    def __init__(self, sparsecut, check_report, references):
        self.sc = sparsecut
        self.check_report = check_report
        self.references = references
        self.obj_tol = sparsecut.SolverOptions().obj_tol
        self.attempted = 0
        self.failed = 0
        self.reports = {}
        self.reference_failures = []  # cross-check instances slow_sdp_check could not solve

    def phi_star(self, idx, report):
        return report.phi_star if report.phi_star is not None else self.references[idx]

    def attempt(self, pipeline, idx, inst) -> float:
        """Seconds taken by one call; failures are counted, not raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = pipeline(inst.graph)
        except self.sc.SparseCutError as exc:
            seconds = time.perf_counter() - t0
            self.failed += 1
            print(f"FAILED {describe(inst)}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return seconds
        seconds = time.perf_counter() - t0
        problems = self.check_report(inst.graph, report, self.phi_star(idx, report), self.obj_tol)
        if problems:
            self.failed += 1
            print(f"CHECK FAILED {describe(inst)}: {'; '.join(problems)}", file=sys.stderr)
        self.reports.setdefault(idx, report)
        return seconds


def describe(inst) -> str:
    return f"{inst.family}/n={inst.n}/seed={inst.seed}"


def timed_with_host_factor(call, expected: float) -> tuple[float, float]:
    """Seconds of ``call()`` and the median host factor sampled around it;
    ``expected`` is the call's likely length."""
    before = hostspeed.factors(SAMPLE_SHARE * expected)
    seconds = call()
    after = hostspeed.factors(SAMPLE_SHARE * seconds)
    return seconds, statistics.median(before + after)


def measure_setup(workload: str, seed: int, quick: bool) -> list[float]:
    """Seconds of import + generate + one warm-up solve, each in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)] + (["--quick"] if quick else [])
    samples = []
    for _ in range(1 if quick else SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def geometric_mean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "git_commit": git_commit(),
    }


def max_or_none(values):
    values = list(values)
    return max(values) if values else None


def quality_metrics(sc, instances, side, runner) -> dict:
    """Relaxation, rounding and cross-check ratios, computed outside the timed region."""
    reports = runner.reports
    # at least 1, so that a relaxation sitting lower does not read as a gain
    sdp_over_alg = max([1.0, *(r.phi_sdp / r.phi_alg for r in reports.values())])
    stars = {idx: runner.phi_star(idx, r) for idx, r in reports.items()}
    alg_over_star = max_or_none(reports[idx].phi_alg / s for idx, s in stars.items() if s)
    # Phi(SDP) of this solver against the independent log-barrier solver, n <= 8
    pairs = [(inst, reports[idx].phi_sdp) for idx, inst in enumerate(instances)
             if inst.n <= sc.oracle.SLOW_SDP_MAX_N and idx in reports]
    pairs += [(inst, sc.solve(sc.formulate(inst.graph)).objective_value) for inst in side]
    ratios = []
    for inst, phi in pairs:
        try:
            slow = sc.slow_sdp_check(sc.formulate(inst.graph))
        except sc.ConvergenceError as exc:
            # the reference failed, not the pipeline: report it, skip the pair
            runner.reference_failures.append(f"{describe(inst)} perm={list(inst.perm)}: {exc}")
            print(f"REFERENCE FAILED {runner.reference_failures[-1]}", file=sys.stderr)
            continue
        ratios.append(max(phi / slow, slow / phi))
    return {
        "sdp_over_alg_max": (sdp_over_alg, "ratio"),
        "alg_over_star_max": (alg_over_star, "ratio"),
        "sdp_vs_slow_max": (max_or_none(ratios), "ratio"),
    }


def run_end_to_end(sc, workloads, check_report, args) -> tuple[dict, Runner, list, dict]:
    setup_samples = measure_setup(args.workload, args.seed, args.quick)
    hostspeed.warm_up()
    instances = workloads.build(args.workload, args.seed, args.quick)
    side = workloads.cross_check_instances(args.workload, args.seed, args.quick)
    runner = Runner(sc, check_report, [workloads.reference_phi(inst) for inst in instances])
    sc.run_pipeline(instances[0].graph)  # warm-up, untimed

    # Every call is timed with the host factor sampled around it.
    raw = [[] for _ in instances]
    factors = [[] for _ in instances]
    for calls, idx in enumerate(schedule(raw, args.seconds), 1):
        seconds, factor = timed_with_host_factor(lambda: runner.attempt(sc.run_pipeline, idx, instances[idx]),
                                          min(raw[idx], default=0.0))
        raw[idx].append(seconds)
        factors[idx].append(factor)
        if calls == len(instances):
            # Peak memory over the first pass.  The allocator's state after
            # further passes depends on how many calls fit in the time, which
            # moved the peak by 17% between runs on planted-large.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # An instance's time is the geometric mean of its (at least MIN_CALLS)
    # calls, scaled to the nominal host where the workload's time is of the
    # kernel's kind.  The host's noise is a factor on the call's time, and
    # the geometric mean spread less over runs than the median or the
    # minimum.  Set-up is the median of its probes, unscaled: the factor
    # sampled next to a child process did not follow it.
    scaled = workloads.HOST_SCALED[args.workload]
    times = [[t / f for t, f in zip(ts, fs)] if scaled else ts for ts, fs in zip(raw, factors)]
    per_instance = [geometric_mean(t) for t in times]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "instances_per_s": (len(per_instance) / sum(per_instance), "1/s"),
        "latency_p50_s": (statistics.median(per_instance), "s"),
        "latency_p90_s": (float(np.percentile(per_instance, 90)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "fraction"),
        **quality_metrics(sc, instances, side, runner),
    }
    raw_per_instance = [geometric_mean(t) for t in raw]
    unscaled = {
        "host_factor": statistics.median(f for fs in factors for f in fs),
        "instances_per_s": len(raw_per_instance) / sum(raw_per_instance),
        "latency_p50_s": statistics.median(raw_per_instance),
        "latency_p90_s": float(np.percentile(raw_per_instance, 90)),
    }
    records = [{
        "family": inst.family, "n": inst.n, "seed": inst.seed,
        "seconds": raw[idx], "host_factor": factors[idx], **phis(runner, idx),
    } for idx, inst in enumerate(instances)]
    timing = {"host_scaled": scaled, "setup_s": setup_samples, "unscaled": unscaled}
    return metrics, runner, records, timing


def phis(runner, idx) -> dict:
    report = runner.reports.get(idx)
    if report is None:
        return {"phi_sdp": None, "phi_alg": None, "phi_star": None}
    return {"phi_sdp": report.phi_sdp, "phi_alg": report.phi_alg, "phi_star": runner.phi_star(idx, report)}


# per-layer time metrics: span name -> metric name
LAYER_TIMES = {
    "sdp.formulate": "sdp.formulate_s",
    "sdp.solve": "sdp.solve_s",
    "sdp.audit_triangle": "sdp.audit_triangle_s",
    "rounding.threshold_round": "rounding.threshold_round_s",
    "rounding.audit_projection": "rounding.audit_projection_s",
    "rounding.audit_distortion": "rounding.audit_distortion_s",
    "rounding.best_direction": "rounding.best_direction_s",
    "spectral.from_solution": "spectral.from_solution_s",
    "spectral.rank_profile": "spectral.rank_profile_s",
    "oracle.exact": "oracle.exact_s",
    "report.run_pipeline": "report.self_s",
}
LAYER_COUNTS = {
    "iterations": "sdp.solve.iterations",
    "rounds": "sdp.solve.rounds",
    "active_triples": "sdp.solve.active_triples",
    "directions": "rounding.directions",
    "cuts": "oracle.cuts",
}


def run_traced(sc, workloads, check_report, args) -> tuple[dict, Runner, list, list]:
    from tracing import Tracer, instrument, self_times

    tracer = Tracer()
    instances = workloads.build(args.workload, args.seed, args.quick,
                                generate=tracer.wrap("generators.generate", sc.generate))
    runner = Runner(sc, check_report, [workloads.reference_phi(inst) for inst in instances])
    sc.run_pipeline(instances[0].graph)  # warm-up, untimed
    traced_pipeline = tracer.wrap("report.run_pipeline", sc.run_pipeline)

    # An instance's first call runs untraced, then traced: the difference is
    # the tracing overhead.  Its later calls run traced only.
    plain = [[] for _ in instances]
    traced = [[] for _ in instances]
    call_ids = [[] for _ in instances]
    for call, idx in enumerate(schedule(traced, args.seconds, min_calls=1)):
        if not plain[idx]:
            plain[idx].append(runner.attempt(sc.run_pipeline, idx, instances[idx]))
        tracer.instance, tracer.call = idx, call
        with instrument(tracer):
            traced[idx].append(runner.attempt(traced_pipeline, idx, instances[idx]))
        tracer.instance = tracer.call = None
        call_ids[idx].append(call)

    selfs = self_times(tracer.spans)
    counts = defaultdict(lambda: defaultdict(int))
    solve_failed = defaultdict(int)
    for s in tracer.spans:
        # counts repeat exactly: take them from each instance's first traced call
        if s["instance"] is None or s["call"] != call_ids[s["instance"]][0]:
            continue
        for key, value in s.get("counts", {}).items():
            counts[s["instance"]][key] += value
        if s["name"] == "sdp.solve" and s.get("error") == "ConvergenceError":
            solve_failed[s["instance"]] += 1

    records = []
    totals = defaultdict(float)
    for idx, inst in enumerate(instances):
        # the layer split of the instance's fastest traced call
        fastest = call_ids[idx][min(range(len(traced[idx])), key=traced[idx].__getitem__)]
        layer_s = {name: selfs[idx, fastest].get(name, 0.0) for name in LAYER_TIMES}
        for name, seconds in layer_s.items():
            totals[LAYER_TIMES[name]] += seconds
        for key, metric in LAYER_COUNTS.items():
            totals[metric] += counts[idx][key]
        totals["sdp.solve.failed"] += solve_failed[idx]
        totals["report.run_pipeline_s"] += min(traced[idx])
        records.append({
            "family": inst.family, "n": inst.n, "seed": inst.seed,
            **{key: counts[idx][key] for key in ("iterations", "rounds", "active_triples")},
            "layer_self_s": layer_s, "traced_s": traced[idx], "untraced_s": plain[idx],
            **phis(runner, idx),
        })
    # per call, as a median over instances: summing the differences would add
    # up the noise of the slowest instances' single calls
    totals["trace.overhead_s"] = statistics.median(t[0] - p[0] for t, p in zip(traced, plain))
    totals["generators.generate_s"] = sum(s["end"] - s["start"] for s in tracer.spans
                                          if s["name"] == "generators.generate")
    iterations = totals["sdp.solve.iterations"]

    metrics = {name: (value, "count" if name in LAYER_COUNTS.values() or name == "sdp.solve.failed" else "s")
               for name, value in totals.items()}
    metrics["sdp.solve.s_per_iter"] = (totals["sdp.solve_s"] / iterations if iterations else None, "s/iter")
    return metrics, runner, records, tracer.spans


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    if not (SRC / "sparsecut" / "__init__.py").is_file():
        print(f"error: no sparsecut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sparsecut as sc

    if not Path(sc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sparsecut from {sc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from checks import check_report

    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.SPECS)}")

    spans = timing = None
    if args.trace:
        metrics, runner, records, spans = run_traced(sc, workloads, check_report, args)
    else:
        metrics, runner, records, timing = run_end_to_end(sc, workloads, check_report, args)
    machine = machine_info()
    correct = runner.failed == 0
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}{'-quick' if args.quick else ''}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "quick": args.quick, "machine": machine,
                   "attempted": runner.attempted, "failed": runner.failed, "correct": correct,
                   "reference_failures": runner.reference_failures,
                   "metrics": values, "timing": timing, "instances": records, "spans": spans},
                  fh, indent=1)

    print("machine " + json.dumps(machine))
    for key, (value, unit) in metrics.items():
        print(f"{key:30s} {value:.6g} {unit}" if value is not None else f"{key:30s} n/a {unit}")
    if timing is not None:
        print("unscaled " + json.dumps(timing["unscaled"]))
    print(f"{'fail_frac':30s} {runner.failed / runner.attempted:.6g} fraction "
          f"({runner.failed} of {runner.attempted} pipeline calls)")
    if runner.reference_failures:
        print(f"slow_sdp_check failed on {len(runner.reference_failures)} cross-check instance(s), "
              "left out of sdp_vs_slow_max (listed on stderr)")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
