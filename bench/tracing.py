"""Spans around the public functions that ``run_pipeline`` calls, recorded
from outside the library.

``instrument`` rebinds those functions in ``sparsecut.report``'s namespace
(and ``SpectralReport.from_solution`` on its class) to wrappers that record a
span per call, and restores them on exit.  Nothing under ``src/`` changes, and
calls the library makes internally, such as ``threshold_round``'s own
triangle audit, are not split out: they count towards the caller's span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sparsecut.rounding import _degenerate_threshold

# attribute of sparsecut.report -> span name (module.function)
PIPELINE_SPANS = {
    "formulate": "sdp.formulate",
    "solve": "sdp.solve",
    "audit_triangle": "sdp.audit_triangle",
    "threshold_round": "rounding.threshold_round",
    "audit_projection_bounds": "rounding.audit_projection",
    "audit_distortion": "rounding.audit_distortion",
    "best_direction_lower_bound": "rounding.best_direction",
    "rank_profile": "spectral.rank_profile",
    "exact_sparsest_cut": "oracle.exact",
}
FROM_SOLUTION_SPAN = "spectral.from_solution"


def scanned_directions(vectors) -> int:
    """Difference directions x_k - x_l that ``threshold_round`` sweeps: the
    pairs whose squared distance is above the library's degeneracy
    threshold, computed from the Gram matrix as the library does."""
    X = np.asarray(vectors, dtype=float)
    G = X @ X.T
    diag = np.diag(G)
    iu, ju = np.triu_indices(len(X), k=1)
    sq = (diag[:, None] + diag[None, :] - 2 * G)[iu, ju]
    return int(np.count_nonzero(sq > _degenerate_threshold(sq)))


# Counts read at the span boundary: span name -> fn(args, result) -> dict.
COUNTS = {
    "sdp.solve": lambda args, config: {
        "iterations": config.stats.iterations,
        "rounds": config.stats.rounds,
        "active_triples": config.stats.active_constraints,
    },
    "rounding.threshold_round": lambda args, _: {"directions": scanned_directions(args[0])},
    # exact_sparsest_cut(g) enumerates every side containing vertex 0.  This
    # is the count of the present enumeration, from n: it is not observed.
    "oracle.exact": lambda args, _: {"cuts": 2 ** (args[0].n - 1) - 1},
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span, instance and call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.instance = None
        self.call = None

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "instance": self.instance,
                    "call": self.call, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts:
                span["counts"] = counts(args, result)
            return result

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Record a span for every layer call ``run_pipeline`` makes."""
    import sparsecut.report as report

    saved = {attr: getattr(report, attr) for attr in PIPELINE_SPANS}
    cls = report.SpectralReport
    saved_from_solution = cls.__dict__["from_solution"]
    try:
        for attr, name in PIPELINE_SPANS.items():
            setattr(report, attr, tracer.wrap(name, saved[attr]))
        cls.from_solution = classmethod(tracer.wrap(FROM_SOLUTION_SPAN, saved_from_solution.__func__))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(report, attr, fn)
        cls.from_solution = saved_from_solution


def self_times(spans: list[dict]) -> dict:
    """(instance, call) -> {span name: self seconds}.

    A span's self time is its duration minus the durations of its children;
    spans of one caller run one after another, so children never overlap.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s["instance"], s["call"]][s["name"]] += s["end"] - s["start"] - child[s["id"]]
    return out
