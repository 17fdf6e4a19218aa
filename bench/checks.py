"""Correctness checks on one ``run_pipeline`` result."""

from __future__ import annotations

import math

from sparsecut import Cut, WeightedGraphPair, sparsity

SANDWICH_SDP_SLACK = 1e-4   # acceptance criterion 1: Phi(SDP) - 1e-4 <= Phi*
SANDWICH_ALG_SLACK = 1e-9   # acceptance criterion 1: Phi* <= Phi(ALG) + 1e-9


def check_report(g: WeightedGraphPair, report, phi_star: float | None,
                 obj_tol: float) -> list[str]:
    """Problems found in ``report``; an empty list means it passed.

    ``phi_star`` is the optimal sparsity where it is known (the oracle's
    value, or a reference computed by the benchmark), else None.
    """
    problems = []
    cut = Cut.from_vertices([v - 1 for v in report.alg_cut], g.n)
    if not cut.is_proper:
        problems.append(f"reported cut {report.alg_cut} is not proper")
    else:
        recomputed = sparsity(g, cut).sparsity
        if not math.isclose(recomputed, report.phi_alg, rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"phi_alg {report.phi_alg!r} but the reported cut has sparsity {recomputed!r}")
    if not report.phi_sdp <= report.phi_alg * (1.0 + obj_tol):
        problems.append(f"phi_sdp {report.phi_sdp!r} above phi_alg {report.phi_alg!r} by more than obj_tol")
    if phi_star is not None and not (report.phi_sdp - SANDWICH_SDP_SLACK <= phi_star
                                     <= report.phi_alg + SANDWICH_ALG_SLACK):
        problems.append(f"sandwich fails: phi_sdp {report.phi_sdp!r}, phi* {phi_star!r}, "
                        f"phi_alg {report.phi_alg!r}")
    return problems
