"""End-to-end pipeline: solve, round, audit, and assemble a run report."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SparseCutError
from .graphs import CutResult, WeightedGraphPair
from .oracle import ENUMERATION_MAX_N, CourantFisherCheck, exact_sparsest_cut
from .rounding import (audit_distortion, audit_projection_bounds,
                       best_direction_lower_bound, require_feasible, threshold_round)
from .sdp import SolverOptions, VectorConfiguration, audit_triangle, formulate, solve
from .spectral import (RankProfileRow, SpectralReport, best_bound, is_symmetric,
                       rank_profile)

DEFAULT_ORACLE_MAX = 16


def _cut_vertices_1based(result: CutResult) -> list[int]:
    return [v + 1 for v in result.cut.vertices()]


@dataclass(frozen=True)
class RunReport:
    instance: dict
    phi_sdp: float
    phi_alg: float
    alg_cut: list[int]
    phi_star: float | None
    star_cut: list[int] | None
    lambda_1: float
    courant_fisher_holds: bool | None
    generalized: list[float]
    gram_spectrum: list[float]
    bound_table: list[RankProfileRow]
    min_bound: float | None
    audits: dict
    solver: dict
    timing: dict
    configuration: VectorConfiguration

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "instance": self.instance,
            "phi_sdp": self.phi_sdp,
            "phi_alg": {"value": self.phi_alg, "cut": self.alg_cut},
            "phi_star": (None if self.phi_star is None
                         else {"value": self.phi_star, "cut": self.star_cut}),
            "lambda": self.generalized,
            "sigma": self.gram_spectrum,
            "courant_fisher": (None if self.courant_fisher_holds is None else {
                "lambda_1": self.lambda_1,
                "holds": self.courant_fisher_holds,
            }),
            "bound_table": [
                {
                    "r": row.r,
                    "lambda_next": row.lambda_next,
                    "tail_fraction": row.tail_fraction,
                    "applicable": row.applicable,
                    "factor": row.factor,
                    "bound": row.bound,
                    "best": row.best,
                }
                for row in self.bound_table
            ],
            "min_bound": self.min_bound,
            "audits": self.audits,
            "solver": self.solver,
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


STAGES = ("formulate", "solve", "round", "spectral", "audit", "oracle")


def _stage(seconds: dict, name: str, fn, *args, **kwargs):
    """Run one pipeline stage, adding its wall time to seconds[name] and
    tagging any package error with the stage name."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except SparseCutError as exc:
        exc.stage = name
        raise
    finally:
        seconds[name] += time.perf_counter() - t0


def audit_configuration(vectors: np.ndarray, g: WeightedGraphPair,
                        psd_residual: float) -> dict:
    """Every property audit of a configuration, as the report's `audits` block.

    Raises PropertyViolationError when the triangle family or an audited
    inequality is violated by more than `rounding.VIOLATION_REL_TOL` times the
    mean squared pair distance.
    """
    triangle = audit_triangle(vectors)
    require_feasible(triangle, vectors)
    projection = audit_projection_bounds(vectors)
    distortion = audit_distortion(vectors, g.demand)
    direction = best_direction_lower_bound(vectors)
    gram = vectors @ vectors.T
    return {
        "triangle_violation": triangle.max_violation,
        "worst_triple": list(triangle.worst_triple) if triangle.worst_triple else None,
        "projection_slack": projection.tightest_slack,
        "distortion_slack": distortion.tightest_slack,
        "direction_margin": direction.margin,
        "normalization_residual": abs(float((g.demand_laplacian() * gram).sum()) - 1.0),
        "psd_residual": psd_residual,
    }


def run_pipeline(g: WeightedGraphPair, opts: SolverOptions | None = None,
                 oracle_max: int = DEFAULT_ORACLE_MAX) -> RunReport:
    """formulate -> solve -> round -> spectra -> bounds -> audit -> oracle."""
    t_total = time.perf_counter()
    seconds = dict.fromkeys(STAGES, 0.0)
    problem = _stage(seconds, "formulate", formulate, g)
    config = _stage(seconds, "solve", solve, problem, opts)
    alg = _stage(seconds, "round", threshold_round, config.vectors, g)
    spectra = _stage(seconds, "spectral", SpectralReport.from_solution, g, config.vectors)
    table = _stage(seconds, "spectral", rank_profile, spectra, config.objective_value)
    audits = _stage(seconds, "audit", audit_configuration, config.vectors, g, config.psd_residual)

    phi_star = None
    star_cut = None
    cf_holds = None
    lam1 = float(spectra.generalized[0])
    if g.n <= min(oracle_max, ENUMERATION_MAX_N):
        star = _stage(seconds, "oracle", exact_sparsest_cut, g)
        phi_star = star.sparsity
        star_cut = _cut_vertices_1based(star)
        cf_holds = CourantFisherCheck(lam1, phi_star).holds

    stats = config.stats
    return RunReport(
        instance={
            "n": g.n,
            "cost_edges": len(g.cost),
            "demand_edges": len(g.demand),
            "total_demand": g.total_demand,
        },
        phi_sdp=config.objective_value,
        phi_alg=alg.sparsity,
        alg_cut=_cut_vertices_1based(alg),
        phi_star=phi_star,
        star_cut=star_cut,
        lambda_1=lam1,
        courant_fisher_holds=cf_holds,
        generalized=[float(v) for v in spectra.generalized],
        gram_spectrum=[float(v) for v in spectra.gram],
        bound_table=table,
        min_bound=best_bound(table),
        audits=audits,
        solver={
            "iterations": stats.iterations,
            "rounds": stats.rounds,
            "active_constraints": stats.active_constraints,
            "dual_objective": stats.dual_objective,
            "stop_reason": stats.stop_reason,
            "polish_shift": stats.polish_shift,
        },
        timing={
            "total_seconds": time.perf_counter() - t_total,
            "stage_seconds": seconds,
        },
        configuration=config,
    )


def gram_to_text(G: np.ndarray) -> str:
    """Dense row-major space-separated text form of a matrix."""
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in np.asarray(G)) + "\n"


def gram_from_text(text: str) -> np.ndarray:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = [float(v) for v in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: malformed matrix row")
        if not np.isfinite(row).all():
            raise ParseError(f"line {lineno}: matrix entries must be finite")
        rows.append(row)
    if not rows:
        raise ParseError("empty matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise ParseError("matrix must be square")
    G = np.array(rows)
    if not is_symmetric(G):
        raise ParseError("matrix is not symmetric within tolerance")
    return G
