"""End-to-end walkthrough: generate an instance, solve the relaxation,
round to a cut, and compare against the exact optimum.

Run:  python demos/pipeline_walkthrough.py
"""

import numpy as np

from sparsecut import (exact_sparsest_cut, formulate, generate, run_pipeline,
                       solve, threshold_round)

# A planted instance: two dense cost blocks joined by a light bridge, all
# demand across the blocks.  The bridge cut is optimal by construction.
g = generate("planted", 10, 7)
print(f"instance: n={g.n}, {len(g.cost)} cost pairs, {len(g.demand)} demand pairs")

# Solve the semidefinite relaxation.  The solver homogenizes the ratio
# objective (demand sum pinned to 1), separates the cubic family of
# squared-triangle inequalities lazily, and polishes the final iterate to
# exact feasibility.
problem = formulate(g)
config = solve(problem)
print(f"\nrelaxation value      {config.objective_value:.6f}")
print(f"triangle violation    {config.triangle_violation:.2e}")
print(f"normalization residual {config.normalization_residual:.2e}")
print(f"solver: {config.stats.rounds} rounds, {config.stats.iterations} iterations, "
      f"{config.stats.active_constraints} active cuts "
      f"(family size {len(problem.triangle_triples()[0])})")

# Round: scan every direction x_k - x_l, project all points onto it, and
# take the best threshold cut over all directions and thresholds.
alg = threshold_round(config.vectors, g)
print(f"\nrounded cut           {sorted(v + 1 for v in alg.cut.vertices())}")
print(f"rounded sparsity      {alg.sparsity:.6f}")

# Ground truth by enumeration (2^(n-1) proper cuts).
star = exact_sparsest_cut(g)
print(f"optimal cut           {sorted(v + 1 for v in star.cut.vertices())}")
print(f"optimal sparsity      {star.sparsity:.6f}")

assert config.objective_value <= star.sparsity + 1e-4 <= alg.sparsity + 2e-4
print("\nsandwich holds: relaxation <= optimum <= rounded cut")

# The full pipeline bundles all of the above plus the spectral certificates
# and feasibility audits into one JSON-ready report.
report = run_pipeline(g)
print(f"\nreport: phi_sdp={report.phi_sdp:.6f}  phi_alg={report.phi_alg:.6f}  "
      f"phi_star={report.phi_star:.6f}")
print(f"spectral bound on phi_alg: {report.min_bound:.6f}")
slacks = {k: f"{v:.2e}" for k, v in report.audits.items() if isinstance(v, float)}
print(f"audit slacks: {slacks}")
