"""The geometry behind the rounding: line embeddings land in [0, 1] exactly
when all angles of the configuration are non-obtuse, and the distances of
the demand-weighted l1 embedding are sandwiched between averaged squared
projections and squared distances.

Run:  python demos/rounding_geometry.py
"""

import numpy as np

from sparsecut import (audit_distortion, audit_projection_bounds,
                       audit_triangle, line_embed)

# The unit hypercube is the canonical feasible configuration: every angle
# is a right angle or sharper, squared distances are Hamming distances.
cube = np.array([[(v >> b) & 1 for b in range(3)] for v in range(8)], dtype=float)
print("triangle audit on the 3-cube:", audit_triangle(cube))

# Project onto the main diagonal: points sort by popcount, giving the
# threshold-cut family of "at most k ones" sets.
p = line_embed(cube, 7, 0)
print("\nline embedding along the main diagonal (multiples of 1/3):")
for v in range(8):
    print(f"  {v:03b} -> {p[v]:.4f}")

# Squeeze one point off the cube and the triangle family breaks; the
# projection sandwich detects it with a named witness.
bent = cube.copy()
bent[3] = [2.5, 2.5, 0.0]
audit = audit_triangle(bent)
print(f"\nbent cube: triangle violation {audit.max_violation:.3f} "
      f"at triple {audit.worst_triple}")
try:
    audit_projection_bounds(bent)
except Exception as exc:
    print(f"projection audit rejects it: {exc}")

# On a feasible configuration the l1 embedding built from demand-weighted
# projections contracts squared distances from above and dominates the
# averaged squared projections from below.  The distortion audit checks both
# inequalities at every pair and names the pair where the slack is smallest.
demand = {(0, 7): 1.0, (1, 6): 2.0, (2, 5): 0.5}
dist = audit_distortion(cube, demand)
print(f"\ndistortion audit over {dist.pairs_checked} pairs: "
      f"tightest slack {dist.tightest_slack:.3g} at pair {dist.witness}")
