"""Non-uniform sparsest cut via the l2^2 triangle-inequality semidefinite
relaxation, with projection + threshold rounding and spectral certificates."""

from .errors import (ConvergenceError, DegenerateDirectionError, InputError,
                     ParseError, PropertyViolationError, RoundingError,
                     SparseCutError)
from .generators import FAMILIES, generate
from .graphs import (Cut, CutResult, WeightedGraphPair, format_instance,
                     laplacian, parse_instance, read_instance, sparsity)
from .oracle import courant_fisher_check, exact_sparsest_cut, slow_sdp_check
from .report import RunReport, run_pipeline
from .rounding import (audit_distortion, audit_projection_bounds,
                       best_direction_lower_bound, l1_embed, line_embed,
                       threshold_round)
from .sdp import (SdpProblem, SolverOptions, VectorConfiguration,
                  audit_triangle, formulate, solve)
from .spectral import (SpectralReport, generalized_eigenvalues,
                       gram_spectrum_of_differences, rank_profile)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DegenerateDirectionError", "InputError", "ParseError",
    "PropertyViolationError", "RoundingError", "SparseCutError",
    "FAMILIES", "generate",
    "Cut", "CutResult", "WeightedGraphPair", "format_instance", "laplacian",
    "parse_instance", "read_instance", "sparsity",
    "courant_fisher_check", "exact_sparsest_cut", "slow_sdp_check",
    "RunReport", "run_pipeline",
    "audit_distortion", "audit_projection_bounds", "best_direction_lower_bound",
    "l1_embed", "line_embed", "threshold_round",
    "SdpProblem", "SolverOptions", "VectorConfiguration", "audit_triangle",
    "formulate", "solve",
    "SpectralReport", "generalized_eigenvalues", "gram_spectrum_of_differences",
    "rank_profile",
]
