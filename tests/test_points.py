"""Every public function that reads a point configuration takes it through
one gate: at least 2 finite points, one per vertex when a graph is given."""

import numpy as np
import pytest

from sparsecut import (InputError, SpectralReport, audit_distortion,
                       audit_projection_bounds, audit_triangle,
                       best_direction_lower_bound, formulate, generate,
                       gram_spectrum_of_differences, line_embed, solve,
                       threshold_round)
from sparsecut.report import audit_configuration

READERS = {
    "audit_triangle": lambda X, g: audit_triangle(X),
    "threshold_round": lambda X, g: threshold_round(X, g),
    "line_embed": lambda X, g: line_embed(X, 0, 1),
    "audit_projection_bounds": lambda X, g: audit_projection_bounds(X),
    "audit_distortion": lambda X, g: audit_distortion(X, g.demand),
    "best_direction_lower_bound": lambda X, g: best_direction_lower_bound(X),
    "gram_spectrum_of_differences": lambda X, g: gram_spectrum_of_differences(X, g.demand),
    "SpectralReport.from_solution": lambda X, g: SpectralReport.from_solution(g, X),
    "audit_configuration": lambda X, g: audit_configuration(X, g, 0.0),
}
GRAPH_READERS = ("threshold_round", "SpectralReport.from_solution", "audit_configuration")


@pytest.fixture(scope="module")
def planted_six():
    g = generate("planted", 6, 1)
    return g, solve(formulate(g)).vectors


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_rejected(planted_six, reader, value):
    # a NaN once passed the triangle audit as violation 0.0 and came out of
    # the distortion audit as slack nan
    g, X = planted_six
    X = X.copy()
    X[3, 0] = value
    with pytest.raises(InputError, match="finite"):
        READERS[reader](X, g)


@pytest.mark.parametrize("reader", GRAPH_READERS)
def test_point_count_must_match_the_graph(planted_six, reader):
    g, X = planted_six
    with pytest.raises(InputError, match="5 points, graph has 6 vertices"):
        READERS[reader](X[:5], g)


@pytest.mark.parametrize("reader", ["audit_triangle", "gram_spectrum_of_differences"])
def test_single_point_rejected(planted_six, reader):
    g, X = planted_six
    with pytest.raises(InputError, match="n >= 2"):
        READERS[reader](X[:1], g)
