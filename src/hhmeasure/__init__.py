"""Helton-Howe measure densities of almost normal Toeplitz operators.

Library + CLI computing the measure density (1/2 pi i) m_Phi from symbol
Fourier data and numerically verifying the trace formula, the index and
winding identities, the Poisson-smoothing trace decomposition, and the
Besov sufficiency diagnostics.
"""

from . import errors
from .besov import (BesovReport, almost_normal_sufficient, analytic_besov_seminorm,
                    besov_membership, hankel_schatten_probe, jacobian_integrability)
from .degree import (GridSpec, MultiplicityGrid, SampledCurve, default_grid,
                     multiplicity_grid, preimage_multiplicity, winding)
from .gallery import (WeightedShiftSpec, cesaro_commutator, perturbation_family_norm,
                      shift_almost_normality, shift_hh_total_variation)
from .measure import (MeasureDensity, TraceFormulaReport, brown_bound_check,
                      hh_density, index_check, smoothing_limit_probe,
                      total_variation, trace_formula_check)
from .operators import (TruncatedMatrix, commutator_trace, hankel_matrix, schatten_norm,
                        self_commutator, smoothing_trace_identity, toeplitz_matrix)
from .poly import BivariatePolynomial, jacobian_bracket, parse_polynomial
from .symbols import FourierSymbol, load_symbol_spec

__version__ = "0.1.0"

__all__ = [
    "errors", "__version__",
    # symbols
    "FourierSymbol", "load_symbol_spec",
    # polynomials
    "BivariatePolynomial", "jacobian_bracket", "parse_polynomial",
    # operators
    "TruncatedMatrix", "toeplitz_matrix", "hankel_matrix", "self_commutator",
    "commutator_trace", "schatten_norm", "smoothing_trace_identity",
    # degree
    "GridSpec", "SampledCurve", "MultiplicityGrid", "default_grid", "winding",
    "multiplicity_grid", "preimage_multiplicity",
    # measure
    "MeasureDensity", "TraceFormulaReport", "hh_density", "trace_formula_check",
    "total_variation", "brown_bound_check", "index_check", "smoothing_limit_probe",
    # gallery
    "WeightedShiftSpec", "shift_almost_normality", "shift_hh_total_variation",
    "perturbation_family_norm", "cesaro_commutator",
    # besov
    "BesovReport", "analytic_besov_seminorm", "besov_membership",
    "almost_normal_sufficient", "jacobian_integrability", "hankel_schatten_probe",
]
