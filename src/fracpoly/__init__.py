"""fracpoly: generalized Bernoulli/Euler/Genocchi polynomial families under
fractional calculus, with exact rational arithmetic where the mathematics is
exact and explicit-precision floats where it is not.

The package constructs the three polynomial families generated by dividing
small numerators by lambda * E_alpha(z) -+ 1 (E_alpha the Mittag-Leffler
function), applies Caputo derivatives and Riemann-Liouville integrals to
them, and machine-verifies the identities these objects satisfy, including
their closed-form fractional derivatives, against an independent singular
quadrature oracle.  The ``fracpoly`` CLI exposes tables, evaluation and the
verification suites.
"""

from .errors import DomainError, FracPolyError, ToleranceUnreachable
from .scalars import DEFAULT_PRECISION
from .gammafns import generalized_binomial, multinomial, reciprocal_gamma
from .series import (
    TruncatedSeries,
    cauchy_product,
    reciprocal,
    series_add,
)
from .mittag import MLParams, ml_eval, ml_one_m_closed, ml_series
from .families import (
    FamilyKind,
    FamilyParams,
    Polynomial,
    family_numbers,
    family_polynomial,
    integral_over_unit_interval,
    multinomial_number_product,
)
from .fractional import (
    CaputoOrder,
    FracExpansion,
    caputo_closed_form,
    caputo_derivative_poly,
    caputo_quadrature_oracle,
    eval_frac_expansion,
    leibniz_product,
    rl_derivative_term,
    rl_integral_poly,
)
from .verify import RunConfig, VerificationReport, run_suite
from . import families, fractional, gammafns, verify

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the package, the Spouge root table of
    :mod:`fracpoly.gammafns` and the family cache of
    :mod:`fracpoly.families` (number series and polynomials), so that the
    next call computes every value afresh (the oracle's set-up memo holds
    the Gauss-Jacobi rules; :mod:`fracpoly.quadrature` holds none).  A memo hit returns
    the bits of a fresh call, so this changes no result, only what the
    next call computes: a test that patches a route calls it first, so
    that no value held from before the patch hides the patched route."""
    for memo in (gammafns._spouge_coeffs, gammafns._spouge_memo, gammafns._reciprocal_gamma_memo,
                 fractional.rl_derivative_term, fractional._oracle_setup, fractional._power,
                 verify._oracle_values):
        memo.cache_clear()
    gammafns._roots = (0, ())
    with families._family_lock:
        families._family_cache.clear()
        families._family_held = 0

__all__ = [
    "DEFAULT_PRECISION",
    "reciprocal_gamma",
    "generalized_binomial",
    "multinomial",
    "TruncatedSeries",
    "series_add",
    "cauchy_product",
    "reciprocal",
    "MLParams",
    "ml_series",
    "ml_eval",
    "ml_one_m_closed",
    "FamilyKind",
    "FamilyParams",
    "Polynomial",
    "family_numbers",
    "family_polynomial",
    "integral_over_unit_interval",
    "multinomial_number_product",
    "CaputoOrder",
    "FracExpansion",
    "caputo_derivative_poly",
    "rl_integral_poly",
    "rl_derivative_term",
    "leibniz_product",
    "caputo_closed_form",
    "caputo_quadrature_oracle",
    "eval_frac_expansion",
    "RunConfig",
    "VerificationReport",
    "run_suite",
    "FracPolyError",
    "DomainError",
    "ToleranceUnreachable",
    "clear_caches",
]
