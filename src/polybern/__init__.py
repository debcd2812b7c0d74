"""polybern: exact computation of degenerate multi-poly-Bernoulli numbers
and polynomials, and machine verification of the identities they satisfy.

Everything is computed over arbitrary-precision rationals by truncated
formal-power-series manipulation; no floating point enters any result.
The package is organized bottom up:

``rationals``
    the exact coefficient field ("p/q" wire format, chain-sum weights, and
    the private decimal rendering of the diagnostics' residuals)
``series``
    dense truncated power series (frozen values with no arithmetic) and
    the int kernels under the family pipeline (product, inversion, composition
    with 1 - e^{-t})
``special``
    named series and tables (degenerate exponentials, multiple
    polylogarithms, polyexponentials, Stirling triangles)
``families``
    the Bernoulli-type families extracted from their generating functions
``verify``
    exact identity checks and partial-sum divergence diagnostics
``cli``
    the ``polybern`` command-line front end
"""

from .families import (
    FamilyQuery,
    SequenceResult,
    carlitz_degenerate,
    degenerate_multi_poly_bernoulli,
    multi_poly_bernoulli,
    poly_bernoulli,
    type2_poly_bernoulli,
)
from .rationals import ArgumentError, format_rational, inv_pow, parse_rational
from .series import TruncatedSeries, ValuationError
from .special import (
    StirlingTable,
    degenerate_exp,
    log1p_series,
    multi_polylog,
    one_minus_exp_neg,
    polyexp,
    stirling_table,
)
from .verify import (
    ReportRow,
    VerificationReport,
    verify_addition,
    verify_chain_stirling,
    verify_deriv_recurrences,
    verify_difference,
    verify_li_ones,
    verify_polynomial_expansion,
    verify_resummation,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "FamilyQuery",
    "ReportRow",
    "SequenceResult",
    "StirlingTable",
    "TruncatedSeries",
    "ValuationError",
    "VerificationReport",
    "carlitz_degenerate",
    "degenerate_exp",
    "degenerate_multi_poly_bernoulli",
    "format_rational",
    "inv_pow",
    "log1p_series",
    "multi_poly_bernoulli",
    "multi_polylog",
    "one_minus_exp_neg",
    "parse_rational",
    "poly_bernoulli",
    "polyexp",
    "stirling_table",
    "type2_poly_bernoulli",
    "verify_addition",
    "verify_chain_stirling",
    "verify_deriv_recurrences",
    "verify_difference",
    "verify_li_ones",
    "verify_polynomial_expansion",
    "verify_resummation",
]
