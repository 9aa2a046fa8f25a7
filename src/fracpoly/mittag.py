"""Mittag-Leffler series construction and point evaluation.

E_{a,b}(z) = sum z^n / gamma(a n + b) with a, b > 0.  Coefficients are
exact rationals exactly when a and b are integers (every gamma argument
a n + b is then an integer, where 1/gamma is exact); otherwise they live
in the float domain at the requested precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import DomainError, ToleranceUnreachable
from .gammafns import _bounded, _rgamma, reciprocal_gamma
from .scalars import (DEFAULT_PRECISION, NumberLike, as_rational, check_precision, fraction_to_mpf,
                      positive_rational, raw_in, working_precision)
from .series import TruncatedSeries

__all__ = ["MLParams", "ml_series", "ml_eval", "ml_one_m_closed", "EVAL_ENVELOPE"]

# |z| beyond which the plain Taylor sum is not offered (cancellation grows
# linearly in |z| for negative arguments; see README caveats)
EVAL_ENVELOPE = 50

_MAX_TERMS = 100_000


@dataclass(frozen=True)
class MLParams:
    """Parameters (alpha, beta) of the two-parameter Mittag-Leffler function,
    exact rationals."""

    alpha: Fraction
    beta: Fraction

    def __init__(self, alpha: NumberLike, beta: NumberLike = 1):
        a, b = as_rational(alpha), as_rational(beta)
        if a <= 0 or b <= 0:
            raise DomainError(f"Mittag-Leffler parameters must be positive, got ({a}, {b})")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def ml_series(p: MLParams, order: int, precision: int = DEFAULT_PRECISION) -> TruncatedSeries:
    """Taylor coefficients 1/gamma(alpha n + beta) through the given order."""
    check_precision(precision)
    if order < 0:
        raise DomainError(f"series order must be nonnegative, got {order}")
    # the arguments through n = max(order, 1) are refused when too large,
    # so that the order-0 series is refused where every longer one is
    if p.alpha.denominator == 1 and p.beta.denominator == 1:
        # every argument is an integer: 1/(a n + b - 1)! is the product of
        # a n + b .. a N + b - 1 over D = (a N + b - 1)!, built from the top
        a, b = p.alpha.numerator, p.beta.numerator
        _bounded(a * max(order, 1) + b - 1)
        nums = [1] * (order + 1)
        for n in range(order - 1, -1, -1):
            nums[n] = nums[n + 1] * math.prod(range(a * n + b, a * n + a + b))
        return TruncatedSeries._raw(nums, None, nums[0] * math.factorial(b - 1))
    # exact term arguments: every argument with the same fractional part
    # shares one Spouge sum; an integer argument's exact value is rounded
    # once to the precision
    s = TruncatedSeries([raw_in(reciprocal_gamma(p.alpha * n + p.beta, precision), precision)
                         for n in range(max(order, 1) + 1)], precision)
    return s if s.order == order else s[:1]


def ml_eval(
    p: MLParams,
    z: NumberLike,
    tol: NumberLike | None = None,
    precision: int = DEFAULT_PRECISION,
):
    """Sum the defining series until the geometric tail bound is below tol;
    the sum is an mpf rounded once to the given precision.

    Raises DomainError for |z| > 50 and ToleranceUnreachable
    when the requested relative tolerance cannot be met at this precision
    (either statically, or because cancellation ate too many bits).
    """
    check_precision(precision)
    z = as_rational(z)
    z_abs = abs(z)
    if z_abs > EVAL_ENVELOPE:
        raise DomainError(f"|z| = {z_abs} exceeds the evaluation envelope {EVAL_ENVELOPE}")
    tol_fr = Fraction(1, 2 ** (precision - 24)) if tol is None else positive_rational(tol, "tolerance")
    if tol_fr < Fraction(1, 2 ** (precision - 12)):
        raise ToleranceUnreachable(
            f"tolerance {float(tol_fr):.3e} below the resolution of {precision}-bit arithmetic"
        )
    # the term ratio |z| gamma(alpha n + beta) / gamma(alpha (n+1) + beta) falls
    # with n; at 1/2 or more for the last allowed term, the break below never
    # fires (1e-6 covers the float64 error of the estimate)
    a, b = float(p.alpha), float(p.beta)
    last_log_ratio = (math.log(z_abs.numerator or 1) - math.log(z_abs.denominator)
                      + math.lgamma(a * _MAX_TERMS + b) - math.lgamma(a * (_MAX_TERMS + 1) + b))
    if z_abs and last_log_ratio >= math.log(0.5) + 1e-6:
        raise ToleranceUnreachable(
            f"series cannot settle within {_MAX_TERMS} terms: the term ratio stays >= 1/2 "
            f"(alpha={p.alpha}, z={z})"
        )
    wp = precision + 16
    with working_precision(wp):
        zm = fraction_to_mpf(z, wp)
        tolm = mp.mpf(tol_fr.numerator) / tol_fr.denominator
        total = mp.mpf(0)
        peak = mp.mpf(0)
        term = _rgamma(p.beta, precision)  # n = 0, z^0
        zpow = mp.mpf(1)
        n = 0
        while True:
            total += term
            peak = max(peak, abs(term))
            zpow *= zm
            nxt = zpow * _rgamma(p.alpha * (n + 1) + p.beta, precision)
            if abs(nxt) < tolm * abs(total) and abs(term) > 0:
                ratio = abs(nxt) / abs(term)
                if ratio < mp.mpf(1) / 2:
                    tail = abs(nxt) / (1 - ratio)
                    if tail < tolm * abs(total):
                        total += nxt
                        break
            term = nxt
            n += 1
            if n > _MAX_TERMS:
                raise ToleranceUnreachable(
                    f"series did not settle within {_MAX_TERMS} terms "
                    f"(alpha={p.alpha}, z={z})"
                )
        # bits destroyed by cancellation must leave room for the tolerance
        if total == 0 or peak / abs(total) > mp.mpf(2) ** (precision - 8) * tolm:
            raise ToleranceUnreachable(
                f"cancellation in the alternating sum exceeds the {precision}-bit budget "
                f"for tolerance {float(tolm):.3e}"
            )
    return mp.mpf(total, prec=precision)


def ml_one_m_closed(m: int, z: NumberLike, precision: int = DEFAULT_PRECISION):
    """Closed form of E_{1,m}: (e^z - sum_{k<=m-2} z^k/k!) / z^{m-1}, an
    mpf rounded once to the given precision.

    Near z = 0 the subtraction cancels catastrophically, so |z| < 1/4 falls
    back to the series evaluation.
    """
    check_precision(precision)
    if not isinstance(m, int) or m < 2:
        raise DomainError(f"closed form requires integer m >= 2, got {m!r}")
    z = as_rational(z)
    if abs(z) < Fraction(1, 4):
        return ml_eval(MLParams(1, m), z, precision=precision)
    return mp.mpf(_subtracted_exponential(m, z, precision + 8 * m + 16), prec=precision)


def _subtracted_exponential(m: int, z: Fraction, wp: int):
    """(e^z - sum_{k<=m-2} z^k/k!) / z^{m-1} as an mpf at wp bits."""
    with working_precision(wp):
        zm = fraction_to_mpf(z, wp)
        partial = mp.mpf(0)
        for k in range(m - 1):
            partial += zm ** k / math.factorial(k)
        return (mp.exp(zm) - partial) / zm ** (m - 1)
