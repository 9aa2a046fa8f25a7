"""Mittag-Leffler series construction and point evaluation.

E_{a,b}(z) = sum z^n / gamma(a n + b) with a, b > 0.  Coefficients are
exact rationals exactly when a and b are integers (every gamma argument
a n + b is then an integer, where 1/gamma is exact); otherwise they live
in the float domain at the requested precision.

:func:`ml_eval_points` sums at several points, each term's 1/gamma
computed once for all of them; :func:`ml_eval` is its one-point case.
The sums, the terms' reciprocal gammas and the closed form of
:func:`ml_one_m_closed` run on mpmath's libmp tuples at an explicit
working precision (precision + 16 for the sums), each operation rounded
to nearest as the mpf operators round in a scope of that precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from mpmath import libmp, mp

from .errors import DomainError, ToleranceUnreachable
from .gammafns import _bounded, _rgamma, reciprocal_gamma
from .scalars import (_PREC_LOCK, DEFAULT_PRECISION, NumberLike, as_rational, check_precision, positive_rational,
                      tuple_in)
from .series import TruncatedSeries

__all__ = ["MLParams", "ml_series", "ml_eval", "ml_eval_points", "ml_one_m_closed", "EVAL_ENVELOPE"]

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
    # shares one Spouge sum; the constructor rounds an integer argument's
    # exact value once to the precision
    s = TruncatedSeries([reciprocal_gamma(p.alpha * n + p.beta, precision) for n in range(max(order, 1) + 1)],
                        precision)
    return s if s.order == order else s[:1]


def ml_eval(
    p: MLParams,
    z: NumberLike,
    tol: NumberLike | None = None,
    precision: int = DEFAULT_PRECISION,
):
    """Sum the defining series until the geometric tail bound is below tol;
    the sum is an mpf rounded once to the given precision: the one-point
    case of :func:`ml_eval_points`.

    Raises DomainError for |z| > 50 and ToleranceUnreachable
    when the requested relative tolerance cannot be met at this precision
    (either statically, or because cancellation ate too many bits).
    """
    return ml_eval_points(p, (z,), tol, precision)[0]


def ml_eval_points(p: MLParams, zs: Iterable[NumberLike], tol: NumberLike | None = None,
                   precision: int = DEFAULT_PRECISION) -> list:
    """:func:`ml_eval` at each point of zs, in order.  Each term's
    1/gamma(alpha n + beta) is computed once, by the first sum that reaches
    it, and shared with the sums after it; each point keeps its own sum,
    stopping rule and refusal, so it gets the bits of a one-point call, and
    the first point refused raises the refusal of its one-point call."""
    check_precision(precision)
    rgs = []
    return [_ml_sum(p, z, tol, precision, rgs) for z in zs]


def _ml_sum(p: MLParams, z: NumberLike, tol: NumberLike | None, precision: int, rgs: list):
    """One point's sum, reading the term n's 1/gamma from rgs[n] and
    appending to rgs the ones no earlier sum reached."""
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
    rnd, fzero = libmp.round_nearest, libmp.fzero
    add, mul, div, lt, mag = libmp.mpf_add, libmp.mpf_mul, libmp.mpf_div, libmp.mpf_lt, libmp.mpf_abs
    zm = libmp.from_rational(z.numerator, z.denominator, wp, rnd)
    tolm = div(libmp.from_int(tol_fr.numerator, wp, rnd), libmp.from_int(tol_fr.denominator), wp, rnd)
    an, ad, bn, bd = p.alpha.numerator, p.alpha.denominator, p.beta.numerator, p.beta.denominator
    total = peak = fzero
    zpow = libmp.fone
    n = 0
    if not rgs:
        rgs.append(_rgamma(p.beta, precision, wp))
    term = rgs[0]  # n = 0, z^0
    while True:
        total = add(total, term, wp, rnd)
        term_abs = mag(term, wp, rnd)
        if lt(peak, term_abs):
            peak = term_abs
        zpow = mul(zpow, zm, wp, rnd)
        if n + 1 == len(rgs):  # the argument alpha (n + 1) + beta
            rgs.append(_rgamma(Fraction((an * bd) * (n + 1) + bn * ad, ad * bd), precision, wp))
        nxt = mul(zpow, rgs[n + 1], wp, rnd)
        nxt_abs = mag(nxt, wp, rnd)
        bound = mul(tolm, mag(total, wp, rnd), wp, rnd)
        if lt(nxt_abs, bound) and term != fzero:
            ratio = div(nxt_abs, term_abs, wp, rnd)
            if lt(ratio, libmp.fhalf):
                tail = div(nxt_abs, libmp.mpf_sub(libmp.fone, ratio, wp, rnd), wp, rnd)
                if lt(tail, bound):
                    total = add(total, nxt, wp, rnd)
                    break
        term = nxt
        n += 1
        if n > _MAX_TERMS:
            raise ToleranceUnreachable(
                f"series did not settle within {_MAX_TERMS} terms "
                f"(alpha={p.alpha}, z={z})"
            )
    # bits destroyed by cancellation must leave room for the tolerance
    if total == fzero or lt(libmp.mpf_shift(tolm, precision - 8), div(peak, mag(total, wp, rnd), wp, rnd)):
        raise ToleranceUnreachable(
            f"cancellation in the alternating sum exceeds the {precision}-bit budget "
            f"for tolerance {libmp.to_float(tolm, rnd=rnd):.3e}"
        )
    return mp.make_mpf(libmp.mpf_pos(total, precision, rnd))


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
    return mp.make_mpf(libmp.mpf_pos(_subtracted_exponential(m, z, precision + 8 * m + 16), precision,
                                     libmp.round_nearest))


def _subtracted_exponential(m: int, z: Fraction, wp: int) -> tuple:
    """(e^z - sum_{k<=m-2} z^k/k!) / z^{m-1} as a libmp tuple at wp bits."""
    rnd, partial, zm = libmp.round_nearest, libmp.fzero, tuple_in(z, wp)
    for k in range(m - 1):
        term = libmp.mpf_div(libmp.mpf_pow_int(zm, k, wp, rnd), libmp.from_int(math.factorial(k)), wp, rnd)
        partial = libmp.mpf_add(partial, term, wp, rnd)
    with _PREC_LOCK:
        ez = libmp.mpf_exp(zm, wp, rnd)
    return libmp.mpf_div(libmp.mpf_sub(ez, partial, wp, rnd), libmp.mpf_pow_int(zm, m - 1, wp, rnd), wp, rnd)
