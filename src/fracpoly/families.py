"""Bernoulli-, Euler- and Genocchi-type polynomial families.

The three families share the construction: divide a small numerator by
lambda * E_alpha(z) -+ 1, read off exponential coefficients, and spread
them over powers of x with binomial weights.  alpha = 1 specializes the
generating functions to the lambda-weighted (Apostol) families and
alpha = lambda = 1 to the classical ones.  Higher order h >= 2 is defined
for the Bernoulli kind at alpha = 1 only, as the h-fold product of the
order-1 series.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import DegenerateDenominator, DomainError, ZeroConstantTerm
from .gammafns import multinomial
from .mittag import MLParams, ml_series
from .scalars import (DEFAULT_PRECISION, Coefficients, Scalar, ScalarLike, as_rational, as_raw, check_precision,
                      domain_scope, join_precision, positive_rational, raw_in)
from .series import TruncatedSeries, _over_lcm, cauchy_product, reciprocal, series_add

__all__ = [
    "FamilyKind",
    "FamilyParams",
    "Polynomial",
    "family_numbers",
    "family_series",
    "family_polynomial",
    "integral_over_unit_interval",
    "multinomial_number_product",
    "check_compositions",
    "MAX_H",
    "MAX_COMPOSITIONS",
]

# the largest order h: the h-fold product costs h Cauchy products
MAX_H = 16
# the most compositions one multinomial_number_product sums, each an exact
# product of h numbers (about 40 us each on a 2-core x86 VM)
MAX_COMPOSITIONS = 30_000


class FamilyKind(str, Enum):
    BERNOULLI = "bernoulli"
    EULER = "euler"
    GENOCCHI = "genocchi"


@dataclass(frozen=True)
class FamilyParams:
    """Selects one generating function: kind, alpha > 0, lambda > 0, order h.
    alpha and lambda are exact rationals."""

    kind: FamilyKind
    alpha: Fraction
    lam: Fraction
    h: int = 1

    def __init__(self, kind, alpha: ScalarLike = 1, lam: ScalarLike = 1, h: int = 1):
        kind = FamilyKind(kind)
        a = positive_rational(alpha, "family parameter alpha")
        l = positive_rational(lam, "family parameter lambda")
        _check_h(h)
        if h >= 2 and (kind is not FamilyKind.BERNOULLI or a != 1):
            raise DomainError(
                "order h >= 2 is defined only for the Bernoulli kind at alpha = 1"
            )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "lam", l)
        object.__setattr__(self, "h", h)


def _check_h(h) -> None:
    if not isinstance(h, int) or not 1 <= h <= MAX_H:
        raise DomainError(f"order h must be an integer from 1 to {MAX_H}, got {h!r}")


class Polynomial(Coefficients):
    """Dense polynomial in one variable, coefficients ascending by degree,
    in one coefficient domain (see :class:`~fracpoly.scalars.Coefficients`)."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[ScalarLike]):
        super().__init__(list(coeffs) or [0])

    @property
    def degree(self) -> int:
        """Index of the last stored coefficient (trailing zeros tolerated)."""
        return len(self._values) - 1

    def is_zero(self) -> bool:
        return not any(self._values)

    def evaluate(self, x: ScalarLike) -> Scalar:
        xv, xprec = as_raw(x)
        prec = join_precision(self._prec, xprec)
        if prec is None:
            return Scalar(_exact_horner(self._values, xv), None)
        xv = raw_in(xv, prec)
        acc = 0
        with domain_scope(prec):
            for c in reversed(self._values_in(prec)):
                acc = acc * xv + c
        return Scalar(acc, prec)

    def derivative(self) -> "Polynomial":
        with domain_scope(self._prec):
            out = [c * k for k, c in enumerate(self._values) if k]
        return self._raw(out or [raw_in(0, self._prec)], self._prec)

    def antiderivative(self) -> "Polynomial":
        with domain_scope(self._prec):
            out = [c / (k + 1) for k, c in enumerate(self._values)]
        return self._raw([raw_in(0, self._prec)] + out, self._prec)

    def monomials(self):
        """Yield raw (coefficient, power) pairs for nonzero coefficients."""
        for k, c in enumerate(self._values):
            if c:
                yield c, k

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"


def _exact_horner(values: tuple, x: Fraction) -> Fraction:
    """sum values[k] x^k for Fractions, as one integer Horner pass: with
    D the lcm of the denominators and x = p/q, the sum is
    (sum D values[k] p^k q^(n-k)) / (D q^n), normalized once."""
    nums, den = _over_lcm(values)
    p, q = x.numerator, x.denominator
    acc, q_pow = 0, 1
    for c in reversed(nums):
        acc = acc * p + c * q_pow
        q_pow *= q
    return Fraction(acc, den * q ** (len(values) - 1))


# (c, k): the numerator c * z^k over lambda * E_alpha(z) -+ 1
_NUMERATORS = {FamilyKind.BERNOULLI: (1, 1), FamilyKind.EULER: (2, 0), FamilyKind.GENOCCHI: (2, 1)}


def _number_series(p: FamilyParams, order: int, precision: int) -> TruncatedSeries:
    """Ordinary-coefficient series of the number generating function
    c z^k / (lambda E_alpha(z) -+ 1), as c z^(k-v) times the reciprocal of
    the denominator over z^v, its valuation."""
    c, k = _NUMERATORS[p.kind]
    shift = -1 if p.kind is FamilyKind.BERNOULLI else 1
    # the z coefficient of lambda*E_alpha -+ 1 is lambda/gamma(alpha+1) != 0,
    # so the denominator valuation is 1 exactly when the constant term dies
    v = 1 if (p.kind is FamilyKind.BERNOULLI and p.lam == 1) else 0
    m = order + v
    e_alpha = ml_series(MLParams(p.alpha, 1), m, precision)
    den = series_add(e_alpha.scale(p.lam), TruncatedSeries.constant(shift, m))
    try:
        inverse = reciprocal(den.shift_down(v))
    except ZeroConstantTerm as exc:
        raise DegenerateDenominator(
            f"generating denominator vanishes through order {m} for {p}"
        ) from exc
    return inverse.scale(c).shift_up(k - v)


# (params, precision) pairs whose longest series is kept, least recently used first
_SERIES_CACHE_SIZE = 256
_series_cache: OrderedDict = OrderedDict()
_series_lock = threading.Lock()


def _family_series_cached(p: FamilyParams, order: int, precision: int) -> TruncatedSeries:
    """The series through ``order``, sliced from the longest one computed
    for (p, precision).  The order-n series is a
    prefix of every longer one bit for bit: the Mittag-Leffler coefficients,
    the triangular reciprocal and the h-fold Cauchy product each read only
    lower indices.  A higher order is computed outside the lock and
    replaces the entry."""
    key = (p, precision)
    with _series_lock:
        longest = _series_cache.get(key)
        if longest is not None:
            _series_cache.move_to_end(key)
    if longest is None or longest.order < order:
        longest = base = _number_series(p, order, precision)
        for _ in range(p.h - 1):
            longest = cauchy_product(longest, base)
        with _series_lock:
            held = _series_cache.get(key)
            if held is None or held.order < order:
                _series_cache[key] = longest
            _series_cache.move_to_end(key)
            while len(_series_cache) > _SERIES_CACHE_SIZE:
                _series_cache.popitem(last=False)
    if longest.order == order:
        return longest
    return TruncatedSeries._raw(longest._values[: order + 1], longest._prec)


def family_series(p: FamilyParams, order: int, precision: int = DEFAULT_PRECISION) -> TruncatedSeries:
    """Number generating series in ordinary coefficients, through ``order``."""
    check_precision(precision)
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    return _family_series_cached(p, order, precision)


def family_numbers(p: FamilyParams, max_index: int, precision: int = DEFAULT_PRECISION) -> Coefficients:
    """EGF coefficients of the number generating function, indices 0..max_index."""
    return family_series(p, max_index, precision).egf()


def family_polynomial(p: FamilyParams, n: int, precision: int = DEFAULT_PRECISION) -> Polynomial:
    """Degree-n family polynomial: coefficient of x^{n-k} is binom(n,k) times number k."""
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    nums = family_numbers(p, n, precision)
    prec, values = nums._prec, nums._values
    with domain_scope(prec):
        coeffs = [raw_in(math.comb(n, k), prec) * values[k] for k in range(n, -1, -1)]
    return Polynomial._raw(coeffs, prec)


def integral_over_unit_interval(
    p: FamilyParams, n: int, x: ScalarLike, precision: int = DEFAULT_PRECISION
) -> Scalar:
    """integral over [x, x+1] of the degree-n family polynomial.

    Computed from the exact antiderivative; equals
    (P_{n+1}(x+1) - P_{n+1}(x)) / (n+1).
    """
    x = as_rational(x)
    anti = family_polynomial(p, n, precision).antiderivative()
    hi, lo = anti.evaluate(x + 1), anti.evaluate(x)
    with domain_scope(anti._prec):
        return Scalar(hi.value - lo.value, anti._prec)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def check_compositions(r: int, h: int) -> None:
    """Refuse a sum over the compositions of r into h parts: a bad h or r,
    or more than MAX_COMPOSITIONS of them, comb(r + h - 1, h - 1)."""
    _check_h(h)
    if r < 0:
        raise DomainError(f"index must be nonnegative, got {r}")
    if math.comb(r + h - 1, h - 1) > MAX_COMPOSITIONS:
        raise DomainError(f"more than {MAX_COMPOSITIONS} compositions of {r} into {h} parts to sum")


def multinomial_number_product(lam: ScalarLike, h: int, r: int) -> Fraction:
    """Sum over compositions of r into h parts of multinomial(s) * prod B_{s_j}(lambda).

    Termwise equal to the number r of FamilyParams("bernoulli", 1, lambda,
    h), the h-fold convolution, and exact: the numbers at alpha = 1 are
    exact for every rational lambda, at any precision.  Refused when there
    are more than MAX_COMPOSITIONS compositions, comb(r + h - 1, h - 1).
    """
    check_compositions(r, h)
    nums = family_numbers(FamilyParams(FamilyKind.BERNOULLI, 1, lam), r)._values
    return sum(math.prod([nums[s] for s in parts], start=multinomial(parts)) for parts in _compositions(r, h))
