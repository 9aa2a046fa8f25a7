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

from .errors import DomainError, ToleranceUnreachable
from .gammafns import multinomial
from .mittag import MLParams, ml_series
from .scalars import (DEFAULT_PRECISION, Coefficients, NumberLike, as_rational, check_precision, domain_scope,
                      positive_rational, raw_in, render, working_precision)
from .series import TruncatedSeries, cauchy_product, reciprocal, series_add

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
    alpha and lambda are exact rationals.  The hash and an integer key for
    equality are computed once, since every memo and cache lookup hashes
    and compares its key."""

    kind: FamilyKind
    alpha: Fraction
    lam: Fraction
    h: int = 1

    def __init__(self, kind, alpha: NumberLike = 1, lam: NumberLike = 1, h: int = 1):
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
        object.__setattr__(self, "_hash", hash((kind, a, l, h)))
        object.__setattr__(self, "_key", (kind, a.numerator, a.denominator, l.numerator, l.denominator, h))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (self._key == other._key if isinstance(other, FamilyParams) else NotImplemented)


def _check_h(h) -> None:
    if not isinstance(h, int) or not 1 <= h <= MAX_H:
        raise DomainError(f"order h must be an integer from 1 to {MAX_H}, got {h!r}")


class Polynomial(Coefficients):
    """Dense polynomial in one variable, coefficients ascending by degree,
    in one coefficient domain (see :class:`~fracpoly.scalars.Coefficients`)."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable, precision: int | None = None):
        super().__init__(list(coeffs) or [0], precision)

    @property
    def degree(self) -> int:
        """Index of the last stored coefficient (trailing zeros tolerated)."""
        return len(self._values) - 1

    def is_zero(self) -> bool:
        return not any(self._values)

    def evaluate(self, x: NumberLike):
        """The value at a rational x, in the polynomial's domain."""
        x = as_rational(x)
        prec = self._prec
        if prec is None:
            return _exact_horner(self._values, self._den, x)
        xv = raw_in(x, prec)
        acc = 0
        with domain_scope(prec):
            for c in reversed(self._values):
                acc = acc * xv + c
        return acc

    def derivative(self) -> "Polynomial":
        """The derivative; exact numerators are multiplied over the same D."""
        prec = self._prec
        with domain_scope(prec):
            out = [c * k for k, c in enumerate(self._values) if k]
        return self._raw(out or [0 if prec is None else raw_in(0, prec)], prec, self._den)

    def antiderivative(self) -> "Polynomial":
        """The antiderivative vanishing at 0; exact numerators c_k become
        c_k L/(k+1) over D L, with L the lcm of 1..n+1."""
        prec = self._prec
        if prec is None:
            lcm = math.lcm(*range(1, len(self._values) + 1))
            out = [c * (lcm // (k + 1)) for k, c in enumerate(self._values)]
            return self._raw([0] + out, None, self._den * lcm)
        with working_precision(prec):
            out = [c / (k + 1) for k, c in enumerate(self._values)]
        return self._raw([raw_in(0, prec)] + out, prec)

    def monomials(self):
        """Yield raw (coefficient, power) pairs for nonzero coefficients."""
        for k, c in enumerate(self._values):
            if c:
                yield self[k], k

    def __repr__(self):
        return f"Polynomial({[render(c, self._prec) for c in self]})"


def _exact_horner(nums: tuple, den: int, x: Fraction) -> Fraction:
    """sum nums[k] x^k / den as one integer Horner pass: with x = p/q the
    sum is (sum nums[k] p^k q^(n-k)) / (den q^n), normalized once."""
    p, q = x.numerator, x.denominator
    acc, q_pow = 0, 1
    for c in reversed(nums):
        acc = acc * p + c * q_pow
        q_pow *= q
    return Fraction(acc, den * q ** (len(nums) - 1))


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
    den = series_add(e_alpha.scale(p.lam), TruncatedSeries.constant(shift, m)).shift_down(v)
    # the exact constant term is nonzero; a float one cancels only when a
    # Bernoulli lambda != 1 rounds to 1
    if not den._values[0]:
        raise ToleranceUnreachable(
            f"lambda = {p.lam} rounds to 1 at {precision} bits, where the nonzero constant "
            f"term lambda - 1 of lambda E_alpha(z) - 1 cancels"
        )
    return reciprocal(den).scale(c).shift_up(k - v)


# the family cache: (p, key) holds p's longest number series computed, (p,
# n, key) its degree-n polynomial, least recently used first, within
# _FAMILY_BUDGET coefficients in all (_family_held); a float coefficient
# takes at most about 1.1 kB (8192 bits), so at most about 36 MB in all
_FAMILY_BUDGET = 1 << 15
_family_cache: OrderedDict = OrderedDict()
_family_lock = threading.Lock()
_family_held = 0


def _cached(p: FamilyParams, precision: int, *n: int):
    """The key of p's series, or with n of its degree-n polynomial, and the
    value held there or None, made the most recently used.  The key's
    precision is None at an integer alpha: exact values serve every precision."""
    key = (p, *n, None if p.alpha.denominator == 1 else precision)
    with _family_lock:
        value = _family_cache.get(key)
        if value is not None:
            _family_cache.move_to_end(key)
    return key, value


def _store(key, value: Coefficients) -> None:
    """Hold a value computed outside the lock, unless one as long is held
    there or it alone is over the budget, and evict to the budget; a longer
    series keeps the place its lookup gave the shorter one."""
    global _family_held
    size = len(value._values)
    with _family_lock:
        old = len(_family_cache[key]._values) if key in _family_cache else 0
        if old < size <= _FAMILY_BUDGET:
            _family_cache[key] = value
            _family_held += size - old
            while _family_held > _FAMILY_BUDGET:
                _family_held -= len(_family_cache.popitem(last=False)[1]._values)


def _family_series_cached(p: FamilyParams, order: int, precision: int) -> TruncatedSeries:
    """The series through ``order``, sliced from the longest one held in
    the family cache, which a longer one replaces.  The order-n series is a
    prefix of every longer one bit for bit: the Mittag-Leffler coefficients,
    the triangular reciprocal and the h-fold Cauchy product read only lower indices."""
    key, longest = _cached(p, precision)
    if longest is None or longest.order < order:
        longest = base = _number_series(p, order, precision)
        for _ in range(p.h - 1):
            longest = cauchy_product(longest, base)
        _store(key, longest)
    return longest if longest.order == order else longest[: order + 1]


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
    """Degree-n family polynomial: coefficient of x^{n-k} is binom(n,k) times number k.

    Held in the family cache under its series' key plus n, which fixes
    every value it reads, so a hit returns the bits of a fresh call.  An
    exact coefficient grows with the degree and the sizes of alpha and
    lambda: at the CLI's degree cap of 200, alpha 3 and lambda 7/5 it
    averages 0.6 kB.
    """
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    check_precision(precision)
    key, poly = _cached(p, precision, n)
    if poly is None:
        poly = _family_polynomial(p, n, precision)
        _store(key, poly)
    return poly


def _family_polynomial(p: FamilyParams, n: int, precision: int) -> Polynomial:
    """binom(n, k) times number k as the coefficient of x^(n-k): integer
    products over the numbers' D when exact, else binom(n, k) rounded once
    to the float domain before it multiplies."""
    nums = family_numbers(p, n, precision)
    prec, values = nums._prec, nums._values
    if prec is None:
        return Polynomial._raw([math.comb(n, k) * values[k] for k in range(n, -1, -1)], None, nums._den)
    with working_precision(prec):
        coeffs = [raw_in(math.comb(n, k), prec) * values[k] for k in range(n, -1, -1)]
    return Polynomial._raw(coeffs, prec)


def integral_over_unit_interval(
    p: FamilyParams, n: int, x: NumberLike, precision: int = DEFAULT_PRECISION
):
    """integral over [x, x+1] of the degree-n family polynomial, in its domain.

    Computed from the exact antiderivative; equals
    (P_{n+1}(x+1) - P_{n+1}(x)) / (n+1).
    """
    x = as_rational(x)
    anti = family_polynomial(p, n, precision).antiderivative()
    hi, lo = anti.evaluate(x + 1), anti.evaluate(x)
    with domain_scope(anti._prec):
        return hi - lo


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


def multinomial_number_product(lam: NumberLike, h: int, r: int) -> Fraction:
    """Sum over compositions of r into h parts of multinomial(s) * prod B_{s_j}(lambda).

    Termwise equal to the number r of FamilyParams("bernoulli", 1, lambda,
    h), the h-fold convolution, and exact: the numbers at alpha = 1 are
    exact for every rational lambda, at any precision.  Refused when there
    are more than MAX_COMPOSITIONS compositions, comb(r + h - 1, h - 1).
    """
    check_compositions(r, h)
    nums = family_numbers(FamilyParams(FamilyKind.BERNOULLI, 1, lam), r)
    held = nums._values
    # every product of h numbers lies over D^h, so the sum is one integer over it
    total = sum(math.prod([held[s] for s in parts], start=multinomial(parts)) for parts in _compositions(r, h))
    return Fraction(total, nums._den ** h)
