"""Truncated power series in ordinary coefficients.

Coefficient k multiplies z^k, so the Cauchy product is a plain
convolution; a reader of an exponential generating function applies the
factorial itself.  A series holds one coefficient domain (mixed input is
promoted once, in the constructor): integer numerators over one positive
denominator D, on which every exact operation but the reciprocal runs in
integers, or mpfs at one precision.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import DomainError
from .scalars import Coefficients, NumberLike, as_rational, domain_scope, raw_in, render

__all__ = [
    "TruncatedSeries",
    "series_add",
    "cauchy_product",
    "reciprocal",
    "exp_series",
]


class TruncatedSeries(Coefficients):
    """A formal power series known through z^N."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self._values) - 1

    @classmethod
    def constant(cls, value: NumberLike, order: int) -> "TruncatedSeries":
        return cls([value] + [0] * order)

    def shift_down(self, v: int) -> "TruncatedSeries":
        """Divide by z^v; the first v coefficients must vanish."""
        if any(self._values[:v]):
            raise DomainError(f"series has valuation < {v}, cannot divide by z^{v}")
        if v > self.order:
            raise DomainError(f"cannot shift a series of order {self.order} down by {v}")
        return self[v:]

    def shift_up(self, v: int) -> "TruncatedSeries":
        """Multiply by z^v, keeping the truncation order."""
        zero = 0 if self._prec is None else raw_in(0, self._prec)
        return self._raw(((zero,) * v + self._values)[: self.order + 1], self._prec, self._den)

    def egf(self) -> Coefficients:
        """The coefficients read as those of an exponential generating
        function: coefficient k times k!, exact by a running int factorial
        on the numerators, or the factorial rounded once to a float domain
        before it multiplies."""
        prec = self._prec
        if prec is None:
            out, fact = [], 1
            for k, v in enumerate(self._values):
                fact *= k or 1
                out.append(v * fact)
            return Coefficients._raw(out, None, self._den)
        with domain_scope(prec):
            return Coefficients._raw([v * raw_in(math.factorial(k), prec) for k, v in enumerate(self._values)], prec)

    def __repr__(self):
        shown = ", ".join(render(c, self._prec) for c in self[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"


def _joined(a: TruncatedSeries, b: TruncatedSeries):
    """The held values of two series of one order in their common domain."""
    if a.order != b.order:
        raise DomainError(f"orders differ: {a.order} vs {b.order}")
    return a._joined(b)


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The coefficientwise sum; exact numerators are brought over the lcm of the two denominators."""
    x, y, prec = _joined(a, b)
    if prec is None:
        den = math.lcm(a._den, b._den)
        u, v = den // a._den, den // b._den
        return TruncatedSeries._raw([s * u + t * v for s, t in zip(x, y)], None, den)
    with domain_scope(prec):
        return TruncatedSeries._raw([u + v for u, v in zip(x, y)], prec)


def cauchy_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """c_n = sum_{k<=n} a_k b_{n-k}, truncated at the common order.

    Exact operands convolve their numerators over Dx*Dy, and the result is
    reduced by one gcd of the whole vector, so that an h-fold product does
    not carry D^h.  In the float domain each sum starts from zero and adds
    its products in order of k, so it rounds every product and every
    partial sum once.
    """
    x, y, prec = _joined(a, b)
    if prec is None:
        nums = [sum(map(mul, x[: n + 1], y[n::-1])) for n in range(len(x))]
        den = a._den * b._den
        g = math.gcd(den, *nums)
        return TruncatedSeries._raw([c // g for c in nums] if g > 1 else nums, None, den // g)
    with domain_scope(prec):
        return TruncatedSeries._raw(
            [sum(map(mul, x[: n + 1], y[n::-1])) for n in range(len(x))], prec
        )


def reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse through the truncation order (triangular
    recurrence).  The exact recurrence runs on the normalised Fractions and
    its output is brought over one lcm denominator."""
    if a._values[0] == 0:
        raise DomainError("cannot invert a series with zero constant term")
    x = list(a) if a._prec is None else a._values
    with domain_scope(a._prec):
        inv0 = 1 / x[0]
        neg_inv0 = -inv0
        out = [inv0]
        for n in range(1, len(x)):
            out.append(neg_inv0 * sum(map(mul, x[1 : n + 1], out[n - 1 :: -1])))
    return TruncatedSeries(out, a._prec)


def exp_series(x: NumberLike, order: int) -> TruncatedSeries:
    """The exact series of e^{x z} through the given order, x = p/q
    rational: p^k / (q^k k!) is p^k q^(N-k) N!/k! over D = q^N N!."""
    x = as_rational(x)
    p, q = x.numerator, x.denominator
    nums, w = [0] * (order + 1), 1
    for k in range(order, -1, -1):
        nums[k] = w  # q^(N-k) N!/k!
        w *= q * k
    den, pk = nums[0], 1
    for k in range(order + 1):
        nums[k] *= pk
        pk *= p
    return TruncatedSeries._raw(nums, None, den)
