"""Truncated power series in ordinary coefficients.

Coefficient k multiplies z^k, so the Cauchy product is a plain
convolution; a reader of an exponential generating function applies the
factorial itself.  A series holds one coefficient domain: all Fractions, or
all mpfs at one precision (mixed input is promoted once, in the
constructor), and every operation works on the raw values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import OrderMismatch, ValuationError, ZeroConstantTerm
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
            raise ValuationError(f"series has valuation < {v}, cannot divide by z^{v}")
        if v > self.order:
            raise ValuationError(f"cannot shift a series of order {self.order} down by {v}")
        return self._raw(self._values[v:], self._prec)

    def shift_up(self, v: int) -> "TruncatedSeries":
        """Multiply by z^v, keeping the truncation order."""
        return self._raw(((raw_in(0, self._prec),) * v + self._values)[: self.order + 1], self._prec)

    def egf(self) -> Coefficients:
        """The coefficients read as those of an exponential generating
        function: coefficient k times k!, exact by a running int factorial,
        or the factorial rounded once to a float domain before it multiplies."""
        prec = self._prec
        if prec is None:
            out, fact = [], 1
            for k, v in enumerate(self._values):
                fact *= k or 1
                out.append(v * fact)
            return Coefficients._raw(out, None)
        with domain_scope(prec):
            return Coefficients._raw([v * raw_in(math.factorial(k), prec) for k, v in enumerate(self._values)], prec)

    def __repr__(self):
        shown = ", ".join(render(c, self._prec) for c in self._values[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"


def _joined(a: TruncatedSeries, b: TruncatedSeries):
    """The raw values of two series of one order in their common domain."""
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    return a._joined(b)


def _over_lcm(values: tuple) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm D of their
    denominators, and D."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    x, y, prec = _joined(a, b)
    with domain_scope(prec):
        return TruncatedSeries._raw([u + v for u, v in zip(x, y)], prec)


def cauchy_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """c_n = sum_{k<=n} a_k b_{n-k}, truncated at the common order.

    Exact operands are each scaled once to the lcm of their denominators,
    Dx and Dy, so that c_n is one integer convolution over Dx*Dy, normalised
    once by Fraction.  In the float domain each sum starts from zero and
    adds its products in order of k, so it rounds every product and every
    partial sum once.
    """
    x, y, prec = _joined(a, b)
    if prec is None:
        (xs, dx), (ys, dy) = _over_lcm(x), _over_lcm(y)
        den = dx * dy
        return TruncatedSeries._raw(
            [Fraction(sum(map(mul, xs[: n + 1], ys[n::-1])), den) for n in range(len(xs))], None
        )
    with domain_scope(prec):
        return TruncatedSeries._raw(
            [sum(map(mul, x[: n + 1], y[n::-1])) for n in range(len(x))], prec
        )


def reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse through the truncation order (triangular recurrence)."""
    x = a._values
    if x[0] == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    with domain_scope(a._prec):
        inv0 = 1 / x[0]
        neg_inv0 = -inv0
        out = [inv0]
        for n in range(1, len(x)):
            out.append(neg_inv0 * sum(map(mul, x[1 : n + 1], out[n - 1 :: -1])))
    return TruncatedSeries._raw(out, a._prec)


def exp_series(x: NumberLike, order: int) -> TruncatedSeries:
    """The exact series of e^{x z} through the given order, x rational."""
    x = as_rational(x)
    p, q = x.numerator, x.denominator
    out, num, den = [], 1, 1
    for k in range(order + 1):
        out.append(Fraction(num, den))  # p^k / (q^k k!)
        num *= p
        den *= q * (k + 1)
    return TruncatedSeries._raw(out, None)

