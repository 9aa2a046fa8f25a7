"""Reference arithmetic for the bit-for-bit tests of the float kernels.

Every float kernel of the package runs on libmp tuples with its precision
passed to each call.  It must round as these references do: raw values
(ints, Fractions and mpfs) combined by mpf operators inside a
``working_precision`` scope, whose rounding is to nearest at the scope's
precision.  Each reference loop spells out one kernel in that form, on a
list of raw values in the domain ``prec`` (None when exact).
"""

import math
from contextlib import contextmanager, nullcontext
from fractions import Fraction

from mpmath import libmp, mp

from fracpoly.scalars import _PREC_LOCK


@contextmanager
def working_precision(bits: int):
    """Run a block with mpmath's global context at ``bits`` of precision,
    under the package's lock on mpmath's constant memos.  The package
    itself never sets that precision."""
    with _PREC_LOCK, mp.workprec(int(bits)):
        yield mp


def fraction_to_mpf(q: Fraction, bits: int):
    """The exact q as an mpf correctly rounded to ``bits``."""
    return mp.make_mpf(libmp.from_rational(q.numerator, q.denominator, bits, libmp.round_nearest))


def is_exact(v) -> bool:
    """Whether a raw value is in the exact domain: anything but an mpf."""
    return not hasattr(v, "_mpf_")


def scope(prec):
    """The scope of raw arithmetic in the domain ``prec``: none when exact."""
    return nullcontext() if prec is None else working_precision(prec)


def raw_in(v, prec):
    """The raw value v in the domain ``prec``, its own or a wider one: a
    float as it is, an exact v as a Fraction or correctly rounded to an mpf."""
    if not is_exact(v):
        return v
    return Fraction(v) if prec is None else fraction_to_mpf(v, prec)


def horner(values, prec, x):
    """Polynomial.evaluate: acc * x + c from 0, the point rounded first."""
    xv = raw_in(Fraction(x), prec)
    acc = 0
    with scope(prec):
        for c in reversed(values):
            acc = acc * xv + c
    return acc


def derivative(values, prec):
    """Polynomial.derivative: c_k * k, the integer k unrounded."""
    with scope(prec):
        return [c * k for k, c in enumerate(values) if k] or [raw_in(0, prec)]


def antiderivative(values, prec):
    """Polynomial.antiderivative: 0, then c_k / (k + 1)."""
    with scope(prec):
        return [raw_in(0, prec)] + [c / (k + 1) for k, c in enumerate(values)]


def unit_interval(values, prec, x):
    """integral_over_unit_interval of a polynomial: A(x + 1) - A(x) for its
    antiderivative A."""
    anti = antiderivative(values, prec)
    hi, lo = horner(anti, prec, x + 1), horner(anti, prec, x)
    with scope(prec):
        return hi - lo


def egf(values, prec):
    """TruncatedSeries.egf: c_k times k!, the factorial rounded first."""
    with scope(prec):
        return [c * raw_in(math.factorial(k), prec) for k, c in enumerate(values)]


def scale(values, prec, f):
    """Coefficients.scale: the exact factor rounded once, then each product."""
    with scope(prec):
        return [raw_in(Fraction(f), prec) * c for c in values]


def binomial_lift(values, prec):
    """The degree-n family polynomial from numbers 0..n: binom(n, k),
    rounded first, times number k as the coefficient of x^(n-k)."""
    n = len(values) - 1
    with scope(prec):
        return [raw_in(math.comb(n, k), prec) * values[k] for k in range(n, -1, -1)]


def series_add(x, y, prec):
    """series_add: one rounding per coefficient."""
    with scope(prec):
        return [u + v for u, v in zip(x, y)]


def cauchy_product(x, y, prec):
    """cauchy_product: each sum from 0 in order of k, one operation at a time."""
    out = []
    with scope(prec):
        for n in range(len(x)):
            s = 0
            for k in range(n + 1):
                s = s + x[k] * y[n - k]
            out.append(s)
    return out


def reciprocal(x, prec):
    """reciprocal: the triangular recurrence, one operation at a time."""
    with scope(prec):
        inv0 = 1 / x[0]
        out = [inv0]
        for n in range(1, len(x)):
            s = 0
            for k in range(1, n + 1):
                s = s + x[k] * out[n - k]
            out.append((0 - inv0) * s)
    return out


def decimal_str(x, prec: int) -> str:
    """The fewest ``nstr`` digits that ``mp.mpf`` parses back to x in a
    ``prec``-bit scope, scanning the digit counts from 1."""
    if x == 0:
        return "0.0"
    max_digits = int(math.ceil(prec * math.log10(2))) + 2
    with working_precision(prec):
        for digits in range(1, max_digits + 1):
            cand = mp.nstr(x, digits, strip_zeros=True)
            if mp.mpf(cand) == x:
                return cand
        return mp.nstr(x, max_digits, strip_zeros=False)
