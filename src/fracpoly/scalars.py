"""Coefficient domains: exact rationals and explicit-precision big floats.

A computed value is a raw value whose type is its domain: an int or a
``Fraction`` is exact, an mpmath float is a float at the precision of its
container or of the call that made it (:func:`precision_of`).  A
computation joins its operands' domains (:func:`join_precision`): exact
when every operand is exact, else floats at the largest precision.  A
container of many values (:class:`Coefficients`) holds its exact values as
integer numerators over one denominator, and its float values as mpmath's
libmp tuples, on which every operation takes its precision as an argument
(``mpf_add``, ``mpf_mul``, :func:`dot_tuples`), and none reads or sets
mpmath's global precision; it hands its values out as raw values.  A float
leaves the package raw and prints through :func:`render` at the precision
it was made at.
Parameters, orders, exponents and evaluation points are not computed: they
are plain Fractions, coerced once by :func:`as_rational`.
"""

from __future__ import annotations

import math
import re
import threading
from contextlib import nullcontext
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Union

from mpmath import libmp, mp

from .errors import DomainError

DEFAULT_PRECISION = 128
MIN_PRECISION = 64
# the largest power of two whose floats print within Python's 4300-digit
# cap on int-to-str conversion; it also bounds the time of one call
MAX_PRECISION = 8192
# |exponent| of a decimal string beyond which it is refused before parsing:
# Fraction expands the power of ten (1e10000000 takes seconds), and such a
# value could not be printed
MAX_DECIMAL_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*$", re.IGNORECASE)
# the held zero of each domain: an exact numerator, a float libmp tuple
ZEROS = (0, libmp.fzero)

# One reentrant lock guards mpmath's constant memos (pi, e, ln2, ln10),
# where constant_memo writes memo_val before memo_prec, so a reader without
# the lock can pair a new value with an old precision, and the precision of
# quadrature's private rule context.  Every libmp call that can reach such a
# memo (mpf_pow, mpf_exp, mpf_log, mpf_sin_pi, mpf_pi, mpf_e, mpf_gamma, and
# to_str beyond 2^3500) and every rule build holds it; no other code takes it.
_PREC_LOCK = threading.RLock()


def join_precision(*precisions: int | None) -> int | None:
    """The domain of a result: exact (None) when every operand is exact,
    else floats at the largest operand precision."""
    floats = [p for p in precisions if p is not None]
    return max(floats) if floats else None


def check_precision(bits: int) -> int:
    if not isinstance(bits, int) or not MIN_PRECISION <= bits <= MAX_PRECISION:
        raise DomainError(
            f"precision must be an integer from {MIN_PRECISION} to {MAX_PRECISION} bits, got {bits!r}")
    return bits


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a raw value: an int or a Fraction as a
    Fraction, a finite mpmath float as the dyadic rational it holds."""
    return Fraction(*mpf_to_pair(x._mpf_)) if hasattr(x, "_mpf_") else Fraction(x)


def mpf_to_pair(t: tuple) -> tuple[int, int]:
    """A finite libmp tuple as the reduced (numerator, denominator) of the
    dyadic rational it holds: m and 2^-e, or m 2^e and 1.  mpmath keeps
    the mantissa m odd, so the pair needs no gcd."""
    sign, man, exp, _ = t
    if man == 0:
        if t == libmp.fzero:
            return 0, 1
        raise DomainError(f"cannot convert non-finite float {mp.make_mpf(t)!r} to a rational")
    num = -man if sign else man
    return (num << exp, 1) if exp >= 0 else (num, 1 << -exp)


def tuple_in(v, prec: int) -> tuple:
    """The raw value v as a libmp tuple in the float domain ``prec``, its
    own or a wider one: a float's own tuple, an exact v correctly rounded."""
    if hasattr(v, "_mpf_"):
        return v._mpf_
    return libmp.from_rational(v.numerator, v.denominator, prec, libmp.round_nearest)


def dot_tuples(xs: Iterable[tuple], ys: Iterable[tuple], prec: int) -> tuple:
    """sum x y over pairs of libmp tuples, from zero in input order, each
    product and partial sum rounded to nearest at ``prec``: the bits of
    the mpf loop ``sum(x * y ...)`` in a ``prec``-bit scope, with no scope."""
    rnd, add, mul = libmp.round_nearest, libmp.mpf_add, libmp.mpf_mul
    acc = libmp.fzero
    for x, y in zip(xs, ys):
        acc = add(acc, mul(x, y, prec, rnd), prec, rnd)
    return acc


NumberLike = Union[int, Fraction, float, str]


def as_rational(x: NumberLike) -> Fraction:
    """A parameter, order, exponent or evaluation point as the exact
    rational it stands for; a Python float gives its exact binary value.
    An mpmath float is refused: only a container takes one, with its
    precision.  A Fraction is returned as it is: it is immutable.  An int
    is tested first: ``isinstance`` against an ABC is slow on a non-instance."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"non-finite value {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        exponent = _DECIMAL_EXPONENT.search(x)
        if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
            raise DomainError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT} in {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def positive_rational(x: NumberLike, name: str) -> Fraction:
    """:func:`as_rational` of x, refused with DomainError unless positive;
    ``name`` says what x is in the message."""
    q = as_rational(x)
    if q <= 0:
        raise DomainError(f"{name} must be positive, got {q}")
    return q


def raw_value(v, precision: int | None):
    """v as a raw value made at ``precision``: an mpf rounded once to it
    (refused without one), any other number as :func:`as_rational` reads it."""
    if not isinstance(v, mp.mpf):
        return as_rational(v)
    if precision is None:
        raise TypeError(f"the float {v!r} needs a precision")
    return mp.mpf(v, prec=check_precision(precision))


def precision_of(v, precision: int | None) -> int | None:
    """The domain of a raw value v made at ``precision``: exact (None) for
    an int or a Fraction, else floats at ``precision``."""
    return precision if hasattr(v, "_mpf_") else None


def render(v, precision: int | None) -> str:
    """A raw value as it prints: p/q when exact, else :func:`decimal_str`
    at ``precision``."""
    return decimal_str(v, precision) if hasattr(v, "_mpf_") else str(v)


def decimal_str(x, prec: int) -> str:
    """Shortest decimal string that round-trips the mpf x at ``prec`` bits.

    The scan over digit counts d starts at a proven lower bound L, not at 1.
    A decimal that parses back to x lies within u = 2^(exp+bc-prec), one
    ulp of x's binade, of |x| (parsing rounds to nearest), and
    ``nstr(x, d)`` has at most d significant digits.  So with L the fewest
    significant digits of any decimal in [|x|-u, |x|+u], every d below L
    fails, and the scan from L returns the string a scan from 1 returns.
    """
    t = x._mpf_
    if t == libmp.fzero:
        return "0.0"
    max_digits = int(math.ceil(prec * math.log10(2))) + 2
    # beyond 2^3500 to_str scales by a power of ten it finds with mpf_ln2 and mpf_ln10
    with _PREC_LOCK if abs(t[2] + t[3]) > 3500 else nullcontext():
        for digits in range(_min_digits(t, prec, max_digits), max_digits + 1):
            cand = libmp.to_str(t, digits, strip_zeros=True)
            if libmp.from_str(cand, prec, libmp.round_nearest) == t:
                return cand
        return libmp.to_str(t, max_digits, strip_zeros=False)


def _min_digits(t: tuple, prec: int, max_digits: int) -> int:
    """The fewest significant digits of a decimal in [|x|-u, |x|+u], u one
    ulp of x's binade, or max_digits + 1 when it needs more.

    With E = floor(log10(|x|+u)), that is E - q + 1 for the largest q that
    has a multiple of 10^q in the interval: a decimal below 10^E would put
    10^E itself inside.  Having a multiple is monotone in q, so binary
    search finds q; each test is a floor and a ceiling of integers.
    """
    _, man, exp, bc = t
    ulp = exp + bc - prec
    scale = min(exp, ulp, 0)  # the interval is [lo, hi] / 2^-scale
    mid, u = man << (exp - scale), 1 << (ulp - scale)
    lo, hi, den = mid - u, mid + u, 1 << -scale

    def floor_div(n: int, q: int) -> int:  # floor(n 2^scale / 10^q)
        return n * 10 ** max(-q, 0) // (den * 10 ** max(q, 0))

    def fits(q: int) -> bool:
        return -floor_div(-lo, q) <= floor_div(hi, q)

    top = int((hi.bit_length() - 1 + scale) * math.log10(2))  # E, up to one
    while floor_div(hi, top) < 1:
        top -= 1
    while floor_div(hi, top + 1) >= 1:
        top += 1
    lowest, highest = top - max_digits, top  # q = top - max_digits: max_digits + 1
    while lowest < highest:
        q = (lowest + highest + 1) // 2
        if fits(q):
            lowest = q
        else:
            highest = q - 1
    return top - lowest + 1


class Coefficients:
    """One tuple of coefficient values in one domain.  An exact container
    holds integer numerators over one positive integer denominator D, as
    FLINT's ``fmpq_poly`` does, so its operations run on integers and
    normalise nothing; a float container holds libmp tuples at its
    precision, so its operations pass that precision to each libmp call
    and take no precision scope.  The constructor brings exact input over
    the lcm of its denominators, and a computed container keeps whatever
    common D its operation produced.  Tuples are built from lists, whose
    length is known: a tuple grown from a generator is resized, which
    keeps filling the interpreter's tuple free lists.

    Coercion happens once, in the constructor (:func:`raw_value`): the
    values are exact when every one is exact, else floats at
    ``precision``, each rounded once to it.  A float operation rounds to
    nearest at the container's precision, as the mpf operators round in a
    scope of that precision.  A value leaves as a raw value: iteration and
    indexing yield normalised Fractions when exact, and mpfs otherwise.
    """

    __slots__ = ("_values", "_prec", "_den")

    def __init__(self, values: Iterable, precision: int | None = None):
        values = [raw_value(v, precision) for v in values]
        if not values:
            raise ValueError(f"a {type(self).__name__} needs at least one coefficient")
        prec = join_precision(*[precision_of(v, precision) for v in values])
        self._hold(values if prec is None else [tuple_in(v, prec) for v in values], prec)

    def _hold(self, values: list, prec: int | None) -> None:
        """Hold values of the domain ``prec``: libmp tuples as they are,
        exact values as integer numerators over the lcm of their denominators."""
        den = None
        if prec is None:
            den = math.lcm(*[v.denominator for v in values])
            values = [v.numerator * (den // v.denominator) for v in values]
        self._values, self._prec, self._den = tuple(values), prec, den

    @classmethod
    def _raw(cls, values: Iterable, precision: int | None, den: int | None = None):
        """A container around held values: integer numerators over ``den``
        when ``precision`` is None, else libmp tuples at that precision."""
        out = object.__new__(cls)
        out._values, out._prec, out._den = tuple(values), precision, den
        return out

    @property
    def precision(self) -> int | None:
        """The precision of the float domain in bits, or None when exact."""
        return self._prec

    def __iter__(self):
        if self._prec is None:
            return map(Fraction, self._values, repeat(self._den))
        return map(mp.make_mpf, self._values)

    def __getitem__(self, k):
        """Value k as a raw value, or a slice as a container of its class."""
        if isinstance(k, slice):
            return self._raw(self._values[k], self._prec, self._den)
        return Fraction(self._values[k], self._den) if self._prec is None else mp.make_mpf(self._values[k])

    def __eq__(self, other):
        # the domains first: mpmath compares an mpf with a Fraction through
        # a 53-bit float, so a raw comparison across domains can lie; exact
        # values over two denominators compare by cross-multiplying
        if (type(other) is not type(self) or self._prec != other._prec
                or len(self._values) != len(other._values)):
            return False
        if self._prec is not None:
            return self._values == other._values
        d, e = self._den, other._den
        return all(a * e == b * d for a, b in zip(self._values, other._values))

    def _values_in(self, prec: int | None):
        """The held values in the domain ``prec``, which is this one or
        wider: an exact num/D rounded once to a libmp tuple in a float domain."""
        if prec is None or self._prec is not None:
            return self._values
        d, rnd = self._den, libmp.round_nearest
        return [libmp.from_rational(n, d, prec, rnd) for n in self._values]

    def _joined(self, other: "Coefficients") -> tuple:
        """Both held value tuples in the common domain, and its precision."""
        prec = join_precision(self._prec, other._prec)
        return self._values_in(prec), other._values_in(prec), prec

    def scale(self, factor: NumberLike):
        """The values times an exact factor: p/q multiplies the numerators
        by p and D by q, and is rounded once to a float domain."""
        f = as_rational(factor)
        prec = self._prec
        if prec is None:
            return self._raw([f.numerator * v for v in self._values], None, self._den * f.denominator)
        f, mul, rnd = tuple_in(f, prec), libmp.mpf_mul, libmp.round_nearest
        return self._raw([mul(f, v, prec, rnd) for v in self._values], prec)
