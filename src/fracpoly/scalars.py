"""Coefficient domains: exact rationals and explicit-precision big floats.

A computed value is a raw value whose type is its domain: an int or a
``Fraction`` is exact, an mpmath float is a float at the precision of its
container or of the call that made it.  A computation
joins its operands' domains (:func:`join_precision`): exact when every
operand is exact, else floats at the largest precision, and it runs on the
raw values in one precision scope.  :class:`Scalar` hands one value with
its domain across the boundary, and is built only there; it does no
arithmetic.  Parameters, orders, exponents and evaluation points are not
computed: they are plain Fractions, coerced once by :func:`as_rational`.
"""

from __future__ import annotations

import math
import re
import threading
from contextlib import contextmanager, nullcontext
from fractions import Fraction
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
# the types of the exact domain's raw values; every other raw value is an mpf
EXACT_TYPES = (int, Fraction)

# mpmath keeps its precision in a process-global context, so precision
# scopes are serialized; the lock is reentrant to allow nesting.
_PREC_LOCK = threading.RLock()


@contextmanager
def working_precision(bits: int):
    """Run a block with mpmath's context set to ``bits`` of precision."""
    with _PREC_LOCK:
        saved = mp.prec
        mp.prec = int(bits)
        try:
            yield mp
        finally:
            mp.prec = saved


def domain_scope(precision: int | None):
    """The scope raw arithmetic in a domain runs in: none for the exact
    domain (``precision`` None), else :func:`working_precision`."""
    return nullcontext() if precision is None else working_precision(precision)


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
    """Exact rational value of a finite mpmath float."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise DomainError(f"cannot convert non-finite float {x!r} to a rational")
    num = -man if sign else man
    if exp >= 0:
        return Fraction(num << exp)
    return Fraction(num, 1 << -exp)


def fraction_to_mpf(q: Fraction, bits: int):
    """Fraction converted to an mpf, correctly rounded to ``bits``."""
    return mp.make_mpf(libmp.from_rational(q.numerator, q.denominator, bits, libmp.round_nearest))


class Scalar:
    """A read-only number in one of the two coefficient domains, as the
    package hands it out.

    Use :func:`as_scalar` to coerce plain Python numbers, or :meth:`big` to
    construct a float.  Python floats coerce to their exact dyadic
    rational value; big floats only enter through explicit construction or
    through the transcendental functions.
    """

    __slots__ = ("_val", "_prec")

    def __init__(self, value, prec):
        self._val = value
        self._prec = prec

    @classmethod
    def big(cls, value, prec: int) -> "Scalar":
        check_precision(prec)
        if isinstance(value, Fraction):
            return cls(fraction_to_mpf(value, prec), prec)
        return cls(mp.mpf(value, prec=prec), prec)

    # -- inspection --------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._prec is None

    @property
    def precision(self):
        """Working precision in bits, or None for the exact domain."""
        return self._prec

    @property
    def value(self):
        return self._val

    def as_fraction(self) -> Fraction:
        return self._val if self.is_exact else mpf_to_fraction(self._val)

    # -- comparisons (numeric, exact across domains) ------------------

    def __eq__(self, other):
        try:
            other = as_rational(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.as_fraction() == other

    # -- conversions / rendering --------------------------------------

    def __repr__(self):
        if self.is_exact:
            return f"Scalar({self._val!r})"
        return f"Scalar({self._val!r}, prec={self._prec})"

    def __str__(self):
        return str(self._val) if self.is_exact else decimal_str(self)


ScalarLike = Union[Scalar, int, Fraction, float, str]


def as_scalar(x: ScalarLike) -> Scalar:
    """A Python number as the exact Scalar :func:`as_rational` reads; a Scalar as it is."""
    return x if isinstance(x, Scalar) else Scalar(as_rational(x), None)


def as_rational(x: ScalarLike) -> Fraction:
    """A parameter, order, exponent or evaluation point as the exact
    rational it stands for; a float, a Python one or a float Scalar, gives
    its exact binary value.  An mpmath float is refused: :meth:`Scalar.big`
    takes one with its precision."""
    if isinstance(x, Scalar):
        return x.as_fraction()
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"non-finite value {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        exponent = _DECIMAL_EXPONENT.search(x)
        if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
            raise DomainError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT} in {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Scalar")


def as_raw(x: ScalarLike) -> tuple:
    """(raw value, precision) of a Scalar, else (:func:`as_rational` of x, None)."""
    return (x.value, x.precision) if isinstance(x, Scalar) else (as_rational(x), None)


def positive_rational(x: ScalarLike, name: str) -> Fraction:
    """:func:`as_rational` of x, refused with DomainError unless positive;
    ``name`` says what x is in the message."""
    q = as_rational(x)
    if q <= 0:
        raise DomainError(f"{name} must be positive, got {q}")
    return q


def raw_in(v, precision: int | None):
    """The raw value v in the domain ``precision``, its own or a wider one:
    a float as it is, an exact v as a Fraction or correctly rounded to an mpf."""
    if not isinstance(v, EXACT_TYPES):
        return v
    return Fraction(v) if precision is None else fraction_to_mpf(v, precision)


def decimal_str(s: Scalar) -> str:
    """Shortest decimal string that round-trips at the scalar's precision.

    The scan over digit counts d starts at a proven lower bound L, not at 1.
    A decimal that parses back to x lies within u = 2^(exp+bc-prec), one
    ulp of x's binade, of |x| (parsing rounds to nearest), and
    ``nstr(x, d)`` has at most d significant digits.  So with L the fewest
    significant digits of any decimal in [|x|-u, |x|+u], every d below L
    fails, and the scan from L returns the string a scan from 1 returns.
    """
    if s.is_exact:
        raise TypeError("decimal_str is for the float domain; exact values print as p/q")
    prec = s.precision
    x = s.value
    if x == 0:
        return "0.0"
    max_digits = int(math.ceil(prec * math.log10(2))) + 2
    with working_precision(prec):
        for digits in range(_min_digits(x, prec, max_digits), max_digits + 1):
            cand = mp.nstr(x, digits, strip_zeros=True)
            if mp.mpf(cand) == x:
                return cand
        return mp.nstr(x, max_digits, strip_zeros=False)


def _min_digits(x, prec: int, max_digits: int) -> int:
    """The fewest significant digits of a decimal in [|x|-u, |x|+u], u one
    ulp of x's binade, or max_digits + 1 when it needs more.

    With E = floor(log10(|x|+u)), that is E - q + 1 for the largest q that
    has a multiple of 10^q in the interval: a decimal below 10^E would put
    10^E itself inside.  Having a multiple is monotone in q, so binary
    search finds q; each test is a floor and a ceiling of integers.
    """
    _, man, exp, bc = x._mpf_
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
    """One tuple of raw coefficient values in one domain: Fractions when
    the precision is None, else mpfs at that precision.  Tuples are built
    from lists, whose length is known: a tuple grown from a generator is
    resized, which keeps filling the interpreter's tuple free lists.

    Coercion and promotion happen once, in the constructor: mixed input is
    promoted to the widest domain present.  Subclasses compute on the raw
    values inside at most one precision scope per operation; Scalars appear
    only at the boundary, in :attr:`coeffs` and in iteration.
    """

    __slots__ = ("_values", "_prec")

    def __init__(self, coeffs: Iterable[ScalarLike]):
        raws = [as_raw(c) for c in coeffs]
        if not raws:
            raise ValueError(f"a {type(self).__name__} needs at least one coefficient")
        prec = join_precision(*[p for _, p in raws])
        self._values = tuple([raw_in(v, prec) for v, _ in raws])
        self._prec = prec

    @classmethod
    def _raw(cls, values: Iterable, precision: int | None):
        """A container around raw values already in the domain ``precision``."""
        out = object.__new__(cls)
        out._values, out._prec = tuple(values), precision
        return out

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return tuple([Scalar(v, self._prec) for v in self._values])

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        return type(other) is type(self) and tuple(self) == tuple(other)

    def _values_in(self, prec: int | None) -> tuple:
        """The raw values in the domain ``prec``, which is this one or wider."""
        if prec is None or self._prec is not None:
            return self._values
        return tuple([raw_in(v, prec) for v in self._values])

    def _joined(self, other: "Coefficients") -> tuple:
        """Both raw value tuples in the common domain, and its precision."""
        prec = join_precision(self._prec, other._prec)
        return self._values_in(prec), other._values_in(prec), prec

    def scale(self, factor: ScalarLike):
        fv, fprec = as_raw(factor)
        prec = join_precision(self._prec, fprec)
        fv = raw_in(fv, prec)
        with domain_scope(prec):
            return self._raw([fv * v for v in self._values_in(prec)], prec)
