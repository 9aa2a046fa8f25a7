"""1/gamma, the package's one entry point to gamma, and exact combinatorics.

The gamma function is a Spouge approximation whose parameter a is derived
from the requested precision, so the error bound 2^(8-precision) is a
consequence of the construction rather than a hope.  Arguments are exact
rationals (a float argument means its exact binary value).  A positive
non-integer x is split as x0 + m with x0 in [1, 2), which pins the
cancellation of the alternating Spouge sum at roughly 0.17*precision bits,
and gamma(x) = gamma(x0) x0 (x0 + 1) ... (x0 + m - 1): the rising product
is an exact integer ratio, brought to the working precision by one
division.  Negative arguments go through the reflection formula with
1 - x exact too.  Every step runs on mpmath's libmp tuples at a working
precision passed as an argument.

The sum runs in fixed point: the coefficients are integers scaled by 2^F,
built once per precision from one table of square roots floor(sqrt(j) 2^R)
shared by every precision (a build at G <= R bits reads floor(sqrt(j) 2^G)
as the root shifted right by R - G, the same integer), and each term
c_k/(z+k) is one integer floor division, since z = x0 - 1 rounded to the
working precision is a dyadic rational.  F is the Spouge working precision
precision + 48 + precision/5, taken from the requested precision alone, so
the sum is within 3a 2^-F of its value (relative, since it is at least 1)
at any working precision; the cancellation costs no bits of it.  The sum is rounded once
to the working precision, where the power and exponential factors are
computed.  Past the Spouge truncation and the sum, the error budget is a
few roundings at the working precision (at least precision + 16 bits):
x0 itself (which moves gamma(x0) by x0 |psi(x0)| < 0.85 units on [1, 2)),
the power and exponential, the rising product (exact, then cut to 32
guard bits and divided once) and the product or quotient with gamma(x0),
all well inside 2^(8-precision).

Two memos hold repeated values; each key holds everything a value's bits
depend on, so a hit returns the very bits a fresh evaluation would and the
error bound is untouched:

- ``_reciprocal_gamma_memo`` holds the public value at a non-integer
  argument, keyed by the exact argument and the precision, at most 1024
  entries, least recently used evicted.  The whole evaluation runs at the
  working precision _spouge_wp(precision), fixed by the key, and rounds
  once to the precision.  The values take at
  most about 1.1 MB (mpfs of at most 8192 bits); the keys hold the
  arguments as given.  At the integers the value is exact, one factorial,
  and not memoized: its denominator can have up to 2^15 factors.
- ``_spouge_memo`` holds the Spouge value gamma(x0) on (x0, precision,
  working precision), at most 4096 entries, so every argument with the same
  fractional part shares one sum: the working precision fixes every
  rounding after it.  It serves the arguments the entry memo does not
  share, the terms alpha n + beta of a Mittag-Leffler series at a
  non-integer alpha (``ml_series``, ``ml_eval``).

The root table is held at the largest precision built so far and
replaced whole when a build needs more.  At the 8192-bit cap it holds
3098 roots of 16088 bits, about 6.8 MB, a little more than the 5.2 MB of
the one coefficient table built there.

``fracpoly.clear_caches()`` empties the two memos, the coefficient memo and
the root table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import libmp, mp

from .errors import DomainError
from .scalars import _PREC_LOCK, DEFAULT_PRECISION, NumberLike, as_rational, check_precision, tuple_in

__all__ = ["reciprocal_gamma", "generalized_binomial", "multinomial", "MAX_GAMMA_ARGUMENT"]

# the most factors of the exact factorial, rising product or falling
# factorial that stands in for a gamma argument, so |x| up to about 2^15:
# the cost of the product grows with its length, and one gamma just under
# the cap takes about 0.04 s at 128 bits on a 2-core x86 VM
MAX_GAMMA_ARGUMENT = 2 ** 15


def _bounded(n: int) -> int:
    """n, the number of factors of an exact factorial or rising product,
    refused with DomainError above MAX_GAMMA_ARGUMENT."""
    if n > MAX_GAMMA_ARGUMENT:
        raise DomainError(f"gamma argument too large: its exact product would have more than "
                          f"{MAX_GAMMA_ARGUMENT} factors")
    return n


def _spouge_a(precision: int) -> int:
    # error ~ a^(-1/2) (2*pi)^(-(a+1/2)); each unit of a buys log2(2*pi) bits
    return int(math.ceil((precision + 16) / 2.6515)) + 2


def _spouge_wp(precision: int) -> int:
    return precision + 48 + precision // 5


# (R, roots) with roots[j] = floor(sqrt(j) 2^R): one table for every
# precision, held at the largest R asked for so far.  G and a both grow
# with the precision, so a table at R >= G holds at least a roots.  A build
# at a larger G replaces the pair whole by one assignment, so a reader
# always holds a consistent pair; two builders racing may keep the smaller
# table, which costs a later build a rebuild and changes no bit.
_roots: tuple[int, tuple[int, ...]] = (0, ())


def _sqrt_table(a: int, G: int) -> tuple[int, tuple[int, ...]]:
    """(R, roots) with R >= G and roots[j] = floor(sqrt(j) 2^R) for j < a."""
    global _roots
    table = _roots
    if table[0] < G:
        _roots = table = (G, tuple(math.isqrt(j << 2 * G) for j in range(a)))
    return table


@lru_cache(maxsize=32)
def _spouge_coeffs(precision: int) -> tuple[int, tuple[int, ...]]:
    """(F, (C_0, ..., C_{a-1})): the Spouge coefficients c_k as integers
    within two units of c_k 2^F.

    With j = a - k, c_k = (-1)^(k-1) j^(k-1) sqrt(j) e^j / (k-1)!.  The power
    and the factorial are exact, sqrt(j) is an isqrt and e^j a running
    product of one e, both at G = F + 2a + log2(4a) bits, so their product
    is off by a relative 4a 2^-G at most.  ln|c_k| is about
    a (t ln((1-t)/t) + 1) at t = k/a, at most 1.28a, so |c_k| < 2^(1.85a)
    and that error is below one unit of 2^-F; the final floor adds one more.
    The isqrt floor(sqrt(j) 2^G) is read from the root table at R >= G as
    roots[j] >> (R - G), which is the same integer: floor(floor(y 2^R) /
    2^(R-G)) = floor(y 2^G).
    """
    a = _spouge_a(precision)
    F = _spouge_wp(precision)
    G = F + 2 * a + (4 * a).bit_length()
    R, roots = _sqrt_table(a, G)
    with _PREC_LOCK:
        e, pi = libmp.mpf_e(G + 8), libmp.mpf_pi(G + 8)
    e, two_pi = libmp.to_fixed(e, G), libmp.mpf_shift(pi, 1)
    coeffs = [libmp.to_fixed(libmp.mpf_sqrt(two_pi, G + 8), F)]
    exp_j = [1 << G, e]  # e^j 2^G
    for _ in range(2, a):
        exp_j.append((exp_j[-1] * e) >> G)
    fact = 1  # (k-1)!
    for k in range(1, a):
        j = a - k
        c = (j ** (k - 1) * (roots[j] >> (R - G)) * exp_j[j]) // (fact << (2 * G - F))
        coeffs.append(c if k % 2 == 1 else -c)
        fact *= k
    return F, tuple(coeffs)


def _gamma_positive(x: tuple, precision: int, wp: int) -> tuple:
    """Gamma of a libmp tuple x in [1, 2) at the working precision wp, uncached.

    The Spouge sum s = c_0 + sum c_k/(z+k) runs in fixed point at F bits:
    z = x - 1 = M 2^e is exact, so each term is (C_k 2^-e) // (M + k 2^-e),
    within three units of 2^-F with its coefficient's error.  So s is within
    3a 2^-F of its value, relative since |s| >= 1, whatever wp, and is
    rounded to wp once.
    """
    F, coeffs = _spouge_coeffs(precision)
    a, rnd = len(coeffs), libmp.round_nearest
    z = libmp.mpf_sub(x, libmp.fone, wp, rnd)
    _, man, exp, _ = z
    shift = max(-exp, 0)
    zfix = man << max(exp, 0)
    acc = coeffs[0]
    for k in range(1, a):
        acc += (coeffs[k] << shift) // (zfix + (k << shift))
    s = libmp.from_man_exp(acc, -F, wp, rnd)
    za, zh = libmp.mpf_add(z, libmp.from_int(a), wp, rnd), libmp.mpf_add(z, libmp.fhalf, wp, rnd)
    with _PREC_LOCK:
        power, decay = libmp.mpf_pow(za, zh, wp, rnd), libmp.mpf_exp(libmp.mpf_neg(za), wp, rnd)
    return libmp.mpf_mul(libmp.mpf_mul(power, decay, wp, rnd), s, wp, rnd)


@lru_cache(maxsize=4096)
def _spouge_memo(x0: Fraction, precision: int, wp: int) -> tuple:
    """gamma(x0) for x0 in [1, 2) at the working precision wp: x0 and
    every step after the sum round to wp, so wp belongs in the key."""
    return _gamma_positive(tuple_in(x0, wp), precision, wp)


def _shift(x: Fraction) -> tuple[Fraction, int, int]:
    """(x0, num, den) with x0 in [1, 2) and gamma(x) = gamma(x0) num/den, for x > 0.

    With x = p/q and m = floor(x) - 1, x0 = x - m = p0/q and the ratio is
    the rising product x0 (x0 + 1) ... (x0 + m - 1) = prod(p0 + i q) / q^m;
    below 1 (m = -1) it is 1/x = q/p.
    """
    p, q = x.numerator, x.denominator
    m = _bounded(p // q - 1)
    if m < 0:
        return x + 1, q, p
    p0 = p - m * q
    return Fraction(p0, q), _rising(p0, q, m), q ** m


def _rising(p0: int, q: int, m: int) -> int:
    """prod(p0 + i q for i < m), split in halves so that a long product
    multiplies operands of like size."""
    if m <= 64:
        return math.prod(range(p0, p0 + m * q, q))
    h = m // 2
    return _rising(p0, q, h) * _rising(p0 + h * q, q, m - h)


def _ratio(num: int, den: int, wp: int) -> tuple:
    """num/den at the working precision wp.  Both are cut to 32 guard bits
    first (exact while they fit), so a long product costs no long division;
    the quotient is then within 2^-(wp+30) of num/den before its one
    rounding."""
    g, rnd = wp + 32, libmp.round_nearest
    return libmp.mpf_div(libmp.from_int(num, g, rnd), libmp.from_int(den, g, rnd), wp, rnd)


def _rgamma(x: Fraction, precision: int, wp: int) -> tuple:
    """1/gamma(x) for any rational x at the working precision wp: the
    integers take the factorial path (0 at the poles), negative arguments
    the reflection formula sin(pi x) gamma(1-x) / pi, which is entire."""
    rnd = libmp.round_nearest
    if x.denominator == 1:
        n = x.numerator
        if n <= 0:
            return libmp.fzero
        return libmp.mpf_rdiv_int(1, libmp.from_int(math.factorial(_bounded(n - 1)), wp, rnd), wp, rnd)
    if x < 0:
        x0, num, den = _shift(1 - x)
        with _PREC_LOCK:
            sin, pi = libmp.mpf_sin_pi(tuple_in(x, wp), wp, rnd), libmp.mpf_pi(wp, rnd)
        g = libmp.mpf_mul(_spouge_memo(x0, precision, wp), _ratio(num, den, wp), wp, rnd)
        return libmp.mpf_div(libmp.mpf_mul(sin, g, wp, rnd), pi, wp, rnd)
    x0, num, den = _shift(x)
    return libmp.mpf_div(_ratio(den, num, wp), _spouge_memo(x0, precision, wp), wp, rnd)


def reciprocal_gamma(x: NumberLike, precision: int = DEFAULT_PRECISION):
    """1/gamma as an entire function: an exact Fraction at the integers (0
    at the poles 0, -1, -2, ..., 1/(n-1)! at n > 0), an mpf rounded once to
    the given precision elsewhere."""
    check_precision(precision)
    x = as_rational(x)
    if x.denominator == 1:
        n = x.numerator
        return Fraction(0) if n <= 0 else Fraction(1, math.factorial(_bounded(n - 1)))
    return _reciprocal_gamma_memo(x, precision)


@lru_cache(maxsize=1024)
def _reciprocal_gamma_memo(x: Fraction, precision: int):
    """1/gamma at a non-integer x, rounded once to the precision from the
    working precision _spouge_wp(precision), which the key fixes."""
    return mp.make_mpf(libmp.mpf_pos(_rgamma(x, precision, _spouge_wp(precision)), precision, libmp.round_nearest))


def generalized_binomial(alpha: NumberLike, k: int) -> Fraction:
    """binom(alpha, k) = alpha(alpha-1)...(alpha-k+1)/k!, exact for a
    rational upper index (a float one counts as its exact binary value)."""
    if k < 0:
        raise DomainError(f"lower index must be nonnegative, got {k}")
    a = as_rational(alpha)
    return math.prod((a - i for i in range(k)), start=Fraction(1)) / math.factorial(k)


def multinomial(parts) -> int:
    """(sum parts)! / prod(parts_i!)."""
    parts = list(parts)
    if any((not isinstance(p, int)) or p < 0 for p in parts):
        raise DomainError(f"multinomial expects nonnegative integers, got {parts}")
    total = math.factorial(sum(parts))
    for p in parts:
        total //= math.factorial(p)
    return total
