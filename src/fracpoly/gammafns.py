"""1/gamma, the package's one entry point to gamma, and exact combinatorics.

The gamma function is a Spouge approximation whose parameter a is derived
from the requested precision, so the error bound 2^(8-precision) is a
consequence of the construction rather than a hope.  Arguments are exact
rationals (a float argument means its exact binary value).  A positive
non-integer x is split as x0 + m with x0 in [1, 2), which pins the
cancellation of the alternating Spouge sum at roughly 0.17*precision bits,
and gamma(x) = gamma(x0) x0 (x0 + 1) ... (x0 + m - 1): the rising product
is an exact integer ratio, brought to the working precision by one
division.  Negative arguments go through
the reflection formula with 1 - x exact too.

The sum runs in fixed point: the coefficients are integers scaled by 2^F,
built once per precision, and each term c_k/(z+k) is one integer floor
division, since z = x0 - 1 rounded to the working precision is a dyadic
rational.  F is the Spouge working precision precision + 48 + precision/5,
taken from the requested precision alone, so the sum is within 3a 2^-F of
its value (relative, since it is at least 1) under any caller's working
precision; the cancellation costs no bits of it.  The sum is rounded once
to the working precision, where the power and exponential factors are
computed.  Past the Spouge truncation and the sum, the error budget is a
few roundings at the working precision (at least precision + 16 bits):
x0 itself (which moves gamma(x0) by x0 |psi(x0)| < 0.85 units on [1, 2)),
the power and exponential, the rising product (exact, then cut to 32
guard bits and divided once) and the product or quotient with gamma(x0),
all well inside 2^(8-precision).

Spouge evaluations are memoized on (x0, precision, working precision), so
every argument with the same fractional part shares one sum: the working
precision fixes every rounding after it, so a hit returns the very bits a
fresh evaluation would and the error bound is untouched.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import libmp, mp

from .errors import DomainError
from .scalars import (
    DEFAULT_PRECISION,
    Scalar,
    ScalarLike,
    as_rational,
    as_scalar,
    check_precision,
    fraction_to_mpf,
    working_precision,
)

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
    """
    a = _spouge_a(precision)
    F = _spouge_wp(precision)
    G = F + 2 * a + (4 * a).bit_length()
    e = libmp.to_fixed(libmp.mpf_e(G + 8), G)
    two_pi = libmp.mpf_shift(libmp.mpf_pi(G + 8), 1)
    coeffs = [libmp.to_fixed(libmp.mpf_sqrt(two_pi, G + 8), F)]
    exp_j = [1 << G, e]  # e^j 2^G
    for _ in range(2, a):
        exp_j.append((exp_j[-1] * e) >> G)
    fact = 1  # (k-1)!
    for k in range(1, a):
        j = a - k
        c = (j ** (k - 1) * math.isqrt(j << 2 * G) * exp_j[j]) // (fact << (2 * G - F))
        coeffs.append(c if k % 2 == 1 else -c)
        fact *= k
    return F, tuple(coeffs)


def _gamma_positive(x, precision: int):
    """Gamma of an mpf x in [1, 2) at the current (elevated) working precision, uncached.

    The Spouge sum s = c_0 + sum c_k/(z+k) runs in fixed point at F bits:
    z = x - 1 = M 2^e is exact, so each term is (C_k 2^-e) // (M + k 2^-e),
    within three units of 2^-F with its coefficient's error.  So s is within
    3a 2^-F of its value, relative since |s| >= 1, whatever the working
    precision, and is rounded to the working precision once.
    """
    F, coeffs = _spouge_coeffs(precision)
    a = len(coeffs)
    z = x - 1
    _, man, exp, _ = z._mpf_
    shift = max(-exp, 0)
    zfix = man << max(exp, 0)
    acc = coeffs[0]
    for k in range(1, a):
        acc += (coeffs[k] << shift) // (zfix + (k << shift))
    s = mp.make_mpf(libmp.from_man_exp(acc, -F, mp.prec, libmp.round_nearest))
    return mp.power(z + a, z + mp.mpf(1) / 2) * mp.exp(-(z + a)) * s


@lru_cache(maxsize=4096)
def _spouge_memo(x0: Fraction, precision: int, wp: int):
    # wp is the caller's mp.prec: the rounded x0, the power and the rounded
    # sum all round to it, so it belongs in the key alongside the argument
    # and the target precision
    return _gamma_positive(fraction_to_mpf(x0, wp), precision)


def _spouge(x0: Fraction, precision: int):
    """Memoized gamma(x0) for x0 in [1, 2) at the current working precision."""
    return _spouge_memo(x0, precision, mp.prec)


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


def _ratio(num: int, den: int):
    """num/den at the working precision.  Both are cut to 32 guard bits
    first (exact while they fit), so a long product costs no long division;
    the quotient is then within 2^-(prec+30) of num/den before its one
    rounding."""
    g = mp.prec + 32
    rnd = libmp.round_nearest
    return mp.make_mpf(libmp.mpf_div(libmp.from_int(num, g, rnd), libmp.from_int(den, g, rnd), mp.prec, rnd))


def _rgamma(x: Fraction, precision: int):
    """1/gamma(x) for any rational x at the current working precision: the
    integers take the factorial path (0 at the poles), negative arguments
    the reflection formula sin(pi x) gamma(1-x) / pi, which is entire."""
    if x.denominator == 1:
        n = x.numerator
        return mp.zero if n <= 0 else 1 / mp.mpf(math.factorial(_bounded(n - 1)))
    if x < 0:
        x0, num, den = _shift(1 - x)
        return mp.sinpi(fraction_to_mpf(x, mp.prec)) * (_spouge(x0, precision) * _ratio(num, den)) / mp.pi
    x0, num, den = _shift(x)
    return _ratio(den, num) / _spouge(x0, precision)


def reciprocal_gamma(x: ScalarLike, precision: int = DEFAULT_PRECISION) -> Scalar:
    """1/gamma as an entire function: exact at the integers (0 at the poles
    0, -1, -2, ..., 1/(n-1)! at n > 0), a float at the given precision
    elsewhere."""
    check_precision(precision)
    x = as_rational(x)
    if x.denominator == 1:
        n = x.numerator
        return as_scalar(0 if n <= 0 else Fraction(1, math.factorial(_bounded(n - 1))))
    with working_precision(_spouge_wp(precision)):
        v = _rgamma(x, precision)
    return Scalar.big(v, precision)


def generalized_binomial(alpha: ScalarLike, k: int) -> Fraction:
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
