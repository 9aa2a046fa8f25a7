"""Gamma, beta and the combinatorial primitives built on top of them.

The gamma function is a Spouge approximation whose parameter a is derived
from the requested precision, so the error bound 2^(8-precision) is a
consequence of the construction rather than a hope.  Arguments are shifted
into [1, 2) by the functional equation first, which pins the cancellation
of the alternating Spouge sum at roughly 0.17*precision bits.

The sum runs in fixed point: the coefficients are integers scaled by 2^F,
built once per precision, and each term c_k/(z+k) is one integer floor
division, since the shifted argument z is a dyadic rational.  F is the
Spouge working precision precision + 48 + precision/5, taken from the
requested precision alone, so the sum is within 3a 2^-F of its value
(relative, since it is at least 1) under any caller's working precision;
the cancellation costs no bits of it.  The sum is rounded once to the
working precision, where the shift products and the power and exponential
factors are computed.

Spouge evaluations are memoized on (argument, precision, working
precision): the working precision fixes every rounding after the sum, so a
hit returns the very bits a fresh evaluation would and the error bound is
untouched.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import libmp, mp

from .errors import DomainError, PoleError
from .scalars import (
    DEFAULT_PRECISION,
    Scalar,
    ScalarLike,
    as_scalar,
    check_precision,
    working_precision,
)

__all__ = [
    "gamma",
    "reciprocal_gamma",
    "beta",
    "binomial",
    "generalized_binomial",
    "multinomial",
    "factorial",
]


def factorial(n: int) -> int:
    if n < 0:
        raise DomainError(f"factorial of negative integer {n}")
    return math.factorial(n)


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
    """Gamma of an mpf x > 0 at the current (elevated) working precision, uncached.

    The Spouge sum s = c_0 + sum c_k/(z+k) runs in fixed point at F bits:
    z = M 2^e is exact, so each term is (C_k 2^-e) // (M + k 2^-e), within
    three units of 2^-F with its coefficient's error.  So s is within
    3a 2^-F of its value, relative since |s| >= 1, whatever the working
    precision, and is rounded to the working precision once.
    """
    num = mp.mpf(1)
    den = mp.mpf(1)
    while x >= 2:
        x -= 1
        num *= x
    while x < 1:
        den *= x
        x += 1
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
    g = mp.power(z + a, z + mp.mpf(1) / 2) * mp.exp(-(z + a)) * s
    return g * num / den


@lru_cache(maxsize=4096)
def _spouge_memo(x, precision: int, wp: int):
    # wp is the caller's mp.prec: the shift products, the power and the
    # rounded sum all round to it, so it belongs in the key alongside the
    # argument and the target precision
    return _gamma_positive(x, precision)


def _spouge(x, precision: int):
    """Memoized _gamma_positive(x, precision) at the current working precision."""
    return _spouge_memo(x, precision, mp.prec)


def _integer_pole(x: Scalar) -> int | None:
    """The non-positive integer x equals, if any."""
    if x.is_integer():
        n = int(x)
        if n <= 0:
            return n
    return None


def gamma(x: ScalarLike, precision: int = DEFAULT_PRECISION) -> Scalar:
    """Gamma function of a real argument, accurate to 2^(8-precision) relative.

    Positive integers take the exact factorial path, so gamma(n) is (n-1)!
    correctly rounded at the working precision.  Negative non-integers go
    through the reflection formula.

    Raises PoleError at 0, -1, -2, ...
    """
    check_precision(precision)
    xs = as_scalar(x)
    if _integer_pole(xs) is not None:
        raise PoleError(f"gamma pole at {xs}")
    if xs.is_integer():
        n = int(xs)
        with working_precision(precision):
            return Scalar.big(mp.mpf(math.factorial(n - 1)), precision)
    wp = _spouge_wp(precision)
    with working_precision(wp):
        xm = xs.as_mpf(wp)
        if xm > 0:
            v = _spouge(xm, precision)
        else:
            v = mp.pi / (mp.sinpi(xm) * _spouge(1 - xm, precision))
    return Scalar.big(v, precision)


def reciprocal_gamma(x: ScalarLike, precision: int = DEFAULT_PRECISION) -> Scalar:
    """1/gamma as an entire function: exactly 0 at non-positive integers."""
    check_precision(precision)
    xs = as_scalar(x)
    if _integer_pole(xs) is not None:
        return Scalar.big(0, precision)
    if xs.is_integer():
        n = int(xs)
        with working_precision(precision + 16):
            v = 1 / mp.mpf(math.factorial(n - 1))
        return Scalar.big(v, precision)
    wp = _spouge_wp(precision)
    with working_precision(wp):
        xm = xs.as_mpf(wp)
        if xm > mp.mpf(1) / 2:
            v = 1 / _spouge(xm, precision)
        else:
            # sin(pi x) * gamma(1-x) / pi is entire, hence smooth across poles
            v = mp.sinpi(xm) * _spouge(1 - xm, precision) / mp.pi
    return Scalar.big(v, precision)


def beta(x: ScalarLike, y: ScalarLike, precision: int = DEFAULT_PRECISION) -> Scalar:
    """Beta(x, y) = gamma(x) gamma(y) / gamma(x+y) for x, y > 0."""
    check_precision(precision)
    xs, ys = as_scalar(x), as_scalar(y)
    if xs <= 0 or ys <= 0:
        raise DomainError(f"beta requires positive arguments, got ({xs}, {ys})")
    inner = precision + 24
    gx = gamma(xs, inner)
    gy = gamma(ys, inner)
    gxy = gamma(xs + ys, inner)
    with working_precision(inner):
        v = gx.value * gy.value / gxy.value
    return Scalar.big(v, precision)


def binomial(n: int, k: int) -> Scalar:
    """Exact integer binomial coefficient; 0 when k > n."""
    if n < 0 or k < 0:
        raise DomainError(f"binomial expects nonnegative integers, got ({n}, {k})")
    if k > n:
        return Scalar.exact(0)
    return Scalar.exact(math.comb(n, k))


def generalized_binomial(alpha: ScalarLike, k: int, precision: int = DEFAULT_PRECISION) -> Scalar:
    """binom(alpha, k) = alpha(alpha-1)...(alpha-k+1)/k! for real upper index.

    Exact when alpha is rational, a big float otherwise.
    """
    if k < 0:
        raise DomainError(f"lower index must be nonnegative, got {k}")
    a = as_scalar(alpha)
    if a.is_exact:
        prod = Fraction(1)
        av = a.value
        for i in range(k):
            prod *= av - i
        return Scalar.exact(prod / math.factorial(k))
    check_precision(precision)
    with working_precision(a.precision):
        prod = mp.mpf(1)
        av = a.value
        for i in range(k):
            prod *= av - i
        return Scalar.big(prod / math.factorial(k), a.precision)


def multinomial(parts) -> Scalar:
    """(sum parts)! / prod(parts_i!), exact."""
    parts = list(parts)
    if any((not isinstance(p, int)) or p < 0 for p in parts):
        raise DomainError(f"multinomial expects nonnegative integers, got {parts}")
    total = math.factorial(sum(parts))
    for p in parts:
        total //= math.factorial(p)
    return Scalar.exact(total)
