"""Fractional operators on polynomials, their closed forms, and the oracle.

The central primitive is one power-rule step, :func:`rl_derivative_term`:
D^a t^e = gamma(e+1)/gamma(e-a+1) t^(e-a), the derivative of order a > 0
or the integral of order -a.  Every order and exponent is an exact
rational (a float means its exact binary value), so the terms of an
expansion merge by exponent equality.  Integer orders are computed as exact
rational falling factorials, so every operator collapses to the ordinary
calculus exactly when the order is an integer; non-integer orders take
both gammas through reciprocal_gamma, in the float domain.

The quadrature oracle at the bottom integrates the defining formula
directly with a Gauss-Jacobi rule and shares no code path with the closed
forms above it.  A memo holds its set-up, which no polynomial changes.

An expansion's float coefficients are libmp tuples, as in every
:class:`~fracpoly.scalars.Coefficients`.  Their products and sums, the
power-rule step's product and quotient, the sum of
:func:`eval_frac_expansion`, its powers t^x and the oracle's set-up and
Horner passes pass the precision to each libmp call, rounded to nearest
as the mpf operators round in a scope of that precision, and take no
precision scope.  The oracle's gamma is libmp's ``mpf_gamma``, which
mpmath's gamma calls: it shares no code with the package's Spouge gamma.

Three memos hold repeated values; each key holds every input a value's
bits depend on, so a hit returns the bits of a fresh call, and
``fracpoly.clear_caches()`` empties all three:

- :func:`rl_derivative_term` is itself the memo of its pairs, keyed by
  its arguments as given, at most 1024 entries, least recently used
  evicted.  An int, a Fraction and a float of one value hash and compare
  alike, so they share an entry.  A float coefficient takes at most
  about 1.1 kB at the 8192-bit cap, so float entries take at most about
  1.1 MB.  An exact one, at an integer order, is a falling factorial of at
  most 2^15 factors: the orders of ``verify all`` make it a few bytes, and
  the integral of order 2^15 of t^200 about 58 kB.
- ``_power`` holds the powers t^x of :func:`eval_frac_expansion`, keyed by
  t, x (as integer pairs) and the working precision, at most 1024 values
  (about 1.1 MB at the 8192-bit cap).
- ``_oracle_setup`` holds the set-up of :func:`caputo_quadrature_points`
  by nu = n - alpha, node count N, points (P of them) and precision, at
  most 128 entries of (N + 1)(P + 1) floats.  The set-up reads the order
  only through nu, so orders such as 1/2, 3/2 and 5/2 share an entry, and
  each entry builds its Gauss-Jacobi rule afresh; ``verify all`` makes 8,
  N <= 5, P = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Iterable

from mpmath import libmp, mp

from .errors import DomainError
from .families import FamilyParams, Polynomial, family_numbers
from .gammafns import _bounded, generalized_binomial, reciprocal_gamma
from .quadrature import gauss_jacobi_rule
from .scalars import (_PREC_LOCK, DEFAULT_PRECISION, ZEROS, Coefficients, NumberLike, as_rational, check_precision,
                      dot_tuples, join_precision, positive_rational, precision_of, raw_value, render, tuple_in)

__all__ = [
    "CaputoOrder",
    "FracExpansion",
    "caputo_derivative_poly",
    "rl_integral_poly",
    "rl_derivative_term",
    "caputo_by_composition",
    "leibniz_product",
    "caputo_closed_form",
    "caputo_quadrature_oracle",
    "caputo_quadrature_points",
    "eval_frac_expansion",
    "aligned_terms",
]


@dataclass(frozen=True)
class CaputoOrder:
    """Fractional order alpha > 0 with n the smallest integer >= alpha."""

    alpha: Fraction
    n: int

    def __init__(self, alpha: NumberLike):
        a = positive_rational(alpha, "fractional order")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "n", math.ceil(a))

    @property
    def is_integer(self) -> bool:
        return self.alpha.denominator == 1


class FracExpansion(Coefficients):
    """Finite sum of real-power terms: coefficients, each with an exact
    rational exponent, strictly increasing; iteration yields the raw
    (coefficient, exponent) pairs.

    The constructor takes each coefficient as a number or as a tuple of
    factors, and each exponent as :func:`as_rational` reads it.  It
    computes every coefficient in one domain, joined over all factors
    (exact when every factor is exact, else floats at ``precision``, on
    libmp tuples rounded to nearest).  A product follows one rounding rule:
    the exact factors up to the first float are multiplied exactly and
    rounded once, and each later factor is rounded before it multiplies.
    Nonzero terms of equal exponent merge, their coefficients summed in
    input order; terms that cancel are dropped.
    """

    __slots__ = ("_exponents",)

    def __init__(self, terms: Iterable[tuple], precision: int | None = None):
        terms = [([raw_value(f, precision) for f in (c if isinstance(c, tuple) else (c,))], as_rational(e))
                 for c, e in terms]
        self._merge(terms, join_precision(*[precision_of(f, precision) for factors, _ in terms for f in factors]))

    @classmethod
    def _products(cls, terms: Iterable[tuple[tuple, Fraction]], precision: int | None) -> "FracExpansion":
        """The expansion of (raw factors, exponent) terms in the joined domain ``precision``."""
        out = object.__new__(cls)
        out._merge(terms, precision)
        return out

    def _merge(self, terms, prec: int | None) -> None:
        """Sum the products of each exponent over the terms stably sorted
        by exponent, so that each sum keeps its input order, and drop the
        zero sums.  A float sum runs on libmp tuples at ``prec``, rounded
        to nearest, as the mpf operators round in a ``prec``-bit scope; it
        starts from zero, which changes no product: each has at most
        ``prec`` bits."""
        exponent = itemgetter(1)
        groups = groupby(sorted(terms, key=exponent), key=exponent)
        if prec is None:
            merged = [(e, sum(math.prod(factors) for factors, _ in group)) for e, group in groups]
        else:
            rnd, merged = libmp.round_nearest, []
            for e, group in groups:
                total = libmp.fzero
                for factors, _ in group:
                    total = libmp.mpf_add(total, _rounded_product(factors, prec, rnd), prec, rnd)
                merged.append((e, total))
        merged = [(e, c) for e, c in merged if c not in ZEROS]
        self._hold([c for _, c in merged], prec)
        self._exponents = tuple([e for e, _ in merged])

    def __iter__(self):
        return zip(super().__iter__(), self._exponents)

    def __getitem__(self, k):
        raise TypeError("a FracExpansion is not indexed; iterate its (coefficient, exponent) pairs")

    def __eq__(self, other):
        return super().__eq__(other) and self._exponents == other._exponents

    def scale(self, factor: NumberLike) -> "FracExpansion":
        f = as_rational(factor)
        return self._products([((c, f), e) for c, e in self], self._prec)

    def __repr__(self):
        body = " + ".join(f"({render(c, self._prec)})*t^({e})" for c, e in self)
        return f"FracExpansion({body or '0'})"


def _rounded_product(factors, prec: int, rnd):
    """The product of raw factors as a libmp tuple at ``prec`` by the one
    rounding rule of :class:`FracExpansion`: the exact prefix multiplied
    as one integer numerator and denominator and rounded once, then each
    later factor rounded before it multiplies."""
    num = den = 1
    k = 0
    for f in factors:
        if hasattr(f, "_mpf_"):
            break
        num, den, k = num * f.numerator, den * f.denominator, k + 1
    acc = libmp.from_rational(num, den, prec, rnd)
    for f in factors[k:]:
        acc = libmp.mpf_mul(acc, tuple_in(f, prec), prec, rnd)
    return acc


@lru_cache(maxsize=1024)
def rl_derivative_term(
    beta: NumberLike, alpha: NumberLike, precision: int = DEFAULT_PRECISION
) -> tuple:
    """Riemann-Liouville derivative of t^beta at order alpha (integral if
    alpha < 0): gamma(beta+1)/gamma(beta-alpha+1) t^(beta-alpha), as the
    (coefficient, exponent) pair, the coefficient a Fraction or an mpf at
    the given precision.

    The one power-rule step of the module.  Integer alpha gives the exact
    rational falling factorial (or its reciprocal for negative alpha), with
    an exact zero at a pole of the denominator gamma.  Non-integer alpha
    gives beta! / gamma(beta-alpha+1) at an integer beta, the exact
    factorial rounded once before it multiplies, and the quotient of two
    reciprocal gammas elsewhere.  The function is a memo: the pair depends
    only on the exact values of beta and alpha, and every rounding runs at
    a working precision the precision fixes, so a hit returns the bits of
    a fresh call.
    """
    check_precision(precision)
    b, a = as_rational(beta), as_rational(alpha)
    if b <= -1:
        raise DomainError(f"exponent must exceed -1, got {b}")
    if a.denominator == 1:
        k = a.numerator
        if k >= 0:
            coeff = math.prod((b - i for i in range(_bounded(k))), start=Fraction(1))
        else:
            coeff = 1 / math.prod(b + i for i in range(1, 1 + _bounded(-k)))
    else:
        # reciprocal_gamma refuses an argument above its cap before the factorial runs
        top, rnd = tuple_in(reciprocal_gamma(b - a + 1, precision), precision), libmp.round_nearest
        if b.denominator == 1:
            coeff = libmp.mpf_mul(top, libmp.from_int(math.factorial(b.numerator), precision, rnd), precision, rnd)
        else:
            coeff = libmp.mpf_div(top, tuple_in(reciprocal_gamma(b + 1, precision), precision), precision, rnd)
        coeff = mp.make_mpf(coeff)
    return coeff, b - a


def _termwise(pairs: Iterable[tuple], prec: int | None, order: int | Fraction, precision: int) -> FracExpansion:
    """sum c D^order t^e over raw (c, e) pairs, one power-rule step each,
    in the domain ``prec`` joined with the steps' domain, which is exact
    exactly when the order is an integer."""
    terms = []
    for c, e in pairs:
        d, de = rl_derivative_term(e, order, precision)
        terms.append(((c, d), de))
    return FracExpansion._products(terms, join_precision(prec, None if order.denominator == 1 else precision))


def caputo_derivative_poly(
    q: Polynomial, ord: CaputoOrder, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """Termwise Caputo derivative of a polynomial in t."""
    check_precision(precision)
    return _termwise([(c, j) for c, j in q.monomials() if j >= ord.n], q._prec, ord.alpha, precision)


def rl_integral_poly(
    q: Polynomial, alpha: NumberLike, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """Riemann-Liouville integral of order alpha > 0, termwise power rule."""
    check_precision(precision)
    return _termwise(q.monomials(), q._prec, -positive_rational(alpha, "integral order"), precision)


def aligned_terms(a: FracExpansion, b: FracExpansion) -> list[tuple]:
    """(exponent, index of its term in a, index in b) over the union of the
    exponents, with None where one side has no term: one merge of the two
    strictly increasing exponent tuples."""
    ae, be = a._exponents, b._exponents
    out, i, j = [], 0, 0
    while i < len(ae) and j < len(be):
        if ae[i] == be[j]:
            out.append((ae[i], i, j))
            i, j = i + 1, j + 1
        elif ae[i] < be[j]:
            out.append((ae[i], i, None))
            i += 1
        else:
            out.append((be[j], None, j))
            j += 1
    return out + [(ae[k], k, None) for k in range(i, len(ae))] + [(be[k], None, k) for k in range(j, len(be))]


def caputo_by_composition(
    q: Polynomial, ord: CaputoOrder, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """D^(n) applied to I^(n-alpha) of q: the Caputo derivative by the
    integrate-then-differentiate route, termwise.

    It equals :func:`caputo_derivative_poly` on t^j for j >= n only: on a
    lower power the integral keeps a term that the n derivatives leave at a
    negative exponent, where the Caputo derivative is zero.
    """
    check_precision(precision)
    composed = _termwise(q.monomials(), q._prec, ord.alpha - ord.n, precision)  # I^(n-alpha)
    for _ in range(ord.n):
        composed = _termwise(composed, composed.precision, 1, precision)
    return composed


def leibniz_product(
    f: Polynomial, g: Polynomial, alpha: NumberLike, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """Product-rule expansion: sum_k binom(alpha,k) f^(k) D^(alpha-k) g.

    The sum over k stops at deg f because higher derivatives of f vanish.
    Equals the termwise RL derivative of the expanded product f*g.
    """
    check_precision(precision)
    a = positive_rational(alpha, "order")
    terms = []
    prec = join_precision(f._prec, g._prec, None if a.denominator == 1 else precision)
    fk = f
    for k in range(f.degree + 1):
        w = generalized_binomial(a, k)
        if w:
            for cf, i in fk.monomials():
                for cg, j in g.monomials():
                    d, de = rl_derivative_term(j, a - k, precision)
                    terms.append(((w, cf, cg, d), i + de))
        fk = fk.derivative()
        if fk.is_zero():
            break
    return FracExpansion._products(terms, prec)


def caputo_closed_form(
    p: FamilyParams,
    m: int,
    ord: CaputoOrder,
    precision: int = DEFAULT_PRECISION,
    numbers: Coefficients | None = None,
) -> FracExpansion:
    """Closed-form Caputo derivative of the degree-m family polynomial.

    The shared shape of theorems 4-6, with n = ceil(alpha):
    gamma(m+1)/gamma(m-n+1) * sum_k k! binom(m-n,k) N_{m-n-k}
    / gamma(n+k-alpha+1) * t^(k-alpha+n).  The numbers N_0..N_{m-n} (the
    first ones of ``numbers``) default to family_numbers(p); passing them
    lets a caller reach them by another route (theorem 5's multinomial
    sums, or the verifier's pinned-index literal variant).
    """
    check_precision(precision)
    n = ord.n
    if m < n:
        raise DomainError(f"degree {m} below ceil(order) = {n}")
    if numbers is None:
        numbers = family_numbers(p, m - n, precision)
    rgs = [reciprocal_gamma(n + k + 1 - ord.alpha, precision) for k in range(m - n + 1)]
    terms = [((math.perm(m, n), math.factorial(k), math.comb(m - n, k), numbers[m - n - k], rg),
              k + n - ord.alpha) for k, rg in enumerate(rgs)]
    return FracExpansion._products(terms, join_precision(numbers._prec, None if ord.is_integer else precision))


def caputo_quadrature_oracle(
    q: Polynomial, ord: CaputoOrder, t: NumberLike, precision: int = DEFAULT_PRECISION
):
    """Evaluate the Caputo derivative of q at t by singular quadrature, an
    mpf rounded once to the given precision: the one-point case of
    :func:`caputo_quadrature_points`."""
    return caputo_quadrature_points(q, ord, (t,), precision)[0]


def caputo_quadrature_points(
    q: Polynomial, ord: CaputoOrder, ts: Iterable[NumberLike], precision: int = DEFAULT_PRECISION
) -> list:
    """The Caputo derivative of q at each point of ts by singular
    quadrature, each an mpf rounded once to the given precision.

    Integrates q^(n)(s) (t-s)^(n-alpha-1) / gamma(n-alpha) over [0, t] with
    a Gauss-Jacobi rule whose weight absorbs the endpoint singularity.  The
    rule has (d + 2) // 2 + 1 nodes for d = deg(q^(n)): the exactness minimum
    ceil((d + 1) / 2) plus one guard node, so the polynomial factor is
    integrated exactly by construction.  Integer orders bypass to the
    ordinary derivative, in q's domain.  The set-up comes from the memo
    :func:`_oracle_setup`; q adds its coefficients at the working precision
    and one Horner pass per node and point, so a point's value has the bits
    of a one-point call.  No code is shared with the closed-form routes.
    """
    check_precision(precision)
    ts = tuple(positive_rational(t, "evaluation point") for t in ts)
    dq = q
    for _ in range(ord.n):
        dq = dq.derivative()
    if ord.is_integer:
        return [dq.evaluate(t) for t in ts]
    wp = precision + 32
    weights, images, scales, gamma = _oracle_setup(ord.n - ord.alpha, (dq.degree + 2) // 2 + 1, ts, precision)
    coeffs = dq._values_in(wp)[::-1]
    # the Horner passes on libmp tuples, each operation rounded to nearest
    # at wp: the bits the mpf operators give in a wp-bit scope
    rnd, add, mul = libmp.round_nearest, libmp.mpf_add, libmp.mpf_mul
    out = []
    for us, scale in zip(images, scales):
        acc = libmp.fzero
        for u, w in zip(us, weights):
            val = libmp.fzero
            for c in coeffs:
                val = add(mul(val, u, wp, rnd), c, wp, rnd)
            acc = add(acc, mul(w, val, wp, rnd), wp, rnd)
        total = libmp.mpf_div(mul(acc, scale, wp, rnd), gamma, wp, rnd)
        out.append(mp.make_mpf(libmp.mpf_pos(total, precision, rnd)))
    return out


@lru_cache(maxsize=128)
def _oracle_setup(nu: Fraction, npoints: int, ts: tuple, precision: int) -> tuple:
    """The oracle's set-up for nu = n - alpha, all it reads of the order:
    the weights of the rule for (1-u)^(nu-1), each node x mapped to each
    point t as t (x + 1) / 2, each point's (t/2)^nu and gamma(nu), as libmp
    tuples rounded at wp = precision + 32, which the key fixes; nu itself
    is rounded once to wp."""
    wp, rnd = precision + 32, libmp.round_nearest
    nodes, weights = gauss_jacobi_rule(nu - 1, npoints, precision)
    tms = [libmp.from_rational(t.numerator, t.denominator, wp, rnd) for t in ts]
    images = tuple(tuple(libmp.mpf_shift(libmp.mpf_mul(tm, libmp.mpf_add(x._mpf_, libmp.fone, wp, rnd), wp, rnd), -1)
                         for x in nodes) for tm in tms)
    power = libmp.from_rational(nu.numerator, nu.denominator, wp, rnd)
    with _PREC_LOCK:
        scales = tuple(libmp.mpf_pow(libmp.mpf_shift(tm, -1), power, wp, rnd) for tm in tms)
        gamma = libmp.mpf_gamma(power, wp, rnd)
    return tuple(w._mpf_ for w in weights), images, scales, gamma


def eval_frac_expansion(
    e: FracExpansion, t: NumberLike, precision: int = DEFAULT_PRECISION
):
    """Sum c_k t^{e_k} at t > 0, powers via exp(e log t) from the memo
    :func:`_power`, as an mpf rounded once to the given precision.  The
    sum runs on libmp tuples at the working precision precision + 16."""
    check_precision(precision)
    t = positive_rational(t, "evaluation point")
    wp = precision + 16
    powers = [_power(t.numerator, t.denominator, x.numerator, x.denominator, wp) for x in e._exponents]
    return mp.make_mpf(libmp.mpf_pos(dot_tuples(e._values_in(wp), powers, wp), precision, libmp.round_nearest))


@lru_cache(maxsize=1024)
def _power(tn: int, td: int, xn: int, xd: int, wp: int) -> tuple:
    """t^x for t = tn/td and x = xn/xd as exp(x log t), a libmp tuple with
    each step rounded at wp bits; a hit returns the bits of a fresh call.
    The key is integers, which hash faster than Fractions."""
    rnd = libmp.round_nearest
    x, t = libmp.from_rational(xn, xd, wp, rnd), libmp.from_rational(tn, td, wp, rnd)
    with _PREC_LOCK:
        return libmp.mpf_exp(libmp.mpf_mul(x, libmp.mpf_log(t, wp, rnd), wp, rnd), wp, rnd)
