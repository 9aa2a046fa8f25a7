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
forms above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import mpmath
from mpmath import mp

from .errors import DegreeTooLow, DomainError
from .families import FamilyParams, Polynomial, family_numbers
from .gammafns import _bounded, generalized_binomial, reciprocal_gamma
from .quadrature import gauss_jacobi_rule
from .scalars import (DEFAULT_PRECISION, EXACT_TYPES, Coefficients, Scalar, ScalarLike, as_rational, as_raw,
                      as_scalar, check_precision, domain_scope, fraction_to_mpf, join_precision, positive_rational,
                      raw_in, working_precision)

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
    "eval_frac_expansion",
    "aligned_terms",
]


@dataclass(frozen=True)
class CaputoOrder:
    """Fractional order alpha > 0 with n the smallest integer >= alpha."""

    alpha: Fraction
    n: int

    def __init__(self, alpha: ScalarLike):
        a = positive_rational(alpha, "fractional order")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "n", math.ceil(a))

    @property
    def is_integer(self) -> bool:
        return self.alpha.denominator == 1


class FracExpansion(Coefficients):
    """Finite sum of real-power terms: coefficients, each with an exact
    rational exponent, strictly increasing; :attr:`terms` pairs them up.

    The constructor takes each coefficient as a number or as a tuple of
    factors, and computes every coefficient in one domain, joined over all
    factors, in one precision scope.  A product follows one rounding rule:
    the exact factors up to the first float are multiplied exactly and
    rounded once, and each later factor is rounded before it multiplies.
    Nonzero terms of equal exponent merge, their coefficients summed in
    input order; terms that cancel are dropped.
    """

    __slots__ = ("_exponents",)

    def __init__(self, terms: Iterable[tuple[ScalarLike | tuple[ScalarLike, ...], Fraction]]):
        terms = [([as_raw(f) for f in (c if isinstance(c, tuple) else (c,))], e) for c, e in terms]
        prec = join_precision(*[p for factors, _ in terms for _, p in factors])
        self._merge([([v for v, _ in factors], e) for factors, e in terms], prec)

    @classmethod
    def _products(cls, terms: Iterable[tuple[tuple, Fraction]], precision: int | None) -> "FracExpansion":
        """The expansion of (raw factors, exponent) terms in the joined domain ``precision``."""
        out = object.__new__(cls)
        out._merge(terms, precision)
        return out

    def _merge(self, terms, prec: int | None) -> None:
        merged: dict[Fraction, object] = {}
        with domain_scope(prec):
            for factors, e in terms:
                c = _product(factors, prec)
                if c:
                    merged[e] = merged[e] + c if e in merged else c
        exponents = [e for e in sorted(merged) if merged[e]]
        self._values, self._prec, self._exponents = tuple([merged[e] for e in exponents]), prec, tuple(exponents)

    @property
    def terms(self) -> tuple[tuple[Scalar, Fraction], ...]:
        return tuple(zip(self.coeffs, self._exponents))

    def __iter__(self):
        return iter(self.terms)

    def scale(self, factor: ScalarLike) -> "FracExpansion":
        return FracExpansion([((c, factor), e) for c, e in self])

    def __repr__(self):
        body = " + ".join(f"({c})*t^({e})" for c, e in self)
        return f"FracExpansion({body or '0'})"


def _product(factors, prec: int | None):
    """The raw product of raw factors in the domain ``prec`` by the one
    rounding rule of :class:`FracExpansion`."""
    first_float = next((i for i, f in enumerate(factors) if not isinstance(f, EXACT_TYPES)), len(factors))
    acc = raw_in(math.prod(factors[:first_float], start=Fraction(1)), prec)
    for f in factors[first_float:]:
        acc *= raw_in(f, prec)
    return acc


def rl_derivative_term(
    beta: ScalarLike, alpha: ScalarLike, precision: int = DEFAULT_PRECISION
) -> tuple[Scalar, Fraction]:
    """Riemann-Liouville derivative of t^beta at order alpha (integral if
    alpha < 0): gamma(beta+1)/gamma(beta-alpha+1) t^(beta-alpha), as the
    (coefficient, exponent) pair.

    The one power-rule step of the module.  Integer alpha gives the exact
    rational falling factorial (or its reciprocal for negative alpha), with
    an exact zero at a pole of the denominator gamma.  Non-integer alpha
    gives beta! / gamma(beta-alpha+1) at an integer beta, the exact
    factorial rounded once before it multiplies, and the quotient of two
    reciprocal gammas elsewhere.
    """
    check_precision(precision)
    b, a = as_rational(beta), as_rational(alpha)
    if b <= -1:
        raise DomainError(f"exponent must exceed -1, got {b}")
    if a.denominator == 1:
        k = a.numerator
        if k >= 0:
            coeff = as_scalar(math.prod(b - i for i in range(_bounded(k))))
        else:
            coeff = as_scalar(1 / math.prod(b + i for i in range(1, 1 + _bounded(-k))))
    elif b.denominator == 1:
        # reciprocal_gamma refuses an argument above its cap before the factorial runs
        top = reciprocal_gamma(b - a + 1, precision).value
        with working_precision(precision):
            coeff = Scalar(top * raw_in(math.factorial(b.numerator), precision), precision)
    else:
        top = raw_in(reciprocal_gamma(b - a + 1, precision).value, precision)
        bottom = reciprocal_gamma(b + 1, precision).value
        with working_precision(precision):
            coeff = Scalar(top / bottom, precision)
    return coeff, b - a


def _termwise(pairs: Iterable[tuple], prec: int | None, order: ScalarLike, precision: int) -> FracExpansion:
    """sum c D^order t^e over raw (c, e) pairs in the domain ``prec``, one power-rule step each."""
    terms = []
    for c, e in pairs:
        d, de = rl_derivative_term(e, order, precision)
        prec = join_precision(prec, d.precision)
        terms.append(((c, d.value), de))
    return FracExpansion._products(terms, prec)


def caputo_derivative_poly(
    q: Polynomial, ord: CaputoOrder, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """Termwise Caputo derivative of a polynomial in t."""
    check_precision(precision)
    return _termwise([(c, j) for c, j in q.monomials() if j >= ord.n], q._prec, ord.alpha, precision)


def rl_integral_poly(
    q: Polynomial, alpha: ScalarLike, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """Riemann-Liouville integral of order alpha > 0, termwise power rule."""
    check_precision(precision)
    return _termwise(q.monomials(), q._prec, -positive_rational(alpha, "integral order"), precision)


def aligned_terms(a: FracExpansion, b: FracExpansion) -> list[tuple]:
    """(exponent, raw coefficient in a, raw coefficient in b) over the union
    of the exponents, with an exact zero where one side has no term."""
    amap = dict(zip(a._exponents, a._values))
    bmap = dict(zip(b._exponents, b._values))
    return [(e, amap.get(e, Fraction(0)), bmap.get(e, Fraction(0))) for e in sorted(set(amap) | set(bmap))]


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
        composed = _termwise(zip(composed._values, composed._exponents), composed._prec, 1, precision)
    return composed


def leibniz_product(
    f: Polynomial, g: Polynomial, alpha: ScalarLike, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """Product-rule expansion: sum_k binom(alpha,k) f^(k) D^(alpha-k) g.

    The sum over k stops at deg f because higher derivatives of f vanish.
    Equals the termwise RL derivative of the expanded product f*g.
    """
    check_precision(precision)
    a = positive_rational(alpha, "order")
    terms = []
    prec = join_precision(f._prec, g._prec)
    fk = f
    for k in range(f.degree + 1):
        w = generalized_binomial(a, k)
        if w:
            for cf, i in fk.monomials():
                for cg, j in g.monomials():
                    d, de = rl_derivative_term(j, a - k, precision)
                    prec = join_precision(prec, d.precision)
                    terms.append(((w, cf, cg, d.value), i + de))
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
        raise DegreeTooLow(f"degree {m} below ceil(order) = {n}")
    if numbers is None:
        numbers = family_numbers(p, m - n, precision)
    rgs = [reciprocal_gamma(n + k + 1 - ord.alpha, precision) for k in range(m - n + 1)]
    terms = [((math.perm(m, n), math.factorial(k), math.comb(m - n, k), numbers._values[m - n - k], rg.value),
              k + n - ord.alpha) for k, rg in enumerate(rgs)]
    return FracExpansion._products(terms, join_precision(numbers._prec, *[rg.precision for rg in rgs]))


def caputo_quadrature_oracle(
    q: Polynomial, ord: CaputoOrder, t: ScalarLike, precision: int = DEFAULT_PRECISION
) -> Scalar:
    """Evaluate the Caputo derivative of q at t by singular quadrature.

    Integrates q^(n)(s) (t-s)^(n-alpha-1) / gamma(n-alpha) over [0, t] with
    a Gauss-Jacobi rule whose weight absorbs the endpoint singularity.  The
    rule has (d + 2) // 2 + 1 nodes for d = deg(q^(n)): the exactness minimum
    ceil((d + 1) / 2) plus one guard node, so the polynomial factor is
    integrated exactly by construction.  Integer orders bypass to the
    ordinary derivative.  The coefficients of q^(n) are converted to the
    working precision once per call, and each node runs one Horner pass
    on them.
    """
    check_precision(precision)
    t = positive_rational(t, "evaluation point")
    n = ord.n
    dq = q
    for _ in range(n):
        dq = dq.derivative()
    if ord.is_integer:
        return dq.evaluate(t)
    if dq.is_zero():
        return Scalar.big(0, precision)
    wp = precision + 32
    a_exp = ord.alpha
    weight_exp = n - a_exp - 1
    npoints = (dq.degree + 2) // 2 + 1
    nodes, weights = gauss_jacobi_rule(weight_exp, npoints, precision)
    coeffs = dq._values_in(wp)[::-1]
    with working_precision(wp):
        tm = fraction_to_mpf(t, wp)
        acc = mp.mpf(0)
        for x, w in zip(nodes, weights):
            u = tm * (1 + x) / 2
            val = 0
            for c in coeffs:
                val = val * u + c
            acc += w * val
        front = (tm / 2) ** (mp.mpf(n) - mp.mpf(a_exp.numerator) / a_exp.denominator)
        total = acc * front / mpmath.gamma(mp.mpf(n) - mp.mpf(a_exp.numerator) / a_exp.denominator)
    return Scalar.big(total, precision)


def eval_frac_expansion(
    e: FracExpansion, t: ScalarLike, precision: int = DEFAULT_PRECISION
) -> Scalar:
    """Sum c_k t^{e_k} at t > 0; powers via exp(e log t)."""
    check_precision(precision)
    t = positive_rational(t, "evaluation point")
    wp = precision + 16
    with working_precision(wp):
        logt = mp.log(fraction_to_mpf(t, wp))
        acc = mp.mpf(0)
        for c, x in zip(e._values_in(wp), e._exponents):
            acc += c * mp.exp(fraction_to_mpf(x, wp) * logt)
    return Scalar.big(acc, precision)
