"""Fractional operators on polynomials, their closed forms, and the oracle.

The central primitive is the power-rule ratio gamma(e+1)/gamma(e-a+1)
applied termwise: with a > 0 it is the derivative of t^e, with a < 0 the
integral of order -a.  Integer orders are computed as exact rational
falling factorials, so every operator collapses to the ordinary calculus
exactly when the order is an integer; non-integer orders evaluate the two
gammas in the float domain.

The quadrature oracle at the bottom integrates the defining formula
directly with a Gauss-Jacobi rule and shares no code path with the closed
forms above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath
from mpmath import mp

from .errors import CompositionMismatch, DegreeTooLow, DomainError
from .families import FamilyParams, Polynomial, family_numbers
from .gammafns import binomial, gamma, generalized_binomial, reciprocal_gamma
from .quadrature import gauss_jacobi_rule
from .scalars import DEFAULT_PRECISION, Scalar, ScalarLike, as_scalar, check_precision, working_precision

__all__ = [
    "CaputoOrder",
    "FracTerm",
    "FracExpansion",
    "caputo_power_rule",
    "caputo_derivative_poly",
    "rl_integral_poly",
    "rl_derivative_term",
    "caputo_by_composition",
    "composition_check",
    "leibniz_product",
    "caputo_closed_form",
    "caputo_quadrature_oracle",
    "eval_frac_expansion",
    "aligned_terms",
    "expansion_mismatches",
]

# exponents closer than this merge into one term
_EXPONENT_MERGE_TOL = Fraction(1, 10**30)


@dataclass(frozen=True)
class CaputoOrder:
    """Fractional order alpha > 0 with n the smallest integer >= alpha."""

    alpha: Scalar
    n: int

    def __init__(self, alpha: ScalarLike):
        a = as_scalar(alpha)
        if a <= 0:
            raise DomainError(f"fractional order must be positive, got {a}")
        n = int(math.ceil(a.as_fraction()))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "n", n)

    @property
    def is_integer(self) -> bool:
        return self.alpha.is_integer()


@dataclass(frozen=True)
class FracTerm:
    """coefficient * t^exponent."""

    coefficient: Scalar
    exponent: Scalar

    def is_zero(self) -> bool:
        return self.coefficient.is_zero()


class FracExpansion:
    """Finite sum of real-power terms, sorted by strictly increasing exponent."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[FracTerm]):
        buckets: list[list] = []
        for t in sorted(terms, key=lambda t: t.exponent.as_fraction()):
            if t.is_zero():
                continue
            e = t.exponent.as_fraction()
            if buckets and abs(e - buckets[-1][0]) < _EXPONENT_MERGE_TOL:
                buckets[-1][1] = buckets[-1][1] + t.coefficient
            else:
                buckets.append([e, t.coefficient, t.exponent])
        self._terms = tuple(
            FracTerm(c, e) for _, c, e in buckets if not c.is_zero()
        )

    @property
    def terms(self) -> tuple[FracTerm, ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def scale(self, factor: ScalarLike) -> "FracExpansion":
        f = as_scalar(factor)
        return FracExpansion(FracTerm(f * t.coefficient, t.exponent) for t in self._terms)

    def __add__(self, other: "FracExpansion") -> "FracExpansion":
        return FracExpansion(list(self._terms) + list(other._terms))

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __repr__(self):
        body = " + ".join(f"({t.coefficient})*t^({t.exponent})" for t in self._terms)
        return f"FracExpansion({body or '0'})"


def _gamma_ratio(top: Scalar, alpha: Scalar, precision: int) -> Scalar:
    """gamma(top+1)/gamma(top-alpha+1) with the entire-function convention.

    Integer alpha gives the exact rational falling factorial (or its
    reciprocal for negative alpha); a pole of the denominator gamma yields
    an exact zero.  Non-integer alpha goes through the float gammas.
    """
    if alpha.is_exact and alpha.is_integer() and top.is_exact:
        k = int(alpha)
        t = top.as_fraction()
        if k >= 0:
            prod = Fraction(1)
            for i in range(k):
                prod *= t - i
            return Scalar.exact(prod)
        prod = Fraction(1)
        for i in range(1, -k + 1):
            f = t + i
            if f == 0:
                raise DomainError(f"gamma ratio pole: top={top}, order={alpha}")
            prod *= f
        return Scalar.exact(Fraction(1) / prod)
    g_top = gamma(top + 1, precision)
    rg_bottom = reciprocal_gamma(top - alpha + 1, precision)
    return g_top * rg_bottom


def caputo_power_rule(j: int, ord: CaputoOrder, precision: int = DEFAULT_PRECISION) -> FracTerm:
    """Caputo derivative of t^j: zero for j < n, else the power-rule term."""
    check_precision(precision)
    if j < 0:
        raise DomainError(f"power must be nonnegative, got {j}")
    if j < ord.n:
        return FracTerm(as_scalar(0), as_scalar(0))
    js = as_scalar(j)
    coeff = _gamma_ratio(js, ord.alpha, precision)
    return FracTerm(coeff, js - ord.alpha)


def caputo_derivative_poly(
    q: Polynomial, ord: CaputoOrder, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """Termwise Caputo derivative of a polynomial in t."""
    check_precision(precision)
    terms = []
    for c, j in q.monomials():
        t = caputo_power_rule(j, ord, precision)
        if not t.is_zero():
            terms.append(FracTerm(c * t.coefficient, t.exponent))
    return FracExpansion(terms)


def rl_integral_poly(
    q: Polynomial, alpha: ScalarLike, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """Riemann-Liouville integral of order alpha > 0, termwise power rule."""
    check_precision(precision)
    a = as_scalar(alpha)
    if a <= 0:
        raise DomainError(f"integral order must be positive, got {a}")
    terms = []
    for c, j in q.monomials():
        coeff = _gamma_ratio(as_scalar(j), -a, precision)
        terms.append(FracTerm(c * coeff, as_scalar(j) + a))
    return FracExpansion(terms)


def rl_derivative_term(
    beta: ScalarLike, alpha: ScalarLike, precision: int = DEFAULT_PRECISION
) -> FracTerm:
    """Riemann-Liouville derivative of t^beta at order alpha (integral if alpha < 0)."""
    check_precision(precision)
    b = as_scalar(beta)
    a = as_scalar(alpha)
    if b <= -1:
        raise DomainError(f"exponent must exceed -1, got {b}")
    coeff = _gamma_ratio(b, a, precision)
    return FracTerm(coeff, b - a)


def _rl_derivative_expansion(e: FracExpansion, alpha: ScalarLike, precision: int) -> FracExpansion:
    out = []
    for t in e:
        d = rl_derivative_term(t.exponent, alpha, precision)
        out.append(FracTerm(t.coefficient * d.coefficient, d.exponent))
    return FracExpansion(out)


def aligned_terms(a: FracExpansion, b: FracExpansion) -> list[tuple[Fraction, Scalar, Scalar]]:
    """(exponent, coefficient in a, coefficient in b) over the union of the
    exponents, with an exact zero where one side has no term."""
    amap = {t.exponent.as_fraction(): t.coefficient for t in a}
    bmap = {t.exponent.as_fraction(): t.coefficient for t in b}
    zero = Scalar.exact(0)
    return [(e, amap.get(e, zero), bmap.get(e, zero)) for e in sorted(set(amap) | set(bmap))]


def expansion_mismatches(
    a: FracExpansion, b: FracExpansion, rel_tol: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """(exponent, relative error) pairs where the two expansions disagree."""
    out = []
    for e, ca, cb in aligned_terms(a, b):
        ca, cb = ca.as_fraction(), cb.as_fraction()
        rel = abs(ca - cb) / max(Fraction(1), abs(ca), abs(cb))
        if rel > rel_tol:
            out.append((e, rel))
    return out


def caputo_by_composition(
    q: Polynomial, ord: CaputoOrder, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """D^(n) applied to I^(n-alpha) of q: the Caputo derivative by the
    integrate-then-differentiate route, termwise."""
    check_precision(precision)
    if ord.is_integer:
        composed = FracExpansion(FracTerm(c, as_scalar(j)) for c, j in q.monomials())
    else:
        composed = rl_integral_poly(q, as_scalar(ord.n) - ord.alpha, precision)
    for _ in range(ord.n):
        composed = _rl_derivative_expansion(composed, 1, precision)
    return composed


def composition_check(
    q: Polynomial, ord: CaputoOrder, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """:func:`caputo_by_composition`, checked against the direct Caputo form.

    Returns the composed expansion when the two routes agree termwise;
    raises CompositionMismatch (with both expansions attached) when they
    differ, which is the honest outcome on constants and other inputs
    where the integral-then-differentiate composition is genuinely not the
    Caputo derivative.
    """
    composed = caputo_by_composition(q, ord, precision)
    direct = caputo_derivative_poly(q, ord, precision)
    offenders = expansion_mismatches(composed, direct, Fraction(1, 2 ** (precision - 48)))
    if offenders:
        raise CompositionMismatch(
            f"composed route disagrees with the direct Caputo derivative at "
            f"exponents {[str(e) for e, _ in offenders]}",
            composed,
            direct,
            offenders,
        )
    return composed


def leibniz_product(
    f: Polynomial, g: Polynomial, alpha: ScalarLike, precision: int = DEFAULT_PRECISION
) -> FracExpansion:
    """Product-rule expansion: sum_k binom(alpha,k) f^(k) D^(alpha-k) g.

    The sum over k stops at deg f because higher derivatives of f vanish.
    Equals the termwise RL derivative of the expanded product f*g.
    """
    check_precision(precision)
    a = as_scalar(alpha)
    if a <= 0:
        raise DomainError(f"order must be positive, got {a}")
    terms = []
    fk = f
    for k in range(f.degree + 1):
        w = generalized_binomial(a, k, precision)
        if not w.is_zero():
            for cf, i in fk.monomials():
                for cg, j in g.monomials():
                    d = rl_derivative_term(as_scalar(j), a - k, precision)
                    terms.append(
                        FracTerm(w * cf * cg * d.coefficient, as_scalar(i) + d.exponent)
                    )
        fk = fk.derivative()
        if fk.is_zero():
            break
    return FracExpansion(terms)


def _reciprocal_gamma_scalar(x: Scalar, precision: int) -> Scalar:
    """1/gamma(x) staying exact for integer x (zero at the poles)."""
    if x.is_exact and x.is_integer():
        v = int(x)
        if v <= 0:
            return Scalar.exact(0)
        return Scalar.exact(Fraction(1, math.factorial(v - 1)))
    return reciprocal_gamma(x, precision)


def caputo_closed_form(
    p: FamilyParams,
    m: int,
    ord: CaputoOrder,
    precision: int = DEFAULT_PRECISION,
    numbers: Sequence[Scalar] | None = None,
) -> FracExpansion:
    """Closed-form Caputo derivative of the degree-m family polynomial.

    The shared shape of theorems 4-6, with n = ceil(alpha):
    gamma(m+1)/gamma(m-n+1) * sum_k k! binom(m-n,k) N_{m-n-k}
    / gamma(n+k-alpha+1) * t^(k-alpha+n).  The numbers N_0..N_{m-n} default
    to family_numbers(p); passing them lets a caller reach them by another
    route (theorem 5's multinomial sums, or the verifier's pinned-index
    literal variant).
    """
    check_precision(precision)
    n = ord.n
    if m < n:
        raise DegreeTooLow(f"degree {m} below ceil(order) = {n}")
    if numbers is None:
        numbers = family_numbers(p, m - n, precision)
    pref = _gamma_ratio(as_scalar(m), as_scalar(n), precision)
    terms = []
    for k in range(m - n + 1):
        rg = _reciprocal_gamma_scalar(as_scalar(n + k + 1) - ord.alpha, precision)
        coeff = pref * math.factorial(k) * binomial(m - n, k) * numbers[m - n - k] * rg
        terms.append(FracTerm(coeff, as_scalar(k + n) - ord.alpha))
    return FracExpansion(terms)


def caputo_quadrature_oracle(
    q: Polynomial, ord: CaputoOrder, t: ScalarLike, precision: int = DEFAULT_PRECISION
) -> Scalar:
    """Evaluate the Caputo derivative of q at t by singular quadrature.

    Integrates q^(n)(s) (t-s)^(n-alpha-1) / gamma(n-alpha) over [0, t] with
    a Gauss-Jacobi rule whose weight absorbs the endpoint singularity.  The
    rule has (d + 2) // 2 + 1 nodes for d = deg(q^(n)): the exactness minimum
    ceil((d + 1) / 2) plus one guard node, so the polynomial factor is
    integrated exactly by construction.  Integer orders bypass to the
    ordinary derivative.
    """
    check_precision(precision)
    ts = as_scalar(t)
    if ts <= 0:
        raise DomainError(f"evaluation point must be positive, got {ts}")
    n = ord.n
    dq = q
    for _ in range(n):
        dq = dq.derivative()
    if ord.is_integer:
        return dq.evaluate(ts)
    if dq.is_zero():
        return Scalar.big(0, precision)
    wp = precision + 32
    a_exp = ord.alpha.as_fraction()
    weight_exp = Fraction(n) - a_exp - 1
    npoints = (dq.degree + 2) // 2 + 1
    nodes, weights = gauss_jacobi_rule(weight_exp, npoints, precision)
    with working_precision(wp):
        tm = ts.as_mpf(wp)
        acc = mp.mpf(0)
        for x, w in zip(nodes, weights):
            acc += w * dq.evaluate(Scalar(tm * (1 + x) / 2, wp)).value
        front = (tm / 2) ** (mp.mpf(n) - mp.mpf(a_exp.numerator) / a_exp.denominator)
        total = acc * front / mpmath.gamma(mp.mpf(n) - mp.mpf(a_exp.numerator) / a_exp.denominator)
    return Scalar.big(total, precision)


def eval_frac_expansion(
    e: FracExpansion, t: ScalarLike, precision: int = DEFAULT_PRECISION
) -> Scalar:
    """Sum c_k t^{e_k} at t > 0; powers via exp(e log t)."""
    check_precision(precision)
    ts = as_scalar(t)
    if ts <= 0:
        raise DomainError(f"evaluation point must be positive, got {ts}")
    wp = precision + 16
    with working_precision(wp):
        tm = ts.as_mpf(wp)
        logt = mp.log(tm)
        acc = mp.mpf(0)
        for term in e:
            acc += term.coefficient.as_mpf(wp) * mp.exp(term.exponent.as_mpf(wp) * logt)
    return Scalar.big(acc, precision)
