"""Identity-verification suites: every structural identity becomes pass/fail.

A suite is a generator over a parameter grid.  Its registration declares
the grid's axes with their defaults; the runner narrows each one to what
RunConfig sets and hands the body the resolved values.  It yields one
comparison of two independent computation routes
at a time, ``(got, want)`` or ``(got, want, float_tol)``, where got and want
are two raw values (a value's type is its domain), two sequences of them
(containers or lists, compared index by index, the shorter one padded
with exact zeros) or two FracExpansions (compared exponent by exponent),
and returns the parameters its report shows.  One runner turns the
comparisons into a VerificationReport.  Error bookkeeping happens in
exact integer arithmetic (an exact value is a numerator over a
denominator, a float a dyadic rational), so reports are deterministic bit
for bit.

One tolerance policy covers every comparison: RunConfig.tolerance, when
set, applies to all of them; otherwise two exact values must agree exactly,
and a float on either side gets the float tolerance (the comparison's own,
else the suite's).  A report shows the largest tolerance applied.

The two ``*-literal`` suites re-check uncorrected variants of identities
that circulate with index slips (a wrong subscript in the unit-interval
integral, a frozen inner index in the family closed form); they are
expected to report the ``known-discrepancy`` verdict, and would report
``fail`` if the defect ever stopped reproducing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat, zip_longest
from typing import Callable, Iterator, Sequence

from .errors import DomainError
from .families import (
    FamilyKind,
    FamilyParams,
    Polynomial,
    check_compositions,
    family_numbers,
    family_polynomial,
    family_series,
    integral_over_unit_interval,
    multinomial_number_product,
)
from .fractional import (
    CaputoOrder,
    FracExpansion,
    aligned_terms,
    caputo_by_composition,
    caputo_closed_form,
    caputo_derivative_poly,
    caputo_quadrature_points,
    eval_frac_expansion,
    leibniz_product,
    rl_derivative_term,
)
from .mittag import MLParams, _subtracted_exponential, ml_eval, ml_one_m_closed, ml_series
from .scalars import (DEFAULT_PRECISION, EXACT_TYPES, Coefficients, as_rational, check_precision, domain_scope,
                      mpf_to_pair, raw_in, working_precision)
from .series import cauchy_product, exp_series
from mpmath import mp

__all__ = [
    "RunConfig",
    "VerificationReport",
    "SUITES",
    "unread_fields",
    "check_grids",
    "run_suite",
    "bernoulli_oracle",
    "euler_at_zero_oracle",
    "genocchi_oracle",
]


@dataclass
class RunConfig:
    """Narrowing knobs for the suite grids; None keeps the suite default."""

    family: str | None = None
    alpha: Fraction | None = None
    lam: Fraction | None = None
    h: int | None = None
    max_degree: int | None = None
    orders: tuple[Fraction, ...] | None = None
    precision: int = DEFAULT_PRECISION
    tolerance: Fraction | None = None


@dataclass
class VerificationReport:
    identity: str
    params: dict
    comparisons: int
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    verdict: str  # pass | fail | known-discrepancy


def _tol_identity(precision: int) -> Fraction:
    # 2^(48-p): below 1e-24 at the default 128 bits, and scaling with the
    # arithmetic instead of demanding digits the precision cannot express
    return Fraction(1, 2 ** (precision - 48))


def _tol_oracle(precision: int) -> Fraction:
    # the quadrature oracle against an evaluated expansion: 1e-10, or the
    # identity tolerance where that is tighter (from 82 bits)
    return min(Fraction(1, 10**10), _tol_identity(precision))


def _tol_ml(precision: int) -> Fraction:
    # Mittag-Leffler sums, each settled to ml_eval's 2^(24-p): 1e-12, or
    # 2^(28-p) where that is tighter (from 68 bits)
    return min(Fraction(1, 10**12), Fraction(1, 2 ** (precision - 28)))


def _tol_truncation(precision: int) -> Fraction:
    # bounded by the order-60 truncation tail, not by arithmetic precision
    return Fraction(1, 10**14)


_ZERO = Fraction(0)
_EXACT_ZERO = (0, 1, True)


def _entry(v) -> tuple[int, int, bool]:
    """A raw value as the runner compares it: (numerator, denominator,
    exact), a float's pair read off its mpf by :func:`mpf_to_pair`."""
    if isinstance(v, EXACT_TYPES):
        return v.numerator, v.denominator, True
    return (*mpf_to_pair(v), False)


def _entries(side) -> list:
    """The entries of a container, an exact one's read off its numerators
    over D, or of a sequence of raw values."""
    if not isinstance(side, Coefficients):
        return [_entry(v) for v in side]
    if side.precision is None:
        return list(zip(side._values, repeat(side._den), repeat(True)))
    return [_entry(v) for v in side._values]


class _Check:
    """Error statistics of one suite run, exact: each error is a ratio of
    integers, the running maxima are kept as (numerator, denominator) pairs
    compared by cross-multiplying, and each is read as one Fraction."""

    def __init__(self, override: Fraction | None):
        self.override = override
        self.comparisons = 0
        self.failures = 0
        self._abs = self._rel = (0, 1)
        self.max_tol = _ZERO if override is None else override
        self._last_tol = self.max_tol  # the last tolerance applied, already in max_tol

    @property
    def max_abs(self) -> Fraction:
        return Fraction(*self._abs)

    @property
    def max_rel(self) -> Fraction:
        return Fraction(*self._rel)

    def values(self, got, want, float_tol: Fraction):
        """One comparison of two entries (see :func:`_entry`)."""
        (a, da, exact_got), (b, db, exact_want) = got, want
        exact = exact_got and exact_want
        # the tolerance policy: an override applies to every comparison;
        # otherwise two exact values must agree exactly, and a float on
        # either side gets the float tolerance
        if self.override is not None:
            tol = self.override
        else:
            tol = _ZERO if exact else float_tol
        self.comparisons += 1
        if tol is not self._last_tol:
            self._last_tol = tol
            if tol > self.max_tol:
                self.max_tol = tol
        if exact and a * db == b * da:
            return  # a zero error moves no maximum and fails no tolerance >= 0
        # over the common denominator da*db come the error and
        # max(1, |got|, |want|)
        err, den = abs(a * db - b * da), da * db
        scale = max(den, abs(a) * db, abs(b) * da)
        if err * self._abs[1] > self._abs[0] * den:
            self._abs = (err, den)
        if err * self._rel[1] > self._rel[0] * scale:
            self._rel = (err, scale)
        if err * tol.denominator > tol.numerator * scale:
            self.failures += 1


def _compared(got, want):
    """The entry pairs one yielded comparison stands for."""
    if isinstance(got, FracExpansion):
        x, y = _entries(got), _entries(want)
        return [(_EXACT_ZERO if i is None else x[i], _EXACT_ZERO if j is None else y[j])
                for _, i, j in aligned_terms(got, want)]
    if isinstance(got, (Coefficients, list)):
        return zip_longest(_entries(got), _entries(want), fillvalue=_EXACT_ZERO)
    return ((_entry(got), _entry(want)),)


def _run(identity: str, comparisons: Iterator, suite_tol: Fraction, literal: bool,
         cfg: RunConfig) -> VerificationReport:
    """Drive one suite's comparisons and turn them into its report.

    A grid that yields no comparison checked nothing, so it raises
    DomainError instead of reporting a verdict.
    """
    check = _Check(None if cfg.tolerance is None else Fraction(cfg.tolerance))
    while True:
        try:
            item = next(comparisons)
        except StopIteration as done:
            params = done.value
            break
        got, want, tol = item if len(item) == 3 else (*item, suite_tol)
        for a, b in _compared(got, want):
            check.values(a, b, tol)
    if not check.comparisons:
        raise DomainError(f"suite {identity} makes no comparison on this grid: {params}")
    if literal:
        verdict = "known-discrepancy" if check.failures else "fail"
    else:
        verdict = "fail" if check.failures else "pass"
    return VerificationReport(
        identity=identity,
        params=params,
        comparisons=check.comparisons,
        max_abs_err=float(check.max_abs),
        max_rel_err=float(check.max_rel),
        tolerance=float(check.max_tol),
        verdict=verdict,
    )


SUITES: dict[str, Callable[[RunConfig], VerificationReport]] = {}
# the narrowing axes each suite declares, with their defaults
_AXES: dict[str, dict] = {}
_NARROWING = ("family", "alpha", "lam", "h", "max_degree", "orders")
_CONVERT = {"family": FamilyKind, "h": int}  # every other grid holds Fractions


def _family_grid(kinds, alphas, lams) -> list[FamilyParams]:
    return [FamilyParams(kind, a, lam) for kind in kinds for a in alphas for lam in lams]


def _resolve(axes: dict, families: Sequence[FamilyParams] | None, cfg: RunConfig) -> dict:
    """Each declared axis as RunConfig narrows it (one value, or a tuple of
    them), else at its default; a grid comes out as a list of converted
    values, max_degree as one int.  With ``families`` declared, the family,
    alpha and lam axes become one ``families`` grid: their product once one
    of them is narrowed, else ``families`` itself."""
    out = {}
    for name, default in axes.items():
        narrowed = getattr(cfg, name)
        if name == "max_degree":
            out[name] = default if narrowed is None else narrowed
            continue
        if narrowed is None:
            narrowed = default
        elif not isinstance(narrowed, tuple):
            narrowed = (narrowed,)
        out[name] = [_CONVERT.get(name, as_rational)(v) for v in narrowed]
    if families is not None:
        product = _family_grid(out.pop("family"), out.pop("alpha"), out.pop("lam"))
        narrowed = any(getattr(cfg, f) is not None for f in ("family", "alpha", "lam"))
        out["families"] = product if narrowed else list(families)
    return out


def _suite(identity: str, float_tol: Callable[[int], Fraction] = _tol_identity, literal: bool = False,
           families: Sequence[FamilyParams] | None = None, **axes):
    """Register a comparison generator as the suite ``identity``.

    ``axes`` declares the narrowing fields of RunConfig the suite reads,
    each with its default grid (FamilyKind for every kind; an int for
    max_degree).  The body is called with the precision and each axis
    resolved by :func:`_resolve`; ``families`` turns the family, alpha and
    lam axes into one grid of FamilyParams there.  ``float_tol`` maps the
    precision to the suite's float tolerance; ``literal`` marks a suite
    expected to report ``known-discrepancy``.
    """

    def register(body):
        _AXES[identity] = axes
        SUITES[identity] = lambda cfg: _run(
            identity, body(cfg.precision, **_resolve(axes, families, cfg)), float_tol(cfg.precision), literal, cfg)
        return body

    return register


def unread_fields(names: Sequence[str], cfg: RunConfig) -> list[str]:
    """The narrowing fields set in ``cfg`` that none of the named suites declares."""
    read = set().union(*(_AXES[SUITE_ALIASES.get(n, n)] for n in names))
    return [f for f in _NARROWING if getattr(cfg, f) is not None and f not in read]


def check_grids(names: Sequence[str], cfg: RunConfig) -> None:
    """Raise DomainError if a named suite's largest multinomial sum is over
    the composition bound, so that the refusal comes before the first suite
    runs: higher-order sums through index max_degree, theorem5 through the
    top index of its closed forms."""
    for name in names:
        key = SUITE_ALIASES.get(name, name)
        if key not in ("higher-order", "theorem5"):
            continue
        axes = _resolve(_AXES[key], None, cfg)
        top = axes["max_degree"]
        if key == "theorem5":
            top = _closed_form_top(axes["orders"], top)
        if top >= 0:
            for h in axes["h"]:
                check_compositions(top, h)


# -- independent recurrence oracles (no generating-function machinery) -----


def bernoulli_oracle(max_index: int) -> list[Fraction]:
    """B_0..B_N from sum_{k<=n} binom(n+1,k) B_k = 0 with B_0 = 1."""
    out = [Fraction(1)]
    for n in range(1, max_index + 1):
        s = Fraction(0)
        for k in range(n):
            s += math.comb(n + 1, k) * out[k]
        out.append(-s / (n + 1))
    return out


def euler_at_zero_oracle(max_index: int) -> list[Fraction]:
    """Euler polynomial values at 0 via 2(1 - 2^{n+1}) B_{n+1} / (n+1)."""
    bern = bernoulli_oracle(max_index + 1)
    return [
        Fraction(2) * (1 - 2 ** (n + 1)) * bern[n + 1] / (n + 1)
        for n in range(max_index + 1)
    ]


def genocchi_oracle(max_index: int) -> list[Fraction]:
    """Genocchi numbers via G_n = 2(1 - 2^n) B_n."""
    bern = bernoulli_oracle(max_index)
    return [Fraction(2) * (1 - 2 ** n) * bern[n] for n in range(max_index + 1)]


_ORACLES = {
    FamilyKind.BERNOULLI: bernoulli_oracle,
    FamilyKind.EULER: euler_at_zero_oracle,
    FamilyKind.GENOCCHI: genocchi_oracle,
}


# -- suites -----------------------------------------------------------------


def _top_series(families: Sequence[FamilyParams], top: int, precision: int) -> Sequence[FamilyParams]:
    """Build each family's number series through ``top`` once, before the
    polynomials below it are built in ascending degree: each then reads a
    prefix of the cached series, which no shorter one replaces."""
    for p in families:
        family_series(p, top, precision)
    return families


def _classical(family, n_max: int, precision: int):
    for kind in family:
        yield family_numbers(FamilyParams(kind, 1, 1), n_max, precision), _ORACLES[kind](n_max)


@_suite("classical-numbers", family=FamilyKind, max_degree=24)
def suite_classical_numbers(precision, family, max_degree):
    """Family numbers at alpha = lambda = 1 against the recurrence oracles."""
    yield from _classical(family, max_degree, precision)
    return {"max_index": max_degree}


@_suite("theorem1", family=FamilyKind, alpha=(1, 2, 3), lam=(Fraction(1, 2), 1, 2), max_degree=16)
def suite_theorem1(precision, family, alpha, lam, max_degree):
    """Binomial-sum polynomial equals the e^{xz}-multiplied series extraction."""
    for p in _family_grid(family, alpha, lam):
        series = family_series(p, max_degree, precision)
        polys = [family_polynomial(p, n, precision) for n in range(max_degree + 1)]
        for x in range(max_degree + 1):
            lifted = cauchy_product(series, exp_series(x, max_degree)).egf()
            yield [polys[n].evaluate(x) for n in range(x, max_degree + 1)], lifted[x:]
    return {"max_degree": max_degree, "alphas": [str(a) for a in alpha], "lambdas": [str(l) for l in lam]}


@_suite("appell", family=FamilyKind, alpha=(1, 2, 3), lam=(Fraction(1, 2), 1, 2, 3), max_degree=16)
def suite_appell(precision, family, alpha, lam, max_degree):
    """d/dx P_n = n P_{n-1} coefficientwise."""
    for p in _top_series(_family_grid(family, alpha, lam), max_degree, precision):
        polys = [family_polynomial(p, n, precision) for n in range(max_degree + 1)]
        for n in range(1, max_degree + 1):
            yield polys[n].derivative(), polys[n - 1].scale(n)
    return {"max_degree": max_degree, "alphas": [str(a) for a in alpha], "lambdas": [str(l) for l in lam]}


_THEOREM3_AXES = {"family": FamilyKind, "alpha": (1, 2), "lam": (1, 2), "max_degree": 12}
_THEOREM3_XS = (0, Fraction(1, 2), -1, 3)


def _unit_interval(precision, families, n_max: int, lag: int):
    """The integral of P_n over [x, x+1] against (P_{n+1}(x+1) - P_{n+1-lag}(x)) / (n+1)."""
    for p in _top_series(families, n_max + 1, precision):
        polys = [family_polynomial(p, n, precision) for n in range(n_max + 2)]
        for n in range(n_max + 1):
            for x in _THEOREM3_XS:
                prec = polys[n + 1].precision
                with domain_scope(prec):
                    want = (polys[n + 1].evaluate(x + 1) - polys[n + 1 - lag].evaluate(x)) / raw_in(n + 1, prec)
                yield integral_over_unit_interval(p, n, x, precision), want


@_suite("theorem3", **_THEOREM3_AXES)
def suite_theorem3(precision, family, alpha, lam, max_degree):
    """Unit-interval integral equals (P_{n+1}(x+1) - P_{n+1}(x)) / (n+1)."""
    yield from _unit_interval(precision, _family_grid(family, alpha, lam), max_degree, 0)
    return {"max_degree": max_degree, "alphas": [str(a) for a in alpha], "lambdas": [str(l) for l in lam]}


@_suite("theorem3-literal", literal=True, **_THEOREM3_AXES)
def suite_theorem3_literal(precision, family, alpha, lam, max_degree):
    """The printed form with P_n in the subtrahend; must fail somewhere."""
    n_max = min(max_degree, 3)
    yield from _unit_interval(precision, _family_grid(family, alpha, lam), n_max, 1)
    return {"max_degree": n_max}


@_suite("eq5", float_tol=_tol_ml)
def suite_eq5(precision):
    """Series evaluation against the subtracted-exponential closed forms."""
    zs = [Fraction(1, 2), Fraction(-1, 2), 1, -1, 2]
    for m in range(2, 7):
        for z in zs:
            yield ml_eval(MLParams(1, m), z, precision=precision), ml_one_m_closed(m, z, precision)
        # cancellation fallback region: compare against a high-precision
        # direct subtraction, which is only trustworthy with extra bits
        z_small, wp = Fraction(1, 10**6), precision + 200
        yield ml_one_m_closed(m, z_small, precision=precision), _subtracted_exponential(m, z_small, wp)
    return {"m": "2..6", "z": [str(z) for z in zs] + ["1/10^6"]}


@_suite("ml-consistency", float_tol=_tol_truncation)
def suite_ml_consistency(precision):
    """Truncated-series partial sums agree with adaptive evaluation."""
    order = 60
    zs = [Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, -2]
    for a in (Fraction(1, 2), 1, Fraction(3, 2), 2):
        for b in (1, 2, 3):
            p = MLParams(a, b)
            series = ml_series(p, order, precision)
            prec = series.precision
            # ml_eval's default 2^(24-p) is 9.1e-13 at 64 bits, above the
            # truncation tolerance; 2^(14-p) is below it from 64 bits up and
            # above the 2^(12-p) floor ml_eval accepts
            tol = Fraction(1, 2 ** (precision - 14))
            # an exact series is summed as a polynomial, by one integer Horner pass
            exact = Polynomial(series) if prec is None else None
            for z in zs:
                if exact is not None:
                    acc = exact.evaluate(z)
                else:
                    with domain_scope(prec):
                        acc = sum(c * raw_in(Fraction(z) ** k, prec) for k, c in enumerate(series))
                yield acc, ml_eval(p, z, tol=tol, precision=precision)
    return {"order": order}


@_suite("mleval-exp", float_tol=_tol_ml)
def suite_mleval_exp(precision):
    """E_{1,1} equals the exponential on a grid in [-2, 2]."""
    p = MLParams(1, 1)
    for num in range(-8, 9):
        z = Fraction(num, 4)
        got = ml_eval(p, z, precision=precision)
        with working_precision(precision + 16):
            ref = mp.mpf(mp.exp(mp.mpf(z.numerator) / z.denominator), prec=precision)
        yield got, ref
    return {"z": "-2..2 step 1/4"}


@_suite("eq8", orders=(Fraction(3, 10), Fraction(1, 2), Fraction(3, 2)), max_degree=12)
def suite_eq8(precision, orders, max_degree):
    """Integrate-then-differentiate composition equals the direct operator."""
    for a in orders:
        ord_ = CaputoOrder(a)
        for j in range(ord_.n, max_degree + 1):
            mono = Polynomial([0] * j + [1])
            yield caputo_by_composition(mono, ord_, precision), caputo_derivative_poly(mono, ord_, precision)
    return {"max_degree": max_degree, "orders": [str(a) for a in orders]}


@_suite("eq10", orders=(Fraction(1, 2), Fraction(3, 2)), max_degree=8)
def suite_eq10(precision, orders, max_degree):
    """Product-rule expansion equals the direct derivative of the product."""
    for a in orders:
        for i in range(max_degree + 1):
            for j in range(max_degree + 1 - i):
                f = Polynomial([0] * i + [1])
                g = Polynomial([0] * j + [1])
                got = leibniz_product(f, g, a, precision)
                yield got, FracExpansion([rl_derivative_term(i + j, a, precision)], precision)
    return {"max_total_degree": max_degree, "orders": [str(a) for a in orders]}


_CLOSED_FORM_ORDERS = (Fraction(3, 10), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
_EVAL_POINTS = (Fraction(1, 2), 1, 2)


def _closed_form_top(orders, m_max: int) -> int:
    """The largest number index the closed forms through degree m_max read:
    N_(m - ceil(a)) at m = m_max and the least ceil(a)."""
    return m_max - min(CaputoOrder(a).n for a in orders)


def _closed_forms(precision: int, families: Sequence[FamilyParams], orders, m_max: int, numbers=None):
    """Each closed form against the termwise operator, coefficientwise at the
    float-identity tolerance, and against the quadrature oracle at
    _EVAL_POINTS.  ``numbers(p, top)``, when given, supplies N_0..N_top;
    it is read once per family, through :func:`_closed_form_top`."""
    tol = _tol_identity(precision)
    for p in _top_series(families, m_max, precision):
        table = None if numbers is None else numbers(p, _closed_form_top(orders, m_max))
        for a in orders:
            ord_ = CaputoOrder(a)
            for m in range(ord_.n, m_max + 1):
                closed = caputo_closed_form(p, m, ord_, precision, table)
                poly = family_polynomial(p, m, precision)
                yield closed, caputo_derivative_poly(poly, ord_, precision), tol
                for t, want in zip(_EVAL_POINTS, _oracle_values(p, m, ord_, precision)):
                    yield eval_frac_expansion(closed, t, precision), want


@lru_cache(maxsize=512)
def _oracle_values(p: FamilyParams, m: int, ord_: CaputoOrder, precision: int) -> tuple:
    """The quadrature values at _EVAL_POINTS of the Caputo derivative of
    the degree-m polynomial.  theorem5 and theorem6 ask again for families
    that theorem4 and theorem5 checked; the key fixes every bit, so a hit
    returns the values of a fresh call, and the memo holds only finished
    values."""
    poly = family_polynomial(p, m, precision)
    return tuple(caputo_quadrature_points(poly, ord_, _EVAL_POINTS, precision))


@_suite("theorem4", float_tol=_tol_oracle, lam=(2, 3), orders=_CLOSED_FORM_ORDERS, max_degree=8)
def suite_theorem4(precision, lam, orders, max_degree):
    """Closed-form Caputo derivative of the lambda-weighted Bernoulli family."""
    families = [FamilyParams(FamilyKind.BERNOULLI, 1, l) for l in lam]
    yield from _closed_forms(precision, families, orders, max_degree)
    return {"lambdas": [str(l) for l in lam], "orders": [str(a) for a in orders], "max_degree": max_degree}


@_suite("theorem5", float_tol=_tol_oracle, lam=(1, 2, 3), h=(1, 2), orders=_CLOSED_FORM_ORDERS,
        max_degree=8)
def suite_theorem5(precision, lam, h, orders, max_degree):
    """Higher-order closed form with the multinomial convolution inside."""
    families = [FamilyParams(FamilyKind.BERNOULLI, 1, l, hh) for l in lam for hh in h]

    def multinomial_numbers(p, top):
        return Coefficients([multinomial_number_product(p.lam, p.h, r) for r in range(top + 1)])

    yield from _closed_forms(precision, families, orders, max_degree, multinomial_numbers)
    return {
        "lambdas": [str(l) for l in lam],
        "h": h,
        "orders": [str(a) for a in orders],
        "max_degree": max_degree,
    }


@_suite("theorem6", float_tol=_tol_oracle, family=FamilyKind, alpha=(1,), lam=(2, 3),
        orders=_CLOSED_FORM_ORDERS, max_degree=8, families=[
            FamilyParams(FamilyKind.BERNOULLI, 1, 2),
            FamilyParams(FamilyKind.EULER, 1, 2),
            FamilyParams(FamilyKind.EULER, 1, 3),
            FamilyParams(FamilyKind.GENOCCHI, 1, 2),
            FamilyParams(FamilyKind.GENOCCHI, 1, 3),
            FamilyParams(FamilyKind.BERNOULLI, 2, 2),
            FamilyParams(FamilyKind.EULER, 1, 1),
            FamilyParams(FamilyKind.GENOCCHI, 1, 1),
            FamilyParams(FamilyKind.BERNOULLI, 1, 1),
        ])
def suite_theorem6(precision, families, orders, max_degree):
    """Corrected-index closed form for all three family kinds."""
    yield from _closed_forms(precision, families, orders, max_degree)
    return {
        "families": [f"{p.kind.value}(alpha={p.alpha},lambda={p.lam})" for p in families],
        "orders": [str(a) for a in orders],
        "max_degree": max_degree,
    }


@_suite("theorem6-literal", literal=True)
def suite_theorem6_literal(precision):
    """The printed fixed-index variant; reproduces the documented defect."""
    p = FamilyParams(FamilyKind.EULER, 1, 2)
    ord_ = CaputoOrder(Fraction(1, 2))
    nums = family_numbers(p, ord_.n, precision)
    for m in (2, 3, 4):
        pinned = Coefficients([nums[ord_.n]] * (m - ord_.n + 1), nums.precision)
        literal = caputo_closed_form(p, m, ord_, precision, pinned)
        yield literal, caputo_derivative_poly(family_polynomial(p, m, precision), ord_, precision)
    return {"family": "euler(alpha=1,lambda=2)", "order": "1/2"}


@_suite("specialization", family=FamilyKind, lam=(2, 3, Fraction(1, 2)), max_degree=24)
def suite_specialization(precision, family, lam, max_degree):
    """lambda-weighted closed forms and the classical reduction, exactly."""
    for l in lam:
        if l == 1:
            raise DomainError(
                "specialization needs lambda != 1: B_1(lambda) = 1/(lambda - 1) has a pole at lambda = 1"
            )
        nums = list(family_numbers(FamilyParams(FamilyKind.BERNOULLI, 1, l), 2, precision))
        yield nums[0], 0
        yield nums[1], 1 / (l - 1)
        yield nums[2], -2 * l / (l - 1) ** 2
    yield from _classical(family, max_degree, precision)
    return {"lambdas": [str(l) for l in lam], "max_index": max_degree}


@_suite("higher-order", lam=(1, 2), h=(1, 2, 3, 4), max_degree=10)
def suite_higher_order(precision, lam, h, max_degree):
    """Multinomial composition sum equals the h-fold convolution, exactly."""
    for l in lam:
        for hh in h:
            nums = family_numbers(FamilyParams(FamilyKind.BERNOULLI, 1, l, hh), max_degree, precision)
            yield [multinomial_number_product(l, hh, r) for r in range(max_degree + 1)], nums
    return {"h": h, "max_index": max_degree}


@_suite("genocchi-euler", alpha=(1, 2), lam=(1, 2, 3), max_degree=16)
def suite_genocchi_euler(precision, alpha, lam, max_degree):
    """G_n(x) = n E_{n-1}(x) coefficientwise (z * the Euler generator)."""
    for a in alpha:
        for l in lam:
            pg = FamilyParams(FamilyKind.GENOCCHI, a, l)
            pe = FamilyParams(FamilyKind.EULER, a, l)
            _top_series([pg, pe], max_degree, precision)
            for n in range(1, max_degree + 1):
                yield family_polynomial(pg, n, precision), family_polynomial(pe, n - 1, precision).scale(n)
    return {"max_degree": max_degree}


# aliases used in build-contract examples
SUITE_ALIASES = {
    "theorem2": "appell",
}


def run_suite(name: str, cfg: RunConfig | None = None) -> VerificationReport:
    cfg = cfg or RunConfig()
    check_precision(cfg.precision)
    key = SUITE_ALIASES.get(name, name)
    if key not in SUITES:
        raise KeyError(name)
    if cfg.tolerance is not None and cfg.tolerance < 0:
        raise DomainError(f"tolerance must be nonnegative, got {cfg.tolerance}")
    return SUITES[key](cfg)
