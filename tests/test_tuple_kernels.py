"""Each float kernel rounds as its reference loop of mpf operators does,
bit for bit, and reads no global precision.

Float containers hold libmp tuples, and every series and polynomial
kernel passes its precision to each libmp call; ``reference_loops`` spells
each kernel out as mpf operators inside a precision scope.  The values are
non-dyadic, so that every operation rounds, and some are made at half the
container's precision.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import fracpoly.families as families
import fracpoly.verify as verify
from fracpoly import clear_caches
from fracpoly.families import FamilyParams, Polynomial, family_numbers, family_polynomial, integral_over_unit_interval
from fracpoly.fractional import rl_derivative_term
from fracpoly.gammafns import reciprocal_gamma
from fracpoly.scalars import _PREC_LOCK, Coefficients, decimal_str
from fracpoly.series import TruncatedSeries, cauchy_product, reciprocal, series_add

import reference_loops as ref
from reference_loops import fraction_to_mpf, working_precision

PRECISIONS = st.sampled_from([64, 80, 333, 1024])
# an odd denominator of at least 3: the binary expansion does not end
non_dyadic = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6).map(lambda d: 2 * d + 1))
vectors = st.lists(non_dyadic, min_size=1, max_size=12)


def floats(values, prec):
    """The values as mpfs, every third one made at half the precision."""
    return [fraction_to_mpf(v, prec // 2 if k % 3 == 2 else prec) for k, v in enumerate(values)]


def tuples(values):
    return [v._mpf_ for v in values]


def cancelling(prec):
    """The coefficients of (x - 7/3)^5 at prec bits: near x = 7/3 Horner's
    sum cancels all but a few of its bits."""
    return floats([math.comb(5, k) * Fraction(-7, 3) ** (5 - k) for k in range(6)], prec)


@settings(max_examples=40, deadline=None)
@given(vectors, non_dyadic, PRECISIONS)
def test_polynomial_kernels_round_like_mpf_operator_loops(values, x, prec):
    for raw in (floats(values, prec), cancelling(prec)):
        q = Polynomial(raw, prec)
        for at in (x, Fraction(7, 3) + Fraction(1, 10**4)):
            assert q.evaluate(at)._mpf_ == ref.horner(raw, prec, at)._mpf_
        assert tuples(q.derivative()) == tuples(ref.derivative(raw, prec))
        assert tuples(q.antiderivative()) == tuples(ref.antiderivative(raw, prec))
        assert q.derivative().precision == q.antiderivative().precision == prec


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(non_dyadic, non_dyadic), min_size=1, max_size=12), non_dyadic, PRECISIONS)
def test_series_kernels_round_like_mpf_operator_loops(pairs, f, prec):
    x, y = floats([u for u, _ in pairs], prec), floats([v for _, v in pairs], prec)
    a, b = TruncatedSeries(x, prec), TruncatedSeries(y, prec)
    # tiny - a: the sum with a cancels all but the tiny part of each coefficient
    tiny = floats([Fraction(1, 3 * 2 ** (prec + k)) for k in range(len(x))], prec)
    with working_precision(prec):
        c = TruncatedSeries([t - u for u, t in zip(x, tiny)], prec)
    assert tuples(series_add(a, b)) == tuples(ref.series_add(x, y, prec))
    assert tuples(series_add(a, c)) == tuples(ref.series_add(x, list(c), prec))
    assert tuples(cauchy_product(a, b)) == tuples(ref.cauchy_product(x, y, prec))
    assert tuples(a.scale(f)) == tuples(ref.scale(x, prec, f))
    if x[0] != 0:
        assert tuples(reciprocal(a)) == tuples(ref.reciprocal(x, prec))


def odd_bits(n: int) -> int:
    """The significant bits of a positive integer: those of its odd part."""
    return (n >> ((n & -n).bit_length() - 1)).bit_length()


@settings(max_examples=20, deadline=None)
@given(non_dyadic.filter(bool), PRECISIONS)
def test_egf_rounds_each_factorial_before_it_multiplies(seed, prec):
    # once k! has more than prec bits, rounding it before or after the product differs
    order = next(k for k in range(1, 400) if odd_bits(math.factorial(k)) > prec) + 8
    raw = floats([seed * Fraction(k + 2, 2 * k + 3) for k in range(order + 1)], prec)
    s = TruncatedSeries(raw, prec)
    assert tuples(s.egf()) == tuples(ref.egf(raw, prec))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["bernoulli", "euler", "genocchi"]), st.sampled_from([Fraction(1, 2), Fraction(5, 3)]),
       st.sampled_from([1, Fraction(7, 5)]), st.integers(0, 8), non_dyadic, PRECISIONS)
def test_family_kernels_round_like_mpf_operator_loops(kind, alpha, lam, n, x, prec):
    # the binomial lift from the numbers, and the unit-interval integral
    p = FamilyParams(kind, alpha, lam)
    q = family_polynomial(p, n, prec)
    assert tuples(q) == tuples(ref.binomial_lift(list(family_numbers(p, n, prec)), prec))
    assert integral_over_unit_interval(p, n, x, prec)._mpf_ == ref.unit_interval(list(q), prec, x)._mpf_


@pytest.mark.parametrize("prec", [64, 80, 333, 1024])
def test_binomial_lift_rounds_each_binomial_before_it_multiplies(prec, monkeypatch):
    # numbers of any length stand in for the family's, so that the degree
    # reaches binomials of more than prec bits
    n = next(n for n in range(1, 2000) if odd_bits(math.comb(n, n // 2)) > prec) + 4
    raw = floats([Fraction(2 * k + 1, 6 * k + 9) for k in range(n + 1)], prec)
    monkeypatch.setattr(families, "family_numbers", lambda p, n, precision: Coefficients(raw, precision))
    q = families._family_polynomial(FamilyParams("euler", Fraction(1, 2)), n, prec)
    assert tuples(q) == tuples(ref.binomial_lift(raw, prec))


@pytest.mark.parametrize("prec", [64, 80, 333, 1024])
def test_power_rule_quotient_rounds_like_the_mpf_operator(prec):
    # a non-integer exponent: 1/gamma(b-a+1) over 1/gamma(b+1), one rounding;
    # b - a + 1 = -1 is a pole, where the exact zero is rounded first
    for b, a in ((Fraction(1, 3), Fraction(1, 2)), (Fraction(77, 4), Fraction(9, 4)), (Fraction(5, 2), Fraction(-3, 2)),
                 (Fraction(1, 3), Fraction(7, 3))):
        got, _ = rl_derivative_term(b, a, prec)
        with working_precision(prec):
            want = ref.raw_in(reciprocal_gamma(b - a + 1, prec), prec) / reciprocal_gamma(b + 1, prec)
        assert got._mpf_ == want._mpf_


@settings(max_examples=40, deadline=None)
@given(non_dyadic, st.integers(-450, 450), PRECISIONS)
def test_decimal_str_matches_the_mpf_scan_from_one_digit(q, e, prec):
    # |e| > 400 takes libmp's other parsing route
    for x in (fraction_to_mpf(q * Fraction(10) ** e, prec), fraction_to_mpf(q * Fraction(10) ** e, prec // 2),
              fraction_to_mpf(Fraction(10) ** (e // 8) + Fraction(1, 2 ** prec), prec)):
        assert decimal_str(x, prec) == ref.decimal_str(x, prec)
    assert decimal_str(mp.mpf(0), prec) == "0.0"


def test_decimal_str_holds_the_lock_where_to_str_reads_constant_memos(monkeypatch):
    # beyond 2^3500 libmp.to_str finds its power of ten with mpf_ln2 and
    # mpf_ln10, which read and fill mpmath's constant memos
    from mpmath.libmp import libelefun

    owned = []

    def watched(real):
        def call(*args, **kwargs):
            owned.append(_PREC_LOCK._is_owned())
            return real(*args, **kwargs)
        return call

    for name in ("mpf_ln2", "mpf_ln10"):
        monkeypatch.setattr(libelefun, name, watched(getattr(libelefun, name)))
    for q, prec in ((Fraction(7, 3) * Fraction(10) ** 1100, 128), (Fraction(-2, 9) / Fraction(10) ** 1100, 200)):
        x = fraction_to_mpf(q, prec)
        assert fraction_to_mpf(Fraction(decimal_str(x, prec)), prec)._mpf_ == x._mpf_
    assert owned and all(owned)


def kernel_results(prec: int) -> list:
    """Every converted kernel and decimal_str on prec-bit containers, as
    tuples and strings, from cold memos."""
    clear_caches()
    x = floats([Fraction(k * k - 7, 2 * k + 3) for k in range(12)], prec)
    a, b, q = TruncatedSeries(x, prec), TruncatedSeries(x[::-1], prec), Polynomial(x, prec)
    p = FamilyParams("euler", Fraction(2, 3), Fraction(7, 5))
    out = [c._values for c in (a.scale(Fraction(5, 7)), a.egf(), series_add(a, b), cauchy_product(a, b),
                               reciprocal(a), q.derivative(), q.antiderivative(), family_polynomial(p, 8, prec))]
    out.append([q.evaluate(Fraction(-7, 3))._mpf_, integral_over_unit_interval(p, 8, Fraction(1, 3), prec)._mpf_,
                rl_derivative_term(3, Fraction(1, 2), prec)[0]._mpf_,
                rl_derivative_term(Fraction(5, 2), Fraction(1, 3), prec)[0]._mpf_])
    out.append([(got._mpf_, want._mpf_) for got, want in verify._unit_interval(prec, [p], 3, 0)])
    out.append([decimal_str(v, prec) for v in x + list(a.egf())])
    return out


@pytest.mark.parametrize("prec", [128, 512])
def test_converted_kernels_ignore_the_global_precision(prec):
    want = kernel_results(prec)
    for global_prec in (53, 10, 3000):
        with _PREC_LOCK:
            saved = mp.prec
            mp.prec = global_prec
            try:
                got = kernel_results(prec)
            finally:
                mp.prec = saved
        assert got == want, global_prec
