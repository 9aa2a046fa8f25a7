import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from fracpoly.errors import DomainError
from fracpoly.scalars import domain_scope, fraction_to_mpf, join_precision, mpf_to_fraction, raw_in, working_precision
from fracpoly.series import (
    TruncatedSeries,
    cauchy_product,
    exp_series,
    reciprocal,
    series_add,
)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def ts(*coeffs):
    return TruncatedSeries(coeffs)


def egf(a, n):
    """n! times the ordinary coefficient: the value attached to z^n/n!."""
    return list(a.egf())[n]


def times_exp(a, x):
    """a(z) e^{x z} truncated at the order of a."""
    return cauchy_product(a, exp_series(x, a.order))


def bernoulli_recurrence(n_max):
    """Independent oracle: sum_{k<=n} binom(n+1,k) B_k = 0."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(Fraction(math.comb(n + 1, k)) * out[k] for k in range(n))
        out.append(-s / (n + 1))
    return out


def test_series_add_examples():
    assert series_add(ts(1, 1), ts(1, -1)) == ts(2, 0)
    a = ts(3, Fraction(1, 2), -1)
    assert series_add(a, TruncatedSeries.constant(0, 2)) == a
    assert series_add(ts(1, 1, 1), ts(0, 0, 1)) == ts(1, 1, 2)


def test_series_add_order_mismatch():
    with pytest.raises(DomainError, match="orders differ: 1 vs 2"):
        series_add(ts(1, 2), ts(1, 2, 3))


def test_cauchy_product_examples():
    assert cauchy_product(ts(1, 1, 0), ts(1, 1, 0)) == ts(1, 2, 1)
    a = ts(2, -3, Fraction(5, 7))
    assert cauchy_product(a, TruncatedSeries.constant(1, 2)) == a
    # e^z * e^z = e^{2z}: ordinary coefficients 2^k / k!
    e = exp_series(1, 4)
    prod = cauchy_product(e, e)
    for k in range(5):
        assert list(prod)[k] == Fraction(2 ** k, math.factorial(k))


def test_reciprocal_examples():
    geom = reciprocal(ts(1, -1, 0, 0, 0))
    assert geom == ts(1, 1, 1, 1, 1)
    assert reciprocal(TruncatedSeries.constant(1, 3)) == TruncatedSeries.constant(1, 3)
    a = ts(1, 2, 1, 0, 0)
    r = reciprocal(a)
    # multiply-back oracle
    assert cauchy_product(a, r) == TruncatedSeries.constant(1, 4)
    assert r == ts(1, -2, 3, -4, 5)


def test_reciprocal_zero_constant():
    with pytest.raises(DomainError, match="cannot invert a series with zero constant term"):
        reciprocal(ts(0, 1, 2))


def test_shift_down_refusals():
    with pytest.raises(DomainError, match=r"series has valuation < 2, cannot divide by z\^2"):
        ts(0, 1, 2).shift_down(2)
    with pytest.raises(DomainError, match="cannot shift a series of order 2 down by 3"):
        ts(0, 0, 0).shift_down(3)
    assert ts(0, 0, 5).shift_down(2) == ts(5)


def bernoulli_generating_series(n):
    """z / (e^z - 1) through z^n: the reciprocal of (e^z - 1) / z."""
    return reciprocal(TruncatedSeries([Fraction(1, math.factorial(k + 1)) for k in range(n + 1)]))


def test_divide_bernoulli_generating_series():
    # z / (e^z - 1): EGF coefficients are the Bernoulli numbers
    n = 12
    q = bernoulli_generating_series(n)
    assert q.order == n
    oracle = bernoulli_recurrence(n)
    for k in range(n + 1):
        assert egf(q, k) == oracle[k]


def test_divide_scaled_argument():
    # 2z / (e^{2z} - 1) = 1 / ((e^{2z} - 1) / 2z): EGF coefficients 2^n B_n
    n = 8
    den = TruncatedSeries([Fraction(2 ** k, math.factorial(k + 1)) for k in range(n + 1)])
    q = reciprocal(den)
    # multiply-back oracle: (e^{2z} - 1) = 2z * den, so q * (e^{2z} - 1) = 2z
    e2 = TruncatedSeries([0] + [Fraction(2 ** k, math.factorial(k)) for k in range(1, n + 2)])
    back = cauchy_product(TruncatedSeries(list(q) + [0]), e2)
    assert back == ts(0, 2, *[0] * n)
    assert egf(q, 0) == 1
    assert egf(q, 1) == -1
    oracle = bernoulli_recurrence(n)
    for k in range(n + 1):
        assert egf(q, k) == 2 ** k * oracle[k]


def test_multiply_exp_examples():
    one = TruncatedSeries.constant(1, 5)
    assert times_exp(one, Fraction(3)) == exp_series(3, 5)
    a = ts(2, -1, Fraction(1, 3))
    assert times_exp(a, 0) == a
    # B_1(1) = 1/2 via the EGF of z/(e^z-1) times e^z
    shifted = times_exp(bernoulli_generating_series(6), 1)
    assert egf(shifted, 1) == Fraction(1, 2)


def test_egf_coefficient_examples():
    e = exp_series(1, 8)
    assert egf(e, 7) == 1
    assert egf(TruncatedSeries.constant(0, 5), 3) == 0
    assert len(list(e.egf())) == 9 and all(c == 1 for c in e.egf())
    # in a float domain, k! is rounded to the precision before it multiplies
    f = TruncatedSeries([fraction_to_mpf(Fraction(1, 3), 64)] * 25, 64)
    with working_precision(64):
        want = list(f)[24] * mp.mpf(math.factorial(24))
    assert f.egf().precision == 64 and egf(f, 24)._mpf_ == want._mpf_


def joined_values(*series):
    """The raw coefficient values of the series in their joined domain, and its precision."""
    prec = join_precision(*[s.precision for s in series])
    return [[raw_in(c, prec) for c in s] for s in series], prec


def loop_product(a, b):
    """Reference: the Cauchy product one raw-value operation at a time."""
    (x, y), prec = joined_values(a, b)
    out = []
    with domain_scope(prec):
        for n in range(len(x)):
            s = 0
            for k in range(n + 1):
                s = s + x[k] * y[n - k]
            out.append(s)
    return out, prec


def loop_reciprocal(a):
    """Reference: the reciprocal recurrence one raw-value operation at a time."""
    (x,), prec = joined_values(a)
    with domain_scope(prec):
        inv0 = 1 / x[0]
        out = [inv0]
        for n in range(1, len(x)):
            s = 0
            for k in range(1, n + 1):
                s = s + x[k] * out[n - k]
            out.append((0 - inv0) * s)
    return out, prec


def same_bits(got, want, prec):
    """The series got holds the raw values want in the domain prec, bit for bit."""
    return got.precision == prec and [mpf_to_fraction(c) for c in got] == [mpf_to_fraction(v) for v in want]


@pytest.mark.parametrize("prec_a, prec_b", [(96, None), (None, 160), (96, 160), (128, 128)])
def test_float_kernels_round_like_scalar_loops(prec_a, prec_b):
    # mixed domains are promoted once in the container; the kernels must
    # still round every product and partial sum as raw-value loops in the
    # joined domain do
    def series(prec, seed):
        vals = [Fraction((7 * k + seed) % 11 - 5, 3 + (k * seed) % 7) for k in range(13)]
        vals[0] = Fraction(seed, 3)
        return TruncatedSeries(vals if prec is None else [fraction_to_mpf(v, prec) for v in vals], prec)

    a, b = series(prec_a, 2), series(prec_b, 5)
    assert same_bits(cauchy_product(a, b), *loop_product(a, b))
    (x, y), prec = joined_values(a, b)
    with domain_scope(prec):
        sums = [u + v for u, v in zip(x, y)]
    assert same_bits(series_add(a, b), sums, prec)
    assert same_bits(reciprocal(a), *loop_reciprocal(a))
    # an exact factor, rounded once to a float domain before it multiplies
    f = Fraction(5, 7)
    with domain_scope(prec_a):
        scaled = [raw_in(f, prec_a) * c for c in a]
    assert same_bits(a.scale(f), scaled, prec_a)
    x = Fraction(-3, 7)
    want = [Fraction(1)]
    for k in range(1, 13):
        want.append(want[-1] * x / k)
    assert same_bits(exp_series(x, 12), want, None)
    with pytest.raises(TypeError):
        exp_series(fraction_to_mpf(x, 100), 12)


@settings(max_examples=60)
@given(st.lists(fracs, min_size=9, max_size=9),
       st.lists(fracs, min_size=9, max_size=9),
       st.lists(fracs, min_size=9, max_size=9))
def test_ring_axioms(a, b, c):
    A, B, C = ts(*a), ts(*b), ts(*c)
    assert cauchy_product(A, B) == cauchy_product(B, A)
    assert cauchy_product(cauchy_product(A, B), C) == cauchy_product(A, cauchy_product(B, C))
    assert cauchy_product(A, series_add(B, C)) == series_add(
        cauchy_product(A, B), cauchy_product(A, C)
    )


@settings(max_examples=40)
@given(st.lists(fracs, min_size=7, max_size=7))
def test_reciprocal_two_sided(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    A = ts(*coeffs)
    one = TruncatedSeries.constant(1, 6)
    assert cauchy_product(A, reciprocal(A)) == one
    assert cauchy_product(reciprocal(A), A) == one


@settings(max_examples=40)
@given(st.lists(fracs, min_size=6, max_size=6), fracs, fracs)
def test_multiply_exp_additive(coeffs, x, y):
    A = ts(*coeffs)
    lhs = times_exp(times_exp(A, x), y)
    rhs = times_exp(A, x + y)
    assert lhs == rhs


def fraction_convolution(x, y):
    """Reference: the exact Cauchy product as a plain Fraction convolution."""
    return [sum((Fraction(x[k]) * Fraction(y[n - k]) for k in range(n + 1)), Fraction(0)) for n in range(len(x))]


_coefficients = st.one_of(
    st.just(Fraction(0)),
    fracs,
    st.integers(-10**30, 10**30).map(Fraction),
    # denominators above 2^200, so the lcm scaling meets long integers
    st.builds(Fraction, st.integers(-10**70, 10**70), st.integers(2**200 + 1, 2**240)),
)


@st.composite
def _exact_pair(draw):
    size = draw(st.integers(1, 12))  # order 0 up to 11
    coeff = st.integers(-10**6, 10**6).map(Fraction) if draw(st.booleans()) else _coefficients
    return [draw(st.lists(coeff, min_size=size, max_size=size)) for _ in range(2)]


@settings(max_examples=80)
@given(_exact_pair(), st.sampled_from([None, 96]))
def test_exact_product_equals_fraction_convolution(pair, float_prec):
    x, y = pair
    got = cauchy_product(ts(*x), ts(*y))
    assert got.precision is None and all(type(c) is Fraction for c in got)
    assert list(got) == fraction_convolution(x, y)
    if float_prec is not None:
        # one float operand sends the pair down the float path, which
        # rounds like the raw-value loop
        fy = TruncatedSeries([fraction_to_mpf(v, float_prec) for v in y], float_prec)
        mixed = cauchy_product(ts(*x), fy)
        assert mixed.precision == float_prec
        assert same_bits(mixed, *loop_product(ts(*x), fy))
