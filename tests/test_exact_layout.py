"""Exact containers hold integer numerators over one denominator D.

Every exact operation must give the values that the same operation gives
one Fraction at a time, whatever D each operand carries; iteration and
indexing yield normalised Fractions, and rounding a held num/D into a float
domain gives the bits of rounding the Fraction.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fracpoly.families import Polynomial
from fracpoly.mittag import MLParams, ml_series
from fracpoly.scalars import Coefficients
from fracpoly.series import TruncatedSeries, cauchy_product, exp_series, series_add
from reference_loops import fraction_to_mpf

# numerators and denominators drawn independently, so that the
# denominators of one list are unrelated and their lcm is large
rationals = st.one_of(
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9)),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(2**100, 2**130)),
    st.integers(-50, 50).map(Fraction),
)
vectors = st.lists(rationals, min_size=1, max_size=12)
factors = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


def held(c):
    """The container's exact values as (numerator, denominator) pairs."""
    return [(v.numerator, v.denominator) for v in c]


def same_values(c, want):
    """c is exact, yields Fractions, and holds exactly the values want."""
    got = list(c)
    return c.precision is None and all(type(v) is Fraction for v in got) and held(c) == [
        (Fraction(w).numerator, Fraction(w).denominator) for w in want]


def re_denominated(c, f):
    """c with the same values over another D: scaled by f, then by 1/f."""
    return c.scale(f).scale(1 / f)


@settings(max_examples=80)
@given(vectors)
def test_construction_iteration_and_indexing_yield_normalised_fractions(values):
    c = Coefficients(values)
    assert same_values(c, values)
    assert [c[k] for k in range(len(values))] == values
    assert same_values(c[1:], values[1:])


@settings(max_examples=80)
@given(vectors, factors.filter(bool), st.integers(0, 11))
def test_equality_across_denominators(values, f, k):
    c = Coefficients(values)
    other = re_denominated(c, f)
    assert other == c and c == other
    changed = list(values)
    changed[k % len(values)] += Fraction(1, 7)
    assert Coefficients(changed) != c and re_denominated(Coefficients(changed), f) != c
    assert Coefficients(values + [0]) != c


@settings(max_examples=80)
@given(vectors, factors, factors.filter(bool))
def test_series_operations_match_fraction_loops(values, f, g):
    s = re_denominated(TruncatedSeries(values), g)
    n = len(values) - 1
    assert same_values(s.egf(), [v * math.factorial(k) for k, v in enumerate(values)])
    assert same_values(s.scale(f), [v * f for v in values])
    assert same_values(s.shift_up(2), ([Fraction(0)] * 2 + values)[: n + 1])
    padded = TruncatedSeries([0, 0] + values)
    assert same_values(padded.shift_down(2), values)
    assert same_values(series_add(s, TruncatedSeries(values)), [2 * v for v in values])


@settings(max_examples=60)
@given(vectors, vectors, factors.filter(bool))
def test_cauchy_product_matches_fraction_convolution(x, y, g):
    size = min(len(x), len(y))
    x, y = x[:size], y[:size]
    got = cauchy_product(re_denominated(TruncatedSeries(x), g), TruncatedSeries(y))
    want = [sum((x[k] * y[n - k] for k in range(n + 1)), Fraction(0)) for n in range(size)]
    assert same_values(got, want)


@settings(max_examples=80)
@given(vectors, rationals, factors.filter(bool))
def test_polynomial_operations_match_fraction_loops(values, x, g):
    q = re_denominated(Polynomial(values), g)
    assert same_values(q.derivative(), [k * v for k, v in enumerate(values) if k] or [0])
    assert same_values(q.antiderivative(), [0] + [v / (k + 1) for k, v in enumerate(values)])
    acc = Fraction(0)
    for v in reversed(values):
        acc = acc * x + v
    got = q.evaluate(x)
    assert type(got) is Fraction and got == acc
    assert [(c, k) for c, k in q.monomials()] == [(v, k) for k, v in enumerate(values) if v]


@settings(max_examples=60)
@given(vectors, factors.filter(bool), st.sampled_from([64, 128, 512]))
def test_rounding_into_a_float_domain_matches_fraction_to_mpf(values, g, precision):
    c = re_denominated(TruncatedSeries(values), g)
    want = [fraction_to_mpf(v, precision)._mpf_ for v in values]
    assert list(c._values_in(precision)) == want
    # the same join through a public operation: adding a float zero series
    zeros = TruncatedSeries([fraction_to_mpf(Fraction(0), precision)] * len(values), precision)
    joined = series_add(c, zeros)
    assert joined.precision == precision and [v._mpf_ for v in joined] == want


@settings(max_examples=40)
@given(factors, st.integers(0, 20))
def test_exp_and_integer_mittag_leffler_series_match_fraction_terms(x, order):
    assert same_values(exp_series(x, order), [x ** k / math.factorial(k) for k in range(order + 1)])
    for a, b in ((1, 1), (2, 3), (3, 1)):
        want = [Fraction(1, math.factorial(a * n + b - 1)) for n in range(order + 1)]
        assert same_values(ml_series(MLParams(a, b), order), want)
