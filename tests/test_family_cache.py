"""The prefix-shared family series cache, the raw-value numbers and
polynomials, and exact Horner evaluation: each must reproduce, bit for bit,
what a cold computation or the per-coefficient Scalar route gives."""

import math
from collections import OrderedDict
from fractions import Fraction

import pytest

import fracpoly.families as families
from fracpoly.families import FamilyParams, Polynomial, family_numbers, family_polynomial, family_series
from fracpoly.scalars import Scalar, as_scalar, domain_scope, join_precision


def bits(values):
    """Each value's domain and exact representation: the mpf tuple for floats."""
    return [(s.precision, s.value._mpf_ if s.precision else s.value) for s in values]


@pytest.fixture
def empty_cache(monkeypatch):
    def reset():
        monkeypatch.setattr(families, "_series_cache", OrderedDict())
    reset()
    return reset


CASES = [
    (FamilyParams("bernoulli", 2, Fraction(2, 3)), 128),
    (FamilyParams("euler", Fraction(1, 2), 2), 128),
    (FamilyParams("genocchi", Fraction(1, 2), Fraction(1, 3)), 256),
    (FamilyParams("bernoulli", 1, Fraction(3, 2), 2), 128),
    (FamilyParams("bernoulli", 1, 1), 128),
    (FamilyParams("bernoulli", Fraction(1, 2), 1), 256),
]


@pytest.mark.parametrize("p,prec", CASES)
@pytest.mark.parametrize("orders", [(10, 40), (40, 10), (0, 3), (3, 0)])
def test_prefix_slices_equal_cold_series(empty_cache, p, prec, orders):
    cold = {}
    for n in orders:
        empty_cache()
        cold[n] = bits(family_series(p, n, prec).coeffs)
    empty_cache()
    for n in orders:
        s = family_series(p, n, prec)
        assert s.order == n
        assert bits(s.coeffs) == cold[n]
    assert len(families._series_cache) == 1


def test_order_zero_keeps_the_domain_of_the_parameters(empty_cache):
    # at alpha = 1/2 the Euler number N_0 reads only 1/gamma(1), an exact
    # value, yet it is a float like the rest of the series whatever ran before
    from fracpoly.mittag import MLParams, ml_series

    p = FamilyParams("euler", Fraction(1, 2), Fraction(7, 5))
    fresh = bits(family_numbers(p, 0))
    empty_cache()
    assert bits(family_numbers(p, 3)[:1]) == fresh
    assert fresh[0][0] == 128
    assert bits(ml_series(MLParams(Fraction(1, 2), 1), 0).coeffs) == bits(
        ml_series(MLParams(Fraction(1, 2), 1), 3).coeffs[:1])
    assert bits(ml_series(MLParams(2, 3), 0).coeffs) == [(None, Fraction(1, 2))]


def test_cache_keeps_at_most_256_keys(empty_cache):
    keys = [(FamilyParams("euler", 1, lam), 128) for lam in range(1, 301)]
    for p, prec in keys:
        family_series(p, 2, prec)
    cache = families._series_cache
    assert len(cache) == families._SERIES_CACHE_SIZE == 256
    assert keys[0] not in cache
    assert keys[-1] in cache


@pytest.mark.parametrize("n", [40, 60])
@pytest.mark.parametrize("kind,lam", [("bernoulli", 1), ("bernoulli", 2), ("euler", 3), ("genocchi", Fraction(1, 2))])
def test_numbers_and_polynomial_round_like_scalar_loops(kind, lam, n):
    # from k = 42 on, k! has more than 128 significant bits, so it must be
    # rounded to the precision before the product, as Scalar arithmetic does
    p = FamilyParams(kind, Fraction(1, 2), lam)
    s = family_series(p, n, 128)
    want_nums = [s.coeff(k) * math.factorial(k) for k in range(n + 1)]
    assert bits(family_numbers(p, n, 128)) == bits(want_nums)
    want_poly = [math.comb(n, k) * want_nums[k] for k in range(n, -1, -1)]
    assert bits(family_polynomial(p, n, 128).coeffs) == bits(want_poly)


def fraction_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def scalar_loop_horner(q, x):
    """Polynomial.evaluate as one raw-value loop in the joined domain."""
    xs = as_scalar(x)
    prec = join_precision(q.coeffs[0].precision, xs.precision)
    xv = xs.raw_in(prec)
    acc = 0
    with domain_scope(prec):
        for c in reversed(q.coeffs):
            acc = acc * xv + c.raw_in(prec)
    return Scalar(acc, prec)


EXACT_POLYS = [
    family_polynomial(FamilyParams("genocchi", 2, Fraction(2, 3)), 12),
    family_polynomial(FamilyParams("bernoulli", 1, 1), 9),
    Polynomial([Fraction(-5, 7)]),
    Polynomial([]),
    Polynomial([Fraction(1, 3), -2, Fraction(5, 6), 0, 0]),
]
POINTS = [0, 5, -1, Fraction(7, 3), Fraction(-9, 8)]


@pytest.mark.parametrize("q", EXACT_POLYS)
@pytest.mark.parametrize("x", POINTS)
def test_exact_horner_matches_fraction_horner(q, x):
    got = q.evaluate(x)
    assert got.is_exact
    assert got.value == fraction_horner([c.value for c in q.coeffs], Fraction(x))


@pytest.mark.parametrize("q,x", [
    (EXACT_POLYS[0], Scalar.big(Fraction(7, 3), 128)),
    (EXACT_POLYS[4], Scalar.big(Fraction(-9, 8), 256)),
    (family_polynomial(FamilyParams("euler", Fraction(1, 2), 2), 12), Fraction(7, 3)),
    (family_polynomial(FamilyParams("euler", Fraction(1, 2), 2), 12), Scalar.big(Fraction(-9, 8), 256)),
    (family_polynomial(FamilyParams("bernoulli", Fraction(1, 2), 1), 8, 256), 5),
])
def test_mixed_domain_evaluation_rounds_like_loop(q, x):
    got, want = q.evaluate(x), scalar_loop_horner(q, x)
    assert got.precision == want.precision is not None
    assert got.value._mpf_ == want.value._mpf_
