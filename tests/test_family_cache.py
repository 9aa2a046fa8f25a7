"""The prefix-shared family series cache, the polynomial memo, the
raw-value numbers and polynomials, and exact Horner evaluation: each must
reproduce, bit for bit, what a cold computation or a per-coefficient
raw-value loop gives."""

import math
from fractions import Fraction

import pytest

import fracpoly.families as families
from fracpoly import clear_caches
from fracpoly.families import (FamilyParams, Polynomial, family_numbers, family_polynomial, family_series,
                               multinomial_number_product)
from fracpoly.scalars import as_rational, domain_scope, fraction_to_mpf, raw_in, working_precision


def bits(values):
    """The container's domain and each value's exact representation: the mpf tuple for floats."""
    return [(values.precision, v._mpf_ if values.precision else v) for v in values]


@pytest.fixture
def empty_caches():
    """Empties every cache and memo, first of all and again on each call."""
    clear_caches()
    return clear_caches


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
def test_prefix_slices_equal_cold_series(empty_caches, p, prec, orders):
    cold = {}
    for n in orders:
        empty_caches()
        cold[n] = bits(family_series(p, n, prec))
    empty_caches()
    for n in orders:
        s = family_series(p, n, prec)
        assert s.order == n
        assert bits(s) == cold[n]
    assert len(families._series_cache) == 1


def test_order_zero_keeps_the_domain_of_the_parameters(empty_caches):
    # at alpha = 1/2 the Euler number N_0 reads only 1/gamma(1), an exact
    # value, yet it is a float like the rest of the series whatever ran before
    from fracpoly.mittag import MLParams, ml_series

    p = FamilyParams("euler", Fraction(1, 2), Fraction(7, 5))
    fresh = bits(family_numbers(p, 0))
    empty_caches()
    assert bits(family_numbers(p, 3))[:1] == fresh
    assert fresh[0][0] == 128
    assert bits(ml_series(MLParams(Fraction(1, 2), 1), 0)) == bits(
        ml_series(MLParams(Fraction(1, 2), 1), 3))[:1]
    assert bits(ml_series(MLParams(2, 3), 0)) == [(None, Fraction(1, 2))]


def test_cache_keeps_at_most_256_keys(empty_caches):
    # the Euler series at alpha = 1 are exact, so their keys hold no precision
    keys = [(FamilyParams("euler", 1, lam), None) for lam in range(1, 301)]
    for p, _ in keys:
        family_series(p, 2, 128)
    cache = families._series_cache
    assert len(cache) == families._SERIES_CACHE_SIZE == 256
    assert keys[0] not in cache
    assert keys[-1] in cache


def test_exact_series_shared_across_precisions(empty_caches, monkeypatch):
    # at an integer alpha the series is exact, so one computation serves
    # every precision: the 64-bit request and the default 128-bit one
    calls = []
    real = families._number_series

    def counting(p, order, precision):
        calls.append((p, order, precision))
        return real(p, order, precision)

    monkeypatch.setattr(families, "_number_series", counting)
    nums = family_numbers(FamilyParams("bernoulli", 1, 2), 6, 64)
    assert multinomial_number_product(2, 1, 6) == list(nums)[6]
    assert len(calls) == 1


def test_polynomial_memo_keys_like_the_series(empty_caches, monkeypatch):
    # an integer alpha gives an exact polynomial, one entry for every
    # precision; a non-integer alpha gives one entry per precision
    exact, floats = FamilyParams("euler", 2, Fraction(2, 3)), FamilyParams("genocchi", Fraction(1, 2), 2)
    calls = [(p, prec) for p in (exact, floats) for prec in (64, 128, 512)]
    cold = {}
    for p, prec in calls:
        empty_caches()
        cold[p, prec] = bits(family_polynomial(p, 9, prec))
    empty_caches()
    builds = []
    real = families._family_polynomial

    def counting(p, n, precision):
        builds.append((p, precision))
        return real(p, n, precision)

    monkeypatch.setattr(families, "_family_polynomial", counting)
    first = {(p, prec): family_polynomial(p, 9, prec) for p, prec in calls}
    for p, prec in calls:
        hit = family_polynomial(p, 9, prec)
        assert hit is first[p, prec]
        assert bits(hit) == cold[p, prec]
    assert builds == [(exact, 64), (floats, 64), (floats, 128), (floats, 512)]
    assert list(families._polynomial_memo) == [(exact, 9, None), (floats, 9, 64), (floats, 9, 128),
                                               (floats, 9, 512)]


def test_equal_params_hash_alike_and_share_a_memo_entry(empty_caches, monkeypatch):
    # the hash is computed once per instance; two equal instances built
    # apart must still hash alike, compare and print alike, and hit one entry
    a, b = FamilyParams("euler", Fraction(1, 2), Fraction(2, 3)), FamilyParams("euler", "1/2", Fraction(4, 6))
    assert a is not b and a == b and repr(a) == repr(b)
    assert hash(a) == hash(b) == hash((a.kind, a.alpha, a.lam, a.h))
    assert hash(a) != hash(FamilyParams("euler", Fraction(1, 2), Fraction(3, 2)))
    builds = []
    real = families._family_polynomial

    def counting(p, n, precision):
        builds.append(p)
        return real(p, n, precision)

    monkeypatch.setattr(families, "_family_polynomial", counting)
    assert family_polynomial(b, 5, 128) is family_polynomial(a, 5, 128)
    assert builds == [a]
    assert list(families._polynomial_memo) == [(a, 5, 128)]


def test_polynomial_memo_keeps_at_most_its_coefficient_budget(empty_caches, monkeypatch):
    monkeypatch.setattr(families, "_POLYNOMIAL_MEMO_COEFFS", 20)
    p = FamilyParams("bernoulli", 1, 2)
    for n in (5, 6, 7):  # 6 + 7 + 8 coefficients: the first is evicted
        family_polynomial(p, n)
    assert list(families._polynomial_memo) == [(p, 6, None), (p, 7, None)]
    assert families._polynomial_held == 15
    family_polynomial(p, 20)  # 21 coefficients: more than the budget, not held
    assert list(families._polynomial_memo) == [(p, 6, None), (p, 7, None)]
    family_polynomial(p, 6)  # a hit moves its entry to the end
    family_polynomial(p, 8)
    assert list(families._polynomial_memo) == [(p, 6, None), (p, 8, None)]
    assert families._polynomial_held == 16


@pytest.mark.parametrize("n", [40, 60])
@pytest.mark.parametrize("kind,lam", [("bernoulli", 1), ("bernoulli", 2), ("euler", 3), ("genocchi", Fraction(1, 2))])
def test_numbers_and_polynomial_round_like_scalar_loops(kind, lam, n):
    # from k = 42 on, k! has more than 128 significant bits, so it must be
    # rounded to the precision before the product, as a raw-value loop does
    p = FamilyParams(kind, Fraction(1, 2), lam)
    s = family_series(p, n, 128)
    with working_precision(128):
        want_nums = [c * fraction_to_mpf(math.factorial(k), 128) for k, c in enumerate(s)]
        want_poly = [fraction_to_mpf(math.comb(n, k), 128) * want_nums[k] for k in range(n, -1, -1)]
    assert bits(family_numbers(p, n, 128)) == [(128, v._mpf_) for v in want_nums]
    assert bits(family_polynomial(p, n, 128)) == [(128, v._mpf_) for v in want_poly]


def fraction_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def scalar_loop_horner(q, x):
    """Polynomial.evaluate as one raw-value loop in the polynomial's domain."""
    prec = q.precision
    xv = raw_in(as_rational(x), prec)
    acc = 0
    with domain_scope(prec):
        for c in reversed(list(q)):
            acc = acc * xv + c
    return acc


def in_floats(q, prec):
    """q with each coefficient rounded once to prec bits."""
    return Polynomial([raw_in(c, prec) for c in q], prec)


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
    assert type(got) is Fraction
    assert got == fraction_horner(list(q), Fraction(x))


# an exact polynomial meets a float domain once its coefficients are rounded
# to it; the point is rounded there too
@pytest.mark.parametrize("q,x", [
    (in_floats(EXACT_POLYS[0], 128), Fraction(7, 3)),
    (in_floats(EXACT_POLYS[4], 256), Fraction(-9, 8)),
    (family_polynomial(FamilyParams("euler", Fraction(1, 2), 2), 12), Fraction(7, 3)),
    (in_floats(family_polynomial(FamilyParams("euler", Fraction(1, 2), 2), 12), 256), Fraction(-9, 8)),
    (family_polynomial(FamilyParams("bernoulli", Fraction(1, 2), 1), 8, 256), 5),
])
def test_mixed_domain_evaluation_rounds_like_loop(q, x):
    got, want = q.evaluate(x), scalar_loop_horner(q, x)
    assert q.precision is not None
    assert got._mpf_ == want._mpf_
