import math
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import pytest
from mpmath import mp

from fracpoly import clear_caches
from fracpoly.errors import DomainError
from fracpoly.families import (
    FamilyKind,
    FamilyParams,
    Polynomial,
    family_numbers,
    family_polynomial,
    multinomial_number_product,
)
from fracpoly.fractional import (
    _oracle_setup,
    CaputoOrder,
    FracExpansion,
    aligned_terms,
    caputo_by_composition,
    caputo_closed_form,
    caputo_derivative_poly,
    caputo_quadrature_oracle,
    caputo_quadrature_points,
    eval_frac_expansion,
    leibniz_product,
    rl_derivative_term,
    rl_integral_poly,
)
from fracpoly.gammafns import reciprocal_gamma
from fracpoly.quadrature import gauss_jacobi_rule
from fracpoly.scalars import DEFAULT_PRECISION, Coefficients, mpf_to_fraction

import reference_loops as ref
from reference_loops import fraction_to_mpf, working_precision

HALF = Fraction(1, 2)
TOL = Fraction(1, 10 ** 24)


def monomial(j):
    return Polynomial([0] * j + [1])


def bernoulli(lam, h=1):
    return FamilyParams(FamilyKind.BERNOULLI, 1, lam, h)


def power_term(beta, alpha, precision=DEFAULT_PRECISION):
    """The one-term expansion of D^alpha t^beta."""
    return FracExpansion([rl_derivative_term(beta, alpha, precision)], precision)


def binary_value(q, precision):
    """The exact value of the float nearest q at the given precision."""
    return mpf_to_fraction(fraction_to_mpf(Fraction(q), precision))


def multinomial_numbers(lam, h, top):
    """Theorem 5's route to the numbers: the multinomial convolution sums."""
    return Coefficients([multinomial_number_product(lam, h, r) for r in range(top + 1)])


def aligned_values(a, b):
    """(exponent, raw coefficient in a, raw coefficient in b) over the
    union of the exponents, an exact zero where one side has no term."""
    zero, ca, cb = Fraction(0), [c for c, _ in a], [c for c, _ in b]
    return [(e, zero if i is None else ca[i], zero if j is None else cb[j]) for e, i, j in aligned_terms(a, b)]


def mismatched_exponents(a, b, tol):
    """Exponents where the coefficients of a and b differ by more than tol,
    relative to max(1, |a|, |b|)."""
    out = []
    for e, ca, cb in aligned_values(a, b):
        ca, cb = mpf_to_fraction(ca), mpf_to_fraction(cb)
        if abs(ca - cb) > tol * max(1, abs(ca), abs(cb)):
            out.append(e)
    return out


def assert_expansions_close(a, b, tol=TOL):
    assert not mismatched_exponents(a, b, tol)


def assert_term(term, coeff_ref, expo, tol=TOL):
    coeff, exponent = term
    got = mpf_to_fraction(coeff)
    want = mpf_to_fraction(coeff_ref)
    assert abs(got - want) <= tol * max(1, abs(want))
    assert exponent == Fraction(expo)


def test_caputo_order():
    o = CaputoOrder(HALF)
    assert o.n == 1 and not o.is_integer
    # a float order is its exact binary value
    o = CaputoOrder(1 / 3)
    assert o.alpha == Fraction(1 / 3)
    assert o.n == 1
    assert CaputoOrder(Fraction(5, 2)).n == 3
    assert CaputoOrder(2).n == 2 and CaputoOrder(2).is_integer
    with pytest.raises(DomainError):
        CaputoOrder(0)


def test_power_rule_half():
    # oracle value 1/gamma(3/2) = 2/sqrt(pi)
    with working_precision(168):
        want = 2 / mp.sqrt(mp.pi)
    e = caputo_derivative_poly(monomial(1), CaputoOrder(HALF))
    assert len(list(e)) == 1
    assert_term(list(e)[0], want, HALF)


def test_power_rule_below_order_vanishes():
    assert not list(caputo_derivative_poly(monomial(0), CaputoOrder(HALF)))
    assert not list(caputo_derivative_poly(monomial(2), CaputoOrder(Fraction(5, 2))))


def test_power_rule_integer_reduction():
    ((c, x),) = caputo_derivative_poly(monomial(3), CaputoOrder(1))
    assert type(c) is Fraction and c == 3
    assert x == 2


def test_caputo_poly_t_squared():
    with working_precision(168):
        want = 8 / (3 * mp.sqrt(mp.pi))
    e = caputo_derivative_poly(monomial(2), CaputoOrder(HALF))
    assert len(list(e)) == 1
    assert_term(list(e)[0], want, Fraction(3, 2))


def test_caputo_poly_constant_empty():
    for a in (HALF, 1):
        e = caputo_derivative_poly(Polynomial([5]), CaputoOrder(a))
        assert not list(e)


def test_caputo_poly_linearity_b2():
    # B_2 = t^2 - t + 1/6: derivative must be the termwise combination
    with working_precision(168):
        c32 = 8 / (3 * mp.sqrt(mp.pi))
        neg_c12 = -(2 / mp.sqrt(mp.pi))
    q = Polynomial([Fraction(1, 6), -1, 1])
    e = caputo_derivative_poly(q, CaputoOrder(HALF))
    assert len(list(e)) == 2
    assert_term(list(e)[0], neg_c12, HALF)
    assert_term(list(e)[1], c32, Fraction(3, 2))


def test_expansion_products_follow_one_rounding_rule():
    # exact factors up to the first float multiply exactly and round once;
    # each later factor rounds before it multiplies.  These factors tell
    # the rule from multiplying every exact factor first, and from rounding
    # each exact factor on its own
    prec = 64
    x = fraction_to_mpf(Fraction(1, 3), prec)
    p, q, r = Fraction(3, 8), Fraction(24, 49), Fraction(5, 12)
    e = FracExpansion([((p, q, x, r, x), 0)], prec)
    got = list(e)[0][0]
    with working_precision(prec):
        want = fraction_to_mpf(p * q, prec) * x * fraction_to_mpf(r, prec) * x
        exact_first = fraction_to_mpf(p * q * r, prec) * x * x
        each = fraction_to_mpf(p, prec) * fraction_to_mpf(q, prec) * x * fraction_to_mpf(r, prec) * x
    assert want != exact_first and want != each
    assert e.precision == prec and got._mpf_ == want._mpf_
    # equal exponents sum in input order, after each product is formed
    merged = FracExpansion([((p, q, x, r, x), 0), ((x, p), 0), (r, 1)], prec)
    with working_precision(prec):
        total = want + x * fraction_to_mpf(p, prec)
    assert [(c._mpf_, e) for c, e in merged] == [(total._mpf_, 0), (fraction_to_mpf(r, prec)._mpf_, 1)]


def reference_merge(terms, prec):
    """The (coefficient, exponent) pairs of raw (factors, exponent) terms by
    mpf operators in one prec-bit scope: the exact factors up to the first
    float multiplied by math.prod and rounded once, each later factor
    rounded before it multiplies, the products of each exponent summed in
    input order from 0, and the zero sums dropped."""
    exponent = itemgetter(1)
    out = []
    with ref.scope(prec):
        for e, group in groupby(sorted(terms, key=exponent), key=exponent):
            total = 0
            for factors, _ in group:
                k = next((i for i, f in enumerate(factors) if not ref.is_exact(f)), len(factors))
                acc = ref.raw_in(math.prod(factors[:k]), prec)
                for f in factors[k:]:
                    acc *= ref.raw_in(f, prec)
                total += acc
            if total:
                out.append((e, total))
    return out


def raw_bits(c):
    """A raw value as comparable bits: an mpf's tuple, an exact value as a Fraction."""
    return Fraction(c) if ref.is_exact(c) else c._mpf_


def mixed_terms(prec):
    """Terms whose factors mix ints, Fractions and mpfs made at a lower
    precision, in several orders; the terms of exponent 1/2 cancel to zero."""
    low = prec // 2
    x, y = fraction_to_mpf(Fraction(1, 3), low), fraction_to_mpf(Fraction(-22, 7), low)
    terms = [((Fraction(3, 8), Fraction(24, 49), x, Fraction(5, 12), y), 0), ((x, 3), HALF),
             ((1,), Fraction(3, 2)), ((Fraction(5, 11), 7, Fraction(2, 3)), 0), ((4, 5), 2)]
    terms += [((-3, x), HALF), ((y, Fraction(1, 9), x), Fraction(3, 2)), ((2, x, y, Fraction(7, 13)), 0),
              ((y,), 3), ((-1,), Fraction(3, 2)), ((Fraction(-1, 7), y), 0), ((x, x, x), Fraction(3, 2))]
    for k in range(1, 9):
        terms.append(((Fraction(2 * k + 1, 3 * k + 2), Fraction(k, 17), y, k, x), 4))
        terms.append(((fraction_to_mpf(Fraction(-k, 2 * k + 7), low + k), Fraction(7, k + 2)), 4))
        terms.append(((Fraction(k, 3 * k + 1), Fraction(5 * k + 2, 7), Fraction(1, 2 * k + 9), (x, y)[k % 2]), 5))
        terms.append(((fraction_to_mpf(Fraction(k * k - 20, 11 * k + 3), low + 2 * k), Fraction(3, 5)), 5))
        terms.append(((Fraction(k + 4, 3 * k + 1), Fraction(k, 13), Fraction(5 * k + 2, 9), y), 5 + k))
    return terms


@pytest.mark.parametrize("prec", [64, 128, 512, 1024])
def test_expansion_merge_rounds_like_mpf_operator_loops(prec):
    terms = mixed_terms(prec)
    want = [(e, raw_bits(c)) for e, c in reference_merge(terms, prec)]
    assert HALF not in [e for e, _ in want]
    for got in (FracExpansion(terms, prec), FracExpansion._products(terms, prec)):
        assert got.precision == prec
        assert [(e, raw_bits(c)) for c, e in got] == want
    # the exact domain: the terms' exact factors alone
    exact = [(tuple(f for f in factors if ref.is_exact(f)), e) for factors, e in terms]
    got = FracExpansion(exact)
    assert got.precision is None
    assert [(e, raw_bits(c)) for c, e in got] == [(e, raw_bits(c)) for e, c in reference_merge(exact, None)]


@pytest.mark.parametrize("prec", [64, 128, 512, 1024])
def test_eval_frac_expansion_rounds_like_mpf_operator_loops(prec):
    exact = FracExpansion([(Fraction(3, 7), HALF), (-2, 1), (Fraction(5, 3), Fraction(7, 3)), (Fraction(1, 9), 4)])
    floats = FracExpansion(mixed_terms(prec), prec)
    for e in (exact, floats):
        for t in (Fraction(1, 3), 1, Fraction(17, 5)):
            for precision in (prec, 64):
                assert eval_frac_expansion(e, t, precision)._mpf_ == reference_eval(e, t, precision)._mpf_


def test_expansion_scale_keeps_the_exponents():
    e = caputo_derivative_poly(Polynomial([Fraction(1, 6), -1, 1]), CaputoOrder(HALF))
    tripled = e.scale(3)
    with working_precision(128):
        want = [((c * 3)._mpf_, x) for c, x in e]
    assert tripled.precision == e.precision
    assert [(c._mpf_, x) for c, x in tripled] == want
    assert not list(e.scale(0))


def test_caputo_linearity_random():
    ord_ = CaputoOrder(Fraction(3, 10))
    f = Polynomial([1, -2, Fraction(3, 7), 0, 5])
    g = Polynomial([0, 4, 0, Fraction(-1, 3), 2])
    lhs = caputo_derivative_poly(
        Polynomial([a + b for a, b in zip(f, g)]), ord_
    )
    # the constructor merges the terms of equal exponent
    rhs = FracExpansion([*caputo_derivative_poly(f, ord_), *caputo_derivative_poly(g, ord_)], DEFAULT_PRECISION)
    assert_expansions_close(lhs, rhs)


def test_rl_integral_examples():
    e = rl_integral_poly(Polynomial([1]), 1)
    assert len(list(e)) == 1
    assert list(e)[0][0] == 1 and list(e)[0][1] == 1
    with working_precision(168):
        want = 2 / mp.sqrt(mp.pi)  # 1/gamma(3/2)
    e = rl_integral_poly(Polynomial([1]), HALF)
    assert_term(list(e)[0], want, HALF)
    e = rl_integral_poly(monomial(1), 2)
    assert list(e)[0][0] == Fraction(1, 6)
    assert list(e)[0][1] == 3
    with pytest.raises(DomainError):
        rl_integral_poly(monomial(1), 0)


def test_rl_derivative_term_examples():
    c, x = rl_derivative_term(2, 1)
    assert c == 2 and x == 1
    with working_precision(168):
        want = mp.sqrt(mp.pi) / 2  # gamma(3/2)/gamma(1)
    assert_term(rl_derivative_term(HALF, HALF), want, 0)
    c, x = rl_derivative_term(0, -1)
    assert c == 1 and x == 1
    with pytest.raises(DomainError):
        rl_derivative_term(-1, HALF)


@pytest.mark.parametrize("prec", [64, 128, 333])
@pytest.mark.parametrize("a", [HALF, Fraction(7, 3)])
def test_rl_derivative_term_integer_exponent_rounds_factorial_once(a, prec):
    # at an integer exponent b, b! is rounded to the precision and then
    # multiplied by 1/gamma(b-a+1): the bits of a float gamma(b+1) times it
    for b in range(31):
        got, x = rl_derivative_term(b, a, prec)
        with working_precision(prec):
            want = fraction_to_mpf(math.factorial(b), prec) * reciprocal_gamma(b - a + 1, prec)
        assert x == b - a
        assert isinstance(got, mp.mpf)
        assert got._mpf_ == want._mpf_, b


@pytest.mark.parametrize("prec", [64, 128, 333])
def test_rl_derivative_term_non_integer_exponent(prec):
    # gamma(b+1)/gamma(b-a+1) as a quotient of two reciprocal gammas, for
    # derivatives and integrals, against mpmath at 64 extra bits
    tol = Fraction(1, 2 ** (prec - 8))
    for b in (Fraction(1, 3), Fraction(5, 2), Fraction(-2, 7), Fraction(77, 4)):
        for a in (HALF, Fraction(9, 4), Fraction(-3, 2)):
            got, _ = rl_derivative_term(b, a, prec)
            assert isinstance(got, mp.mpf) and got._mpf_[3] <= prec
            with working_precision(prec + 64):
                bm, am = mp.mpf(b.numerator) / b.denominator, mp.mpf(a.numerator) / a.denominator
                want = mpf_to_fraction(mp.gamma(bm + 1) * mp.rgamma(bm - am + 1))
            assert abs(mpf_to_fraction(got) - want) <= tol * abs(want), (b, a)
    # b - a + 1 = -1 is a pole of the denominator gamma: the term vanishes
    assert rl_derivative_term(Fraction(1, 3), Fraction(7, 3), prec)[0] == 0


def test_rl_derivative_composes_with_power_rule():
    # the constant from D^{1/2} t^{1/2} times the power-rule coefficient of
    # t -> t^{1/2} recovers gamma(2) = 1
    a = mpf_to_fraction(rl_derivative_term(HALF, HALF)[0])
    b = mpf_to_fraction(rl_derivative_term(1, HALF)[0])
    assert abs(a * b - 1) <= Fraction(1, 2 ** 110)


def test_composition_monomials():
    for alpha in (Fraction(3, 10), HALF, Fraction(3, 2)):
        ord_ = CaputoOrder(alpha)
        for j in range(ord_.n, 13):
            got = caputo_by_composition(monomial(j), ord_)
            want = caputo_derivative_poly(monomial(j), ord_)
            assert_expansions_close(got, want)


def test_composition_float_orders():
    # both routes reach the same exact exponents from a float order, and
    # agree within the float-identity tolerance
    for precision in (64, 128):
        for alpha in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 3)):
            ord_ = CaputoOrder(binary_value(alpha, precision))
            for j in range(ord_.n, 12):
                got = caputo_by_composition(monomial(j), ord_, precision)
                want = caputo_derivative_poly(monomial(j), ord_, precision)
                assert [x for _, x in got] == [x for _, x in want]
                assert_expansions_close(got, want, Fraction(1, 2 ** (precision - 48)))


def test_composition_integer_order():
    got = caputo_by_composition(monomial(3), CaputoOrder(2))
    assert len(list(got)) == 1
    assert list(got)[0][0] == 6
    assert list(got)[0][1] == 1


def test_composition_mismatch_on_constant():
    # integrate-then-differentiate leaves 5 t^(-1/2) / gamma(1/2) on a
    # constant, whose Caputo derivative is zero: why eq8 starts at j = n
    composed = caputo_by_composition(Polynomial([5]), CaputoOrder(HALF))
    direct = caputo_derivative_poly(Polynomial([5]), CaputoOrder(HALF))
    assert not list(direct)
    assert [x for _, x in composed] == [Fraction(-1, 2)]
    assert mismatched_exponents(composed, direct, TOL) == [Fraction(-1, 2)]


def test_leibniz_trivial_factor():
    got = leibniz_product(Polynomial([1]), monomial(2), HALF)
    want = power_term(2, HALF)
    assert_expansions_close(got, want)


def test_leibniz_t_times_t():
    got = leibniz_product(monomial(1), monomial(1), HALF)
    want = power_term(2, HALF)
    assert_expansions_close(got, want)


def test_leibniz_integer_order_product_rule():
    got = leibniz_product(monomial(2), Polynomial([1]), 1)
    assert len(list(got)) == 1
    assert type(list(got)[0][0]) is Fraction
    assert list(got)[0][0] == 2
    assert list(got)[0][1] == 1


def test_leibniz_float_order_one_term():
    a = binary_value(Fraction(1, 3), 64)
    for i in range(4):
        for j in range(4):
            got = leibniz_product(monomial(i), monomial(j), a, 64)
            assert len(list(got)) == 1
            assert list(got)[0][1] == i + j - a
            assert_expansions_close(got, power_term(i + j, a, 64), Fraction(1, 2 ** 16))


def test_leibniz_grid():
    for alpha in (HALF, Fraction(3, 2)):
        for i in range(9):
            for j in range(9 - i):
                got = leibniz_product(monomial(i), monomial(j), alpha)
                want = power_term(i + j, alpha)
                assert_expansions_close(got, want)


def test_theorem4_example_m2_lambda2():
    # B_0(2) = 0, B_1(2) = 1 so only the t^{1/2} term survives
    with working_precision(168):
        want = 2 * (2 / mp.sqrt(mp.pi))
    e = caputo_closed_form(bernoulli(2), 2, CaputoOrder(HALF))
    assert len(list(e)) == 1
    assert_term(list(e)[0], want, HALF)


def test_theorem4_m1_lambda2_zero():
    e = caputo_closed_form(bernoulli(2), 1, CaputoOrder(HALF))
    assert not list(e)


def test_theorem4_integer_reduction():
    for m in range(1, 7):
        for lam in (1, 2, 3):
            e = caputo_closed_form(bernoulli(lam), m, CaputoOrder(1))
            want = caputo_derivative_poly(family_polynomial(bernoulli(lam), m), CaputoOrder(1))
            assert_expansions_close(e, want, 0)  # exact


def test_theorem4_matches_direct():
    for lam in (2, 3):
        for alpha in (Fraction(3, 10), HALF, Fraction(3, 2), Fraction(5, 2)):
            ord_ = CaputoOrder(alpha)
            for m in range(ord_.n, 9):
                closed = caputo_closed_form(bernoulli(lam), m, ord_)
                direct = caputo_derivative_poly(family_polynomial(bernoulli(lam), m), ord_)
                assert_expansions_close(closed, direct)


def test_theorem4_degree_too_low():
    with pytest.raises(DomainError, match=r"degree 1 below ceil\(order\) = 2"):
        caputo_closed_form(bernoulli(2), 1, CaputoOrder(Fraction(3, 2)))


def test_theorem5_reduces_to_theorem4():
    # theorem 5's multinomial numbers against the default family numbers:
    # at h = 1 this is theorem 4, and at h = 2 the multinomial sums equal
    # the convolution numbers, so both routes agree exactly
    ord_ = CaputoOrder(HALF)
    for h in (1, 2):
        for lam in (1, 2, 3):
            for m in range(1, 7):
                a = caputo_closed_form(bernoulli(lam, h), m, ord_, numbers=multinomial_numbers(lam, h, m - 1))
                b = caputo_closed_form(bernoulli(lam, h), m, ord_)
                assert_expansions_close(a, b, 0)


def test_theorem5_example_h2_lambda1():
    # B^{(2)}_0 = 1, B^{(2)}_1 = -1
    with working_precision(200):
        g52 = mpf_to_fraction(mp.gamma(mp.mpf(5) / 2))
        g32 = mpf_to_fraction(mp.gamma(mp.mpf(3) / 2))
    e = caputo_closed_form(bernoulli(1, 2), 2, CaputoOrder(HALF), numbers=multinomial_numbers(1, 2, 1))
    assert len(list(e)) == 2
    t_low, t_high = list(e)
    assert t_low[1] == HALF
    assert t_high[1] == Fraction(3, 2)
    assert abs(mpf_to_fraction(t_low[0]) - 2 * (-1) / g32) <= TOL * 4
    assert abs(mpf_to_fraction(t_high[0]) - 2 * 1 / g52) <= TOL * 4


def test_theorem5_matches_direct():
    for lam in (1, 2):
        for h in (1, 2):
            for alpha in (HALF, Fraction(3, 2)):
                ord_ = CaputoOrder(alpha)
                for m in range(ord_.n, 8):
                    numbers = multinomial_numbers(lam, h, m - ord_.n)
                    closed = caputo_closed_form(bernoulli(lam, h), m, ord_, numbers=numbers)
                    direct = caputo_derivative_poly(family_polynomial(bernoulli(lam, h), m), ord_)
                    assert_expansions_close(closed, direct)


def test_theorem5_integer_order_eq20():
    # alpha = 1 reduces to m * B^{(h)}_{m-1}(t|lambda)
    for lam in (1, 2):
        for h in (1, 2):
            for m in range(1, 7):
                p = bernoulli(lam, h)
                closed = caputo_closed_form(p, m, CaputoOrder(1), numbers=multinomial_numbers(lam, h, m - 1))
                want_poly = family_polynomial(p, m - 1).scale(m)
                want = FracExpansion([(c, Fraction(k)) for c, k in want_poly.monomials()])
                assert_expansions_close(closed, want, 0)


def test_theorem6_euler_example():
    with working_precision(168):
        want = 2 / mp.sqrt(mp.pi)  # E_0 / gamma(3/2)
    p = FamilyParams(FamilyKind.EULER, 1, 1)
    e = caputo_closed_form(p, 1, CaputoOrder(HALF))
    assert len(list(e)) == 1
    assert_term(list(e)[0], want, HALF)


def test_theorem6_degree_precondition():
    p = FamilyParams(FamilyKind.GENOCCHI, 1, 2)
    with pytest.raises(DomainError, match=r"degree 1 below ceil\(order\) = 3"):
        caputo_closed_form(p, 1, CaputoOrder(Fraction(5, 2)))


def test_theorem6_matches_bernoulli_route():
    p = bernoulli(1)
    a = caputo_closed_form(p, 2, CaputoOrder(HALF))
    b = caputo_derivative_poly(family_polynomial(p, 2), CaputoOrder(HALF))
    assert_expansions_close(a, b)
    c = caputo_closed_form(p, 2, CaputoOrder(HALF), numbers=multinomial_numbers(1, 1, 1))
    assert_expansions_close(a, c)


def test_theorem6_all_kinds_match_direct():
    for kind in FamilyKind:
        for fam_alpha in (1, 2):
            for lam in (1, 2):
                p = FamilyParams(kind, fam_alpha, lam)
                for alpha in (Fraction(3, 10), Fraction(3, 2)):
                    ord_ = CaputoOrder(alpha)
                    for m in range(ord_.n, 7):
                        closed = caputo_closed_form(p, m, ord_)
                        direct = caputo_derivative_poly(family_polynomial(p, m), ord_)
                        assert_expansions_close(closed, direct)


def test_theorem6_literal_disagrees():
    # the printed variant pins the number index at n = ceil(order)
    p = FamilyParams(FamilyKind.EULER, 1, 2)
    ord_ = CaputoOrder(HALF)
    pinned = list(family_numbers(p, ord_.n))[ord_.n]
    broke = False
    for m in (2, 3):
        literal = caputo_closed_form(p, m, ord_, numbers=Coefficients([pinned] * (m - ord_.n + 1)))
        direct = caputo_derivative_poly(family_polynomial(p, m), ord_)
        if mismatched_exponents(literal, direct, Fraction(1, 10 ** 10)):
            broke = True
    assert broke


def test_inverse_property():
    # Caputo derivative of the RL integral of the same order is the identity
    for alpha in (HALF, Fraction(3, 2)):
        ord_ = CaputoOrder(alpha)
        for j in range(1, 9):
            q = monomial(j)
            integ = rl_integral_poly(q, alpha)
            # integ has a single term t^{j+alpha}; apply the power rule for
            # real exponents through the RL derivative of matching order
            back = FracExpansion(
                [
                    ((c, rl_derivative_term(x, alpha)[0]), rl_derivative_term(x, alpha)[1])
                    for c, x in integ
                ],
                DEFAULT_PRECISION,
            )
            for t_pt in (Fraction(1, 2), 1, 2):
                lhs = eval_frac_expansion(back, t_pt)
                rhs = Fraction(t_pt) ** j
                assert abs(mpf_to_fraction(lhs) - rhs) <= Fraction(1, 10 ** 20) * max(1, abs(rhs))


def test_integer_orders_reproduce_ordinary_calculus():
    # a float integer order is that exact integer, so it stays exact too
    for alpha in (1, 2, 3):
        for order in (alpha, float(alpha)):
            ord_ = CaputoOrder(order)
            for j in range(alpha, 10):
                e = caputo_derivative_poly(monomial(j), ord_)
                assert len(list(e)) == 1
                c, x = list(e)[0]
                assert type(c) is Fraction
                want = Fraction(math.factorial(j), math.factorial(j - alpha))
                assert c == want
                assert x == j - alpha
            # integral side
            e = rl_integral_poly(monomial(2), order)
            c, _ = list(e)[0]
            assert type(c) is Fraction
            assert c == Fraction(
                math.factorial(2), math.factorial(2 + alpha)
            )


def test_eval_frac_expansion_examples():
    assert mpf_to_fraction(eval_frac_expansion(FracExpansion([]), 3)) == 0
    e = FracExpansion([(1, HALF)])
    got = eval_frac_expansion(e, 4)
    assert abs(mpf_to_fraction(got) - 2) <= Fraction(1, 2 ** 110)
    with pytest.raises(DomainError):
        eval_frac_expansion(e, 0)


def test_expansion_exponents_coerce_once():
    # an exponent is read as every order is: a float as its exact binary
    # value, a string as the rational it spells
    want = FracExpansion([(1, HALF), (2, 1)])
    for half in (0.5, "1/2"):
        e = FracExpansion([(1, half), (2, 1)])
        assert e == want
        assert [type(x) for _, x in e] == [Fraction, Fraction]
        assert eval_frac_expansion(e, 4)._mpf_ == eval_frac_expansion(want, 4)._mpf_


def test_frac_expansion_merges_and_drops():
    e = FracExpansion(
        [
            (1, HALF),
            (-1, HALF),
            (0, Fraction(3)),
            (2, Fraction(1)),
        ]
    )
    assert len(list(e)) == 1
    assert list(e)[0][1] == 1


def reference_oracle(q, ord, t, precision):
    """The oracle evaluating q^(n) through Polynomial.evaluate at each node."""
    t = Fraction(t)
    n = ord.n
    dq = q
    for _ in range(n):
        dq = dq.derivative()
    if ord.is_integer:
        return dq.evaluate(t)
    wp = precision + 32
    nodes, weights = gauss_jacobi_rule(n - ord.alpha - 1, (dq.degree + 2) // 2 + 1, precision)
    # the coefficients in the nodes' domain; each node is a wp-bit float,
    # so its exact value is the point itself
    dq = Polynomial([ref.raw_in(c, wp) for c in dq], wp)
    with working_precision(wp):
        tm = fraction_to_mpf(t, wp)
        acc = mp.mpf(0)
        for x, w in zip(nodes, weights):
            acc += w * dq.evaluate(mpf_to_fraction(tm * (1 + x) / 2))
        e = mp.mpf(n) - mp.mpf(ord.alpha.numerator) / ord.alpha.denominator
        total = acc * (tm / 2) ** e / mp.gamma(e)
    return mp.mpf(total, prec=precision)


_ORACLE_COEFFS = (Fraction(3, 7), -2, Fraction(5, 11), 1, Fraction(-1, 3), Fraction(2, 9), Fraction(7, 5))


@pytest.mark.parametrize("precision", [64, 128, 512])
@pytest.mark.parametrize("order", [Fraction(1, 2), Fraction(3, 2), Fraction(7, 3), 1, 2])
@pytest.mark.parametrize("domain", ["exact", "float"])
def test_oracle_matches_per_node_evaluation_bit_for_bit(precision, order, domain):
    coeffs = _ORACLE_COEFFS if domain == "exact" else [fraction_to_mpf(Fraction(c), precision) for c in _ORACLE_COEFFS]
    q = Polynomial(coeffs, precision)
    ord_, t = CaputoOrder(order), Fraction(3, 5)
    got, want = caputo_quadrature_oracle(q, ord_, t, precision), reference_oracle(q, ord_, t, precision)
    assert type(got) is type(want)
    if isinstance(got, Fraction):
        assert got == want
    else:
        assert got._mpf_ == want._mpf_


_ORACLE_POINTS = (Fraction(3, 5), HALF, 1, 2, Fraction(7, 3))


@pytest.mark.parametrize("precision", [64, 128, 512])
@pytest.mark.parametrize("order", [Fraction(1, 2), Fraction(3, 2), Fraction(7, 3), 1, 2])
@pytest.mark.parametrize("domain", ["exact", "float"])
def test_multi_point_oracle_equals_one_point_calls_bit_for_bit(precision, order, domain):
    # one set-up serves every point: each value has the bits of a one-point
    # call and of the per-node reference
    coeffs = _ORACLE_COEFFS if domain == "exact" else [fraction_to_mpf(Fraction(c), precision) for c in _ORACLE_COEFFS]
    q = Polynomial(coeffs, precision)
    ord_ = CaputoOrder(order)
    got = caputo_quadrature_points(q, ord_, _ORACLE_POINTS, precision)
    for t, value in zip(_ORACLE_POINTS, got, strict=True):
        for want in (caputo_quadrature_oracle(q, ord_, t, precision), reference_oracle(q, ord_, t, precision)):
            assert type(value) is type(want)
            assert value == want if isinstance(value, Fraction) else value._mpf_ == want._mpf_


@pytest.mark.parametrize("precision", [64, 128, 512])
@pytest.mark.parametrize("order", [Fraction(3, 10), HALF, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)])
@pytest.mark.parametrize("alpha", [1, HALF])  # exact and float-alpha polynomials
def test_oracle_set_up_memo_gives_the_bits_of_a_cold_call(precision, order, alpha):
    q = family_polynomial(FamilyParams(FamilyKind.EULER, alpha, 2), 7, precision)
    ord_, points = CaputoOrder(order), _ORACLE_POINTS[:3]

    def bits(values):
        return [v._mpf_ for v in values]

    clear_caches()
    assert _oracle_setup.cache_info().currsize == 0
    cold = bits(caputo_quadrature_points(q, ord_, points, precision))
    assert _oracle_setup.cache_info().misses == 1
    assert cold == bits(caputo_quadrature_points(q, ord_, points, precision))  # warm
    assert _oracle_setup.cache_info().hits == 1
    assert cold == bits(reference_oracle(q, ord_, t, precision) for t in points)
    one_point = [caputo_quadrature_oracle(q, ord_, t, precision)._mpf_ for t in points]
    assert one_point == cold
    # a cold one-point set-up, with the rule built afresh, gives the same bits
    clear_caches()
    assert _oracle_setup.cache_info().currsize == 0
    assert [caputo_quadrature_oracle(q, ord_, t, precision)._mpf_ for t in points] == cold
    assert _oracle_setup.cache_info().misses == len(points)


# two orders of one nu = n - alpha (1/2 and 3/2; 1/3 and 7/3, whose nu = 2/3
# is not dyadic), each on a polynomial whose n-th derivative has degree 4,
# so that both ask for 4 nodes; each pair in both call orders
_ONE_NU = [(Fraction(1, 2), 5), (Fraction(3, 2), 6)], [(Fraction(1, 3), 5), (Fraction(7, 3), 7)]


@pytest.mark.parametrize("precision", [64, 128, 512])
@pytest.mark.parametrize("pair", [p[::step] for p in _ONE_NU for step in (1, -1)])
def test_orders_of_one_nu_share_one_oracle_set_up(precision, pair):
    def bits(order, degree):
        q = Polynomial((_ORACLE_COEFFS * 2)[:degree + 1])
        return [v._mpf_ for v in caputo_quadrature_points(q, CaputoOrder(order), _ORACLE_POINTS, precision)]

    clear_caches()
    shared = [bits(*case) for case in pair]
    assert (_oracle_setup.cache_info().misses, _oracle_setup.cache_info().hits) == (1, 1)
    # a shared set-up does not depend on which order came first
    for case, got in zip(pair, shared):
        clear_caches()
        assert bits(*case) == got


@pytest.mark.parametrize("precision", [64, 128, 512])
def test_multi_point_oracle_of_a_zero_derivative(precision):
    # deg q < n: the third derivative of a quadratic is zero at every point
    q, ord_ = Polynomial([1, 2, 3]), CaputoOrder(Fraction(5, 2))
    got = caputo_quadrature_points(q, ord_, _ORACLE_POINTS, precision)
    assert all(isinstance(v, mp.mpf) for v in got)
    assert [v._mpf_ for v in got] == [caputo_quadrature_oracle(q, ord_, t, precision)._mpf_ for t in _ORACLE_POINTS]
    assert [v._mpf_ for v in got] == [mp.mpf(0)._mpf_] * len(_ORACLE_POINTS)
    assert caputo_quadrature_points(q, ord_, (), precision) == []


def reference_eval(e, t, precision):
    """sum c t^x at wp = precision + 16, log t once per call and no memo."""
    wp, t = precision + 16, Fraction(t)
    with working_precision(wp):
        logt = mp.log(fraction_to_mpf(t, wp))
        acc = mp.mpf(0)
        for c, x in e:
            acc += ref.raw_in(c, wp) * mp.exp(fraction_to_mpf(x, wp) * logt)
    return mp.mpf(acc, prec=precision)


def test_power_memo_hit_equals_a_cold_call():
    import fracpoly.fractional as fractional
    from fracpoly import clear_caches

    e = FracExpansion([(Fraction(3, 7), HALF), (-2, Fraction(7, 10)), (Fraction(5, 3), Fraction(5, 2))])
    cases = [(t, precision) for precision in (512, 64, 128) for t in (HALF, 1, 2, Fraction(7, 3))]
    cold = {}
    for t, precision in cases:
        clear_caches()
        cold[t, precision] = eval_frac_expansion(e, t, precision)._mpf_
        assert cold[t, precision] == reference_eval(e, t, precision)._mpf_
    clear_caches()
    for t, precision in cases:
        eval_frac_expansion(e, t, precision)
    misses = fractional._power.cache_info().misses
    assert misses == 3 * len(cases)  # keyed by (t, x, wp): no two cases share one
    for t, precision in cases:
        assert eval_frac_expansion(e, t, precision)._mpf_ == cold[t, precision]
    assert fractional._power.cache_info().misses == misses
    assert fractional._power.cache_info().maxsize == 1024


def dict_aligned_terms(a, b):
    """aligned_terms through two exponent dicts and a sort of their union."""
    amap, bmap = {e: c for c, e in a}, {e: c for c, e in b}
    return [(e, amap.get(e, Fraction(0)), bmap.get(e, Fraction(0))) for e in sorted(set(amap) | set(bmap))]


@pytest.mark.parametrize("a_exps, b_exps", [
    ((0, 1, 2), (HALF, Fraction(3, 2), Fraction(5, 2))),  # disjoint, interleaved
    ((HALF, 1, Fraction(5, 2)), (HALF, 1, Fraction(5, 2))),  # equal
    ((0, HALF, 3), (Fraction(1, 3), HALF, 2, 3, 4)),  # interleaved, some shared
    ((0, 1), (2, 3)),  # disjoint, a first
    ((2, 3), (0, 1)),  # disjoint, b first
    ((), (HALF, 1)),  # an empty side
    ((HALF, 1), ()),
    ((), ()),
])
@pytest.mark.parametrize("precision", [None, 128])
def test_aligned_terms_matches_the_dict_merge(a_exps, b_exps, precision):
    a = FracExpansion([(Fraction(k + 2, 3), x) for k, x in enumerate(a_exps)], precision)
    b = FracExpansion([(Fraction(-k - 1, 5), x) for k, x in enumerate(b_exps)], precision)
    got, want = aligned_values(a, b), dict_aligned_terms(a, b)
    assert [(e, type(ca), type(cb)) for e, ca, cb in got] == [(e, type(ca), type(cb)) for e, ca, cb in want]
    assert [(e, mpf_to_fraction(ca), mpf_to_fraction(cb)) for e, ca, cb in got] == \
        [(e, mpf_to_fraction(ca), mpf_to_fraction(cb)) for e, ca, cb in want]


def test_oracle_reaches_neither_series_nor_spouge(monkeypatch):
    # the oracle is an independent route: it must not run the series
    # kernels or the package's gamma
    import fracpoly.gammafns as gammafns
    import fracpoly.series as series

    def unreachable(*args, **kwargs):
        raise AssertionError("the quadrature oracle reached another route's code")

    polys = [Polynomial(_ORACLE_COEFFS), Polynomial([fraction_to_mpf(Fraction(c), 128) for c in _ORACLE_COEFFS], 128)]
    for module, name in ((series, "cauchy_product"), (series, "reciprocal"),
                         (gammafns, "_spouge_memo"), (gammafns, "_gamma_positive"), (gammafns, "_rgamma")):
        monkeypatch.setattr(module, name, unreachable)
    for q in polys:
        value = caputo_quadrature_oracle(q, CaputoOrder(Fraction(3, 2)), Fraction(1, 2), 128)
        assert isinstance(value, mp.mpf) and value != 0


def test_expansion_refuses_indexing():
    # iteration pairs each coefficient with its exponent: an index would
    # return a bare coefficient, and a slice would lose the exponents
    e = FracExpansion([(1, HALF), (2, 1), (3, Fraction(3, 2))])
    with pytest.raises(TypeError, match="not indexed"):
        e[0]
    with pytest.raises(TypeError, match="not indexed"):
        e[1:]
    assert list(e) == [(1, HALF), (2, 1), (3, Fraction(3, 2))]


def test_expansions_with_other_exponents_differ():
    assert FracExpansion([(1, HALF), (2, 1)]) == FracExpansion([(2, 1), (1, HALF)])
    assert FracExpansion([(1, HALF), (2, 1)]) != FracExpansion([(1, HALF), (2, 2)])
    assert FracExpansion([(1, HALF)]) != Polynomial([1])
