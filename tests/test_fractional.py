import math
from fractions import Fraction

import pytest
from mpmath import mp

from fracpoly.errors import DegreeTooLow, DomainError
from fracpoly.families import (
    FamilyKind,
    FamilyParams,
    Polynomial,
    family_numbers,
    family_polynomial,
    multinomial_number_product,
)
from fracpoly.fractional import (
    CaputoOrder,
    FracExpansion,
    aligned_terms,
    caputo_by_composition,
    caputo_closed_form,
    caputo_derivative_poly,
    caputo_quadrature_oracle,
    eval_frac_expansion,
    leibniz_product,
    rl_derivative_term,
    rl_integral_poly,
)
from fracpoly.gammafns import reciprocal_gamma
from fracpoly.quadrature import gauss_jacobi_rule
from fracpoly.scalars import Coefficients, Scalar, as_scalar, fraction_to_mpf, mpf_to_fraction, working_precision

HALF = Fraction(1, 2)
TOL = Fraction(1, 10 ** 24)


def monomial(j):
    return Polynomial([0] * j + [1])


def bernoulli(lam, h=1):
    return FamilyParams(FamilyKind.BERNOULLI, 1, lam, h)


def multinomial_numbers(lam, h, top):
    """Theorem 5's route to the numbers: the multinomial convolution sums."""
    return Coefficients([multinomial_number_product(lam, h, r) for r in range(top + 1)])


def mismatched_exponents(a, b, tol):
    """Exponents where the coefficients of a and b differ by more than tol,
    relative to max(1, |a|, |b|)."""
    out = []
    for e, ca, cb in aligned_terms(a, b):
        ca, cb = [c if isinstance(c, Fraction) else mpf_to_fraction(c) for c in (ca, cb)]
        if abs(ca - cb) > tol * max(1, abs(ca), abs(cb)):
            out.append(e)
    return out


def assert_expansions_close(a, b, tol=TOL):
    assert not mismatched_exponents(a, b, tol)


def assert_term(term, coeff_ref, expo, tol=TOL):
    coeff, exponent = term
    got = coeff.as_fraction()
    want = Fraction(coeff_ref) if not hasattr(coeff_ref, "_mpf_") else mpf_to_fraction(coeff_ref)
    assert abs(got - want) <= tol * max(1, abs(want))
    assert exponent == Fraction(expo)


def test_caputo_order():
    o = CaputoOrder(HALF)
    assert o.n == 1 and not o.is_integer
    # a float order is its exact binary value
    o = CaputoOrder(Scalar.big(Fraction(1, 3), 64))
    assert o.alpha == Scalar.big(Fraction(1, 3), 64).as_fraction()
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
    assert len(e.terms) == 1
    assert_term(e.terms[0], want, HALF)


def test_power_rule_below_order_vanishes():
    assert not caputo_derivative_poly(monomial(0), CaputoOrder(HALF)).terms
    assert not caputo_derivative_poly(monomial(2), CaputoOrder(Fraction(5, 2))).terms


def test_power_rule_integer_reduction():
    ((c, x),) = caputo_derivative_poly(monomial(3), CaputoOrder(1))
    assert c.is_exact and c.value == 3
    assert x == 2


def test_caputo_poly_t_squared():
    with working_precision(168):
        want = 8 / (3 * mp.sqrt(mp.pi))
    e = caputo_derivative_poly(monomial(2), CaputoOrder(HALF))
    assert len(e.terms) == 1
    assert_term(e.terms[0], want, Fraction(3, 2))


def test_caputo_poly_constant_empty():
    for a in (HALF, 1):
        e = caputo_derivative_poly(Polynomial([5]), CaputoOrder(a))
        assert not e.terms


def test_caputo_poly_linearity_b2():
    # B_2 = t^2 - t + 1/6: derivative must be the termwise combination
    with working_precision(168):
        c32 = 8 / (3 * mp.sqrt(mp.pi))
        neg_c12 = -(2 / mp.sqrt(mp.pi))
    q = Polynomial([Fraction(1, 6), -1, 1])
    e = caputo_derivative_poly(q, CaputoOrder(HALF))
    assert len(e.terms) == 2
    assert_term(e.terms[0], neg_c12, HALF)
    assert_term(e.terms[1], c32, Fraction(3, 2))


def test_expansion_products_follow_one_rounding_rule():
    # exact factors up to the first float multiply exactly and round once;
    # each later factor rounds before it multiplies.  These factors tell
    # the rule from multiplying every exact factor first, and from rounding
    # each exact factor on its own
    prec = 64
    x = Scalar.big(Fraction(1, 3), prec)
    p, q, r = Fraction(3, 8), Fraction(24, 49), Fraction(5, 12)
    got = FracExpansion([((p, q, x, r, x), 0)]).terms[0][0]
    with working_precision(prec):
        want = fraction_to_mpf(p * q, prec) * x.value * fraction_to_mpf(r, prec) * x.value
        exact_first = fraction_to_mpf(p * q * r, prec) * x.value * x.value
        each = fraction_to_mpf(p, prec) * fraction_to_mpf(q, prec) * x.value * fraction_to_mpf(r, prec) * x.value
    assert want != exact_first and want != each
    assert got.precision == prec and got.value == want
    # equal exponents sum in input order, after each product is formed
    merged = FracExpansion([((p, q, x, r, x), 0), ((x, p), 0), (r, 1)])
    with working_precision(prec):
        total = want + x.value * fraction_to_mpf(p, prec)
    assert [(c.value, e) for c, e in merged] == [(total, 0), (fraction_to_mpf(r, prec), 1)]


def test_expansion_scale_keeps_the_exponents():
    e = caputo_derivative_poly(Polynomial([Fraction(1, 6), -1, 1]), CaputoOrder(HALF))
    tripled = e.scale(3)
    with working_precision(128):
        want = [(c.value * 3, x) for c, x in e]
    assert [(c.value, x) for c, x in tripled] == want
    assert not e.scale(0).terms


def test_caputo_linearity_random():
    ord_ = CaputoOrder(Fraction(3, 10))
    f = Polynomial([1, -2, Fraction(3, 7), 0, 5])
    g = Polynomial([0, 4, 0, Fraction(-1, 3), 2])
    lhs = caputo_derivative_poly(
        Polynomial([a.value + b.value for a, b in zip(f.coeffs, g.coeffs)]), ord_
    )
    # the constructor merges the terms of equal exponent
    rhs = FracExpansion([*caputo_derivative_poly(f, ord_), *caputo_derivative_poly(g, ord_)])
    assert_expansions_close(lhs, rhs)


def test_rl_integral_examples():
    e = rl_integral_poly(Polynomial([1]), 1)
    assert len(e.terms) == 1
    assert e.terms[0][0].value == 1 and e.terms[0][1] == 1
    with working_precision(168):
        want = 2 / mp.sqrt(mp.pi)  # 1/gamma(3/2)
    e = rl_integral_poly(Polynomial([1]), HALF)
    assert_term(e.terms[0], want, HALF)
    e = rl_integral_poly(monomial(1), 2)
    assert e.terms[0][0].value == Fraction(1, 6)
    assert e.terms[0][1] == 3
    with pytest.raises(DomainError):
        rl_integral_poly(monomial(1), 0)


def test_rl_derivative_term_examples():
    c, x = rl_derivative_term(2, 1)
    assert c.value == 2 and x == 1
    with working_precision(168):
        want = mp.sqrt(mp.pi) / 2  # gamma(3/2)/gamma(1)
    assert_term(rl_derivative_term(HALF, HALF), want, 0)
    c, x = rl_derivative_term(0, -1)
    assert c.value == 1 and x == 1
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
            want = fraction_to_mpf(math.factorial(b), prec) * reciprocal_gamma(b - a + 1, prec).value
        assert x == b - a
        assert got.precision == prec
        assert got.value._mpf_ == want._mpf_, b


@pytest.mark.parametrize("prec", [64, 128, 333])
def test_rl_derivative_term_non_integer_exponent(prec):
    # gamma(b+1)/gamma(b-a+1) as a quotient of two reciprocal gammas, for
    # derivatives and integrals, against mpmath at 64 extra bits
    tol = Fraction(1, 2 ** (prec - 8))
    for b in (Fraction(1, 3), Fraction(5, 2), Fraction(-2, 7), Fraction(77, 4)):
        for a in (HALF, Fraction(9, 4), Fraction(-3, 2)):
            got, _ = rl_derivative_term(b, a, prec)
            assert got.precision == prec
            with working_precision(prec + 64):
                bm, am = mp.mpf(b.numerator) / b.denominator, mp.mpf(a.numerator) / a.denominator
                want = mpf_to_fraction(mp.gamma(bm + 1) * mp.rgamma(bm - am + 1))
            assert abs(got.as_fraction() - want) <= tol * abs(want), (b, a)
    # b - a + 1 = -1 is a pole of the denominator gamma: the term vanishes
    assert rl_derivative_term(Fraction(1, 3), Fraction(7, 3), prec)[0].value == 0


def test_rl_derivative_composes_with_power_rule():
    # the constant from D^{1/2} t^{1/2} times the power-rule coefficient of
    # t -> t^{1/2} recovers gamma(2) = 1
    a = rl_derivative_term(HALF, HALF)[0].as_fraction()
    b = rl_derivative_term(1, HALF)[0].as_fraction()
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
            ord_ = CaputoOrder(Scalar.big(alpha, precision))
            for j in range(ord_.n, 12):
                got = caputo_by_composition(monomial(j), ord_, precision)
                want = caputo_derivative_poly(monomial(j), ord_, precision)
                assert [x for _, x in got] == [x for _, x in want]
                assert_expansions_close(got, want, Fraction(1, 2 ** (precision - 48)))


def test_composition_integer_order():
    got = caputo_by_composition(monomial(3), CaputoOrder(2))
    assert len(got.terms) == 1
    assert got.terms[0][0].value == 6
    assert got.terms[0][1] == 1


def test_composition_mismatch_on_constant():
    # integrate-then-differentiate leaves 5 t^(-1/2) / gamma(1/2) on a
    # constant, whose Caputo derivative is zero: why eq8 starts at j = n
    composed = caputo_by_composition(Polynomial([5]), CaputoOrder(HALF))
    direct = caputo_derivative_poly(Polynomial([5]), CaputoOrder(HALF))
    assert not direct.terms
    assert [x for _, x in composed] == [Fraction(-1, 2)]
    assert mismatched_exponents(composed, direct, TOL) == [Fraction(-1, 2)]


def test_leibniz_trivial_factor():
    got = leibniz_product(Polynomial([1]), monomial(2), HALF)
    want = FracExpansion([rl_derivative_term(2, HALF)])
    assert_expansions_close(got, want)


def test_leibniz_t_times_t():
    got = leibniz_product(monomial(1), monomial(1), HALF)
    want = FracExpansion([rl_derivative_term(2, HALF)])
    assert_expansions_close(got, want)


def test_leibniz_integer_order_product_rule():
    got = leibniz_product(monomial(2), Polynomial([1]), 1)
    assert len(got.terms) == 1
    assert got.terms[0][0].is_exact
    assert got.terms[0][0].value == 2
    assert got.terms[0][1] == 1


def test_leibniz_float_order_one_term():
    a = Scalar.big(Fraction(1, 3), 64)
    for i in range(4):
        for j in range(4):
            got = leibniz_product(monomial(i), monomial(j), a, 64)
            assert len(got.terms) == 1
            assert got.terms[0][1] == i + j - a.as_fraction()
            assert_expansions_close(got, FracExpansion([rl_derivative_term(i + j, a, 64)]), Fraction(1, 2 ** 16))


def test_leibniz_grid():
    for alpha in (HALF, Fraction(3, 2)):
        for i in range(9):
            for j in range(9 - i):
                got = leibniz_product(monomial(i), monomial(j), alpha)
                want = FracExpansion([rl_derivative_term(i + j, alpha)])
                assert_expansions_close(got, want)


def test_theorem4_example_m2_lambda2():
    # B_0(2) = 0, B_1(2) = 1 so only the t^{1/2} term survives
    with working_precision(168):
        want = 2 * (2 / mp.sqrt(mp.pi))
    e = caputo_closed_form(bernoulli(2), 2, CaputoOrder(HALF))
    assert len(e.terms) == 1
    assert_term(e.terms[0], want, HALF)


def test_theorem4_m1_lambda2_zero():
    e = caputo_closed_form(bernoulli(2), 1, CaputoOrder(HALF))
    assert not e.terms


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
    with pytest.raises(DegreeTooLow):
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
    assert len(e.terms) == 2
    t_low, t_high = e.terms
    assert t_low[1] == HALF
    assert t_high[1] == Fraction(3, 2)
    assert abs(t_low[0].as_fraction() - 2 * (-1) / g32) <= TOL * 4
    assert abs(t_high[0].as_fraction() - 2 * 1 / g52) <= TOL * 4


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
    assert len(e.terms) == 1
    assert_term(e.terms[0], want, HALF)


def test_theorem6_degree_precondition():
    p = FamilyParams(FamilyKind.GENOCCHI, 1, 2)
    with pytest.raises(DegreeTooLow):
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
    pinned = family_numbers(p, ord_.n).coeffs[ord_.n]
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
                ]
            )
            for t_pt in (Fraction(1, 2), 1, 2):
                lhs = eval_frac_expansion(back, t_pt)
                rhs = Fraction(t_pt) ** j
                assert abs(lhs.as_fraction() - rhs) <= Fraction(1, 10 ** 20) * max(1, abs(rhs))


def test_integer_orders_reproduce_ordinary_calculus():
    # a float integer order is that exact integer, so it stays exact too
    for alpha in (1, 2, 3):
        for order in (alpha, Scalar.big(alpha, 128)):
            ord_ = CaputoOrder(order)
            for j in range(alpha, 10):
                e = caputo_derivative_poly(monomial(j), ord_)
                assert len(e.terms) == 1
                c, x = e.terms[0]
                assert c.is_exact
                want = Fraction(math.factorial(j), math.factorial(j - alpha))
                assert c.value == want
                assert x == j - alpha
            # integral side
            e = rl_integral_poly(monomial(2), order)
            c, _ = e.terms[0]
            assert c.is_exact
            assert c.value == Fraction(
                math.factorial(2), math.factorial(2 + alpha)
            )


def test_eval_frac_expansion_examples():
    assert eval_frac_expansion(FracExpansion([]), 3).as_fraction() == 0
    e = FracExpansion([(as_scalar(1), HALF)])
    got = eval_frac_expansion(e, 4)
    assert abs(got.as_fraction() - 2) <= Fraction(1, 2 ** 110)
    with pytest.raises(DomainError):
        eval_frac_expansion(e, 0)


def test_frac_expansion_merges_and_drops():
    e = FracExpansion(
        [
            (as_scalar(1), HALF),
            (as_scalar(-1), HALF),
            (as_scalar(0), Fraction(3)),
            (as_scalar(2), Fraction(1)),
        ]
    )
    assert len(e.terms) == 1
    assert e.terms[0][1] == 1


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
    with working_precision(wp):
        tm = fraction_to_mpf(t, wp)
        acc = mp.mpf(0)
        for x, w in zip(nodes, weights):
            acc += w * dq.evaluate(Scalar(tm * (1 + x) / 2, wp)).value
        e = mp.mpf(n) - mp.mpf(ord.alpha.numerator) / ord.alpha.denominator
        total = acc * (tm / 2) ** e / mp.gamma(e)
    return Scalar.big(total, precision)


_ORACLE_COEFFS = (Fraction(3, 7), -2, Fraction(5, 11), 1, Fraction(-1, 3), Fraction(2, 9), Fraction(7, 5))


@pytest.mark.parametrize("precision", [64, 128, 512])
@pytest.mark.parametrize("order", [Fraction(1, 2), Fraction(3, 2), Fraction(7, 3), 1, 2])
@pytest.mark.parametrize("domain", ["exact", "float"])
def test_oracle_matches_per_node_evaluation_bit_for_bit(precision, order, domain):
    coeffs = _ORACLE_COEFFS if domain == "exact" else [Scalar.big(Fraction(c), precision) for c in _ORACLE_COEFFS]
    q = Polynomial(coeffs)
    ord_, t = CaputoOrder(order), Fraction(3, 5)
    got, want = caputo_quadrature_oracle(q, ord_, t, precision), reference_oracle(q, ord_, t, precision)
    assert got.precision == want.precision
    if got.is_exact:
        assert got.value == want.value
    else:
        assert got.value._mpf_ == want.value._mpf_


def test_oracle_reaches_neither_series_nor_spouge(monkeypatch):
    # the oracle is an independent route: it must not run the series
    # kernels or the package's gamma
    import fracpoly.gammafns as gammafns
    import fracpoly.series as series

    def unreachable(*args, **kwargs):
        raise AssertionError("the quadrature oracle reached another route's code")

    polys = [Polynomial(_ORACLE_COEFFS), Polynomial([Scalar.big(Fraction(c), 128) for c in _ORACLE_COEFFS])]
    for module, name in ((series, "cauchy_product"), (series, "reciprocal"),
                         (gammafns, "_spouge"), (gammafns, "_rgamma")):
        monkeypatch.setattr(module, name, unreachable)
    for q in polys:
        value = caputo_quadrature_oracle(q, CaputoOrder(Fraction(3, 2)), Fraction(1, 2), 128)
        assert value.precision == 128 and value.value != 0
