import math
from fractions import Fraction

import pytest
from mpmath import mp

from fracpoly.errors import DomainError, ToleranceUnreachable
from fracpoly.families import (
    FamilyKind,
    FamilyParams,
    Polynomial,
    family_numbers,
    family_polynomial,
    integral_over_unit_interval,
    multinomial_number_product,
)
from fracpoly.scalars import fraction_to_mpf, mpf_to_fraction, render, working_precision


def bernoulli_recurrence(n_max):
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(Fraction(math.comb(n + 1, k)) * out[k] for k in range(n))
        out.append(-s / (n + 1))
    return out


def euler_at_zero(n_max):
    b = bernoulli_recurrence(n_max + 1)
    return [Fraction(2) * (1 - 2 ** (n + 1)) * b[n + 1] / (n + 1) for n in range(n_max + 1)]


def genocchi(n_max):
    b = bernoulli_recurrence(n_max)
    return [Fraction(2) * (1 - 2 ** n) * b[n] for n in range(n_max + 1)]


B = FamilyKind.BERNOULLI
E = FamilyKind.EULER
G = FamilyKind.GENOCCHI


def test_params_validation():
    with pytest.raises(DomainError):
        FamilyParams(B, 0, 1)
    with pytest.raises(DomainError):
        FamilyParams(B, 1, Fraction(-1, 2))
    with pytest.raises(DomainError):
        FamilyParams(E, 1, 1, h=2)  # higher order only for bernoulli
    with pytest.raises(DomainError):
        FamilyParams(B, 2, 1, h=2)  # ... and only at alpha = 1
    FamilyParams(B, 1, 3, h=4)


def test_classical_bernoulli_numbers():
    nums = family_numbers(FamilyParams(B, 1, 1), 24)
    oracle = bernoulli_recurrence(24)
    assert list(nums)[:5] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    for n in range(25):
        assert list(nums)[n] == oracle[n]


def test_classical_genocchi_numbers():
    nums = family_numbers(FamilyParams(G, 1, 1), 24)
    oracle = genocchi(24)
    assert list(nums)[:5] == [0, 1, -1, 0, 1]
    for n in range(25):
        assert list(nums)[n] == oracle[n]


def test_classical_euler_numbers_at_zero():
    nums = family_numbers(FamilyParams(E, 1, 1), 24)
    oracle = euler_at_zero(24)
    for n in range(25):
        assert list(nums)[n] == oracle[n]


def test_apostol_bernoulli_lambda2():
    nums = family_numbers(FamilyParams(B, 1, 2), 2)
    assert list(nums) == [0, 1, -4]


def test_apostol_closed_forms():
    for lam in (2, 3, Fraction(1, 2)):
        nums = family_numbers(FamilyParams(B, 1, lam), 2)
        lf = Fraction(lam)
        assert list(nums)[0] == 0
        assert list(nums)[1] == 1 / (lf - 1)
        assert list(nums)[2] == -2 * lf / (lf - 1) ** 2


def test_family_polynomial_classical_bernoulli():
    p2 = family_polynomial(FamilyParams(B, 1, 1), 2)
    # oracle: binomial sum over number list [1, -1/2, 1/6]
    assert list(p2) == [Fraction(1, 6), -1, 1]


def test_family_polynomial_classical_euler():
    p1 = family_polynomial(FamilyParams(E, 1, 1), 1)
    assert list(p1) == [Fraction(-1, 2), 1]


def test_family_polynomial_degree_zero_lambda_not_one():
    for kind in (B, G):
        p0 = family_polynomial(FamilyParams(kind, 1, 2), 0)
        assert list(p0) == [0]
    e0 = family_polynomial(FamilyParams(E, 2, 3), 0)
    assert list(e0)[0] == Fraction(2, 4)  # 2/(lambda + 1)


def test_eval_polynomial():
    q = Polynomial([Fraction(1, 6), -1, 1])
    assert q.evaluate(0) == Fraction(1, 6)
    assert q.evaluate(1) == Fraction(1, 6)  # B_2(1) = B_2
    assert Polynomial([0]).evaluate(7) == 0


def test_polynomial_operations_round_like_scalar_loops():
    # one domain per polynomial; each operation must round as
    # coefficient-at-a-time loops on the raw values do, in the joined domain
    f = Polynomial([fraction_to_mpf(Fraction(k - 3, 2 * k + 1), 96) for k in range(7)], 96)
    g = Polynomial([Fraction(1, 3), -2, Fraction(5, 7)])
    x = Fraction(-5, 3)
    fv = list(f)

    def bits(p):
        return p.precision, [mpf_to_fraction(c) for c in p]

    with working_precision(96):
        acc = 0
        for c in reversed(fv):
            acc = acc * fraction_to_mpf(x, 96) + c
    assert mpf_to_fraction(f.evaluate(x)) == mpf_to_fraction(acc)
    with working_precision(96):
        scaled = [c * fraction_to_mpf(Fraction(5, 7), 96) for c in fv]
        derived = [c * k for k, c in enumerate(fv) if k]
        integrated = [mp.mpf(0)] + [c / (k + 1) for k, c in enumerate(fv)]
    assert bits(f.scale(list(g)[2])) == (96, [mpf_to_fraction(v) for v in scaled])
    assert bits(f.derivative()) == (96, [mpf_to_fraction(v) for v in derived])
    assert bits(f.antiderivative()) == (96, [mpf_to_fraction(v) for v in integrated])
    assert f.scale(list(g)[0]).precision == 96 and g.scale(list(g)[0]).precision is None


def test_poly_derivative_appell():
    p2 = family_polynomial(FamilyParams(B, 1, 1), 2)
    d = p2.derivative()
    assert list(d) == [-1, 2]
    assert Polynomial([5]).derivative().is_zero()
    g3 = family_polynomial(FamilyParams(G, 2, 3), 3)
    g2 = family_polynomial(FamilyParams(G, 2, 3), 2)
    assert g3.derivative() == g2.scale(3)


def test_derivative_of_a_constant_keeps_the_domain():
    # the zero a constant differentiates to is in the constant's domain, so
    # a float polynomial's derivatives stay floats down to zero
    d = Polynomial([5]).derivative()
    assert (d.precision, list(d)) == (None, [0])
    q = family_polynomial(FamilyParams(B, Fraction(1, 2), 1), 1, 96)
    for _ in range(3):
        q = q.derivative()
        assert q.precision == 96 and all(isinstance(c, mp.mpf) for c in q)
    assert q.is_zero() and render(q.evaluate(1), q.precision) == "0.0"


def test_appell_property_grid():
    for kind in (B, E, G):
        for alpha in (1, 2, 3):
            for lam in (Fraction(1, 2), 1, 2, 3):
                p = FamilyParams(kind, alpha, lam)
                polys = [family_polynomial(p, n) for n in range(17)]
                for n in range(1, 17):
                    assert polys[n].derivative() == polys[n - 1].scale(n)


def test_appell_property_float_alpha():
    # non-integer alpha: float domain, checked to 1e-24 relative
    p = FamilyParams(B, Fraction(1, 2), 2)
    tol = Fraction(1, 10 ** 24)
    for n in range(1, 9):
        d = family_polynomial(p, n).derivative()
        want = family_polynomial(p, n - 1).scale(n)
        assert d.precision is not None
        for k in range(n):
            a = mpf_to_fraction(list(d)[k])
            b = mpf_to_fraction(list(want)[k])
            assert abs(a - b) <= tol * max(1, abs(b))


def test_addition_identity_matches_series_route():
    from fracpoly.families import family_series
    from fracpoly.series import cauchy_product, exp_series

    for kind in (B, E, G):
        for alpha in (1, 2):
            for lam in (1, 2):
                p = FamilyParams(kind, alpha, lam)
                series = family_series(p, 10)
                for x in (0, 1, Fraction(1, 2), -2):
                    lifted = cauchy_product(series, exp_series(x, series.order))
                    for n in range(11):
                        want = list(lifted)[n] * math.factorial(n)  # exact at integer alpha
                        got = family_polynomial(p, n).evaluate(x)
                        assert got == want


def test_integral_over_unit_interval_examples():
    p = FamilyParams(B, 1, 1)
    assert integral_over_unit_interval(p, 1, 0) == 0
    assert integral_over_unit_interval(p, 2, 0) == 0
    pe = FamilyParams(E, 1, 1)
    assert integral_over_unit_interval(pe, 0, 0) == 1


def test_integral_identity_corrected():
    for kind in (B, E, G):
        for alpha in (1, 2):
            for lam in (1, 2):
                p = FamilyParams(kind, alpha, lam)
                for n in range(13):
                    nxt = family_polynomial(p, n + 1)
                    for x in (0, Fraction(1, 2), -1, 3):
                        got = integral_over_unit_interval(p, n, x)
                        want = (nxt.evaluate(x + 1) - nxt.evaluate(x)) / (n + 1)
                        assert got == want


def test_integral_identity_literal_fails():
    # the printed form subtracts P_n instead of P_{n+1}: must break by n <= 3
    p = FamilyParams(B, 1, 1)
    broken = False
    for n in range(4):
        cur = family_polynomial(p, n)
        nxt = family_polynomial(p, n + 1)
        for x in (0, Fraction(1, 2), -1, 3):
            got = integral_over_unit_interval(p, n, x)
            literal = (nxt.evaluate(x + 1) - cur.evaluate(x)) / (n + 1)
            if got != literal:
                broken = True
    assert broken


def test_genocchi_euler_link():
    for alpha in (1, 2):
        for lam in (1, 2, 3):
            pg = FamilyParams(G, alpha, lam)
            pe = FamilyParams(E, alpha, lam)
            for n in range(1, 17):
                g = family_polynomial(pg, n)
                e = family_polynomial(pe, n - 1).scale(n)
                assert list(g) == list(e) + [0]  # G_0 = 0: no x^n term


def test_higher_order_classical_reduction():
    # order h = 1 at lambda = 1 is the classical Bernoulli generator
    assert list(family_numbers(FamilyParams(B, 1, 1, h=1), 10)) == bernoulli_recurrence(10)


def test_higher_order_h2_lambda1():
    # convolution oracle: sum binom(n,k) B_k B_{n-k}
    b = bernoulli_recurrence(12)
    want = [
        sum(Fraction(math.comb(n, k)) * b[k] * b[n - k] for k in range(n + 1))
        for n in range(13)
    ]
    assert want[:3] == [1, -1, Fraction(5, 6)]
    nums = family_numbers(FamilyParams(B, 1, 1, h=2), 12)
    for n in range(13):
        assert list(nums)[n] == want[n]


def test_higher_order_h2_lambda2():
    nums = family_numbers(FamilyParams(B, 1, 2, h=2), 2)
    assert list(nums) == [0, 0, 2]


def test_higher_order_below_valuation_at_lambda_one():
    # at lambda = 1, (z/(e^z - 1))^h has no z^h valuation left to cancel:
    # indices below h come out as for any other order
    b = bernoulli_recurrence(2)
    want = [1, 3 * b[1], 3 * b[2] + 6 * b[1] ** 2]  # sum over compositions of 0, 1, 2 into 3 parts
    assert list(family_numbers(FamilyParams(B, 1, 1, h=3), 2)) == want


def test_multinomial_number_product():
    b = bernoulli_recurrence(10)
    for r in range(8):
        assert multinomial_number_product(1, 1, r) == b[r]
    assert multinomial_number_product(1, 2, 2) == Fraction(5, 6)
    assert multinomial_number_product(1, 3, 0) == 1


def test_multinomial_matches_higher_order():
    for lam in (1, 2):
        for h in range(1, 5):
            r_max = 10
            nums = family_numbers(FamilyParams(B, 1, lam, h), r_max)
            for r in range(r_max + 1):
                assert multinomial_number_product(lam, h, r) == list(nums)[r]


def test_higher_order_polynomial_via_params():
    p = FamilyParams(B, 1, 2, h=2)
    nums = family_numbers(p, 4)
    q = family_polynomial(p, 3)
    want = [Fraction(0)] * 4
    for k in range(4):
        want[3 - k] = Fraction(math.comb(3, k)) * list(nums)[k]
    assert list(q) == want


def _domains_and_values(values):
    return values.precision, [mpf_to_fraction(c) for c in values]


def test_float_lambda_numbers_close_to_exact():
    # a float parameter counts as its exact binary value: the numbers are
    # the exact ones, not a float approximation of them
    for lam in (2, Fraction(1, 3)):
        big = float(lam)
        floats = family_numbers(FamilyParams(B, 1, big), 8)
        assert floats.precision is None
        exact = family_numbers(FamilyParams(B, 1, Fraction(big)), 8)
        assert _domains_and_values(floats) == _domains_and_values(exact)


def test_equal_params_give_equal_results():
    from fracpoly.mittag import MLParams, ml_series

    cases = [
        (FamilyParams(B, 1, 2.0), FamilyParams(B, 1, 2)),
        (FamilyParams("euler", 0.5, 2.0), FamilyParams("euler", Fraction(1, 2), 2)),
    ]
    for a, b in cases:
        assert a == b and hash(a) == hash(b)
        for prec in (64, 128):
            assert _domains_and_values(family_numbers(a, 6, prec)) == _domains_and_values(family_numbers(b, 6, prec))
    for a, b in ((MLParams(1.0, 2), MLParams(1, 2)),
                 (MLParams(0.5, 1.0), MLParams(Fraction(1, 2), 1))):
        assert a == b and hash(a) == hash(b)
        assert _domains_and_values(ml_series(a, 6)) == _domains_and_values(ml_series(b, 6))


def test_lambda_rounding_to_one_is_refused_as_unreachable():
    # lambda = 1 + 10^-60 rounds to 1 at 128 bits, where the float constant
    # term lambda - 1 of the Bernoulli denominator cancels; the exact one is
    # nonzero, so a wider precision computes the numbers
    p = FamilyParams(B, Fraction(1, 2), 1 + Fraction(1, 10 ** 60))
    with pytest.raises(ToleranceUnreachable, match=r"lambda = 10{59}1/10{60} rounds to 1 at 128 bits"):
        family_numbers(p, 3, 128)
    nums = family_numbers(p, 3, 256)
    assert list(nums)[0] == 0 and all(list(nums)[1:])


def test_float_alpha_lambda_one_valuation():
    # non-integer alpha with lambda = 1: the denominator constant term must
    # cancel exactly (gamma at integer arguments is exact) so the division
    # takes the valuation-shift path; the leading number is gamma(alpha+1)
    from mpmath import mp
    from fracpoly.scalars import mpf_to_fraction, working_precision

    nums = family_numbers(FamilyParams(B, Fraction(1, 2), 1), 4)
    assert nums.precision is not None
    with working_precision(188):
        want = mpf_to_fraction(mp.gamma(mp.mpf(3) / 2))
    assert abs(mpf_to_fraction(list(nums)[0]) - want) <= Fraction(1, 2 ** 110)
    # Appell identity still holds in this regime at 1e-24
    p = FamilyParams(B, Fraction(1, 2), 1)
    tol = Fraction(1, 10 ** 24)
    for n in range(1, 7):
        d = family_polynomial(p, n).derivative()
        want_poly = family_polynomial(p, n - 1).scale(n)
        for k in range(n):
            a = mpf_to_fraction(list(d)[k])
            b = mpf_to_fraction(list(want_poly)[k])
            assert abs(a - b) <= tol * max(1, abs(b))
