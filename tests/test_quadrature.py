from fractions import Fraction

import pytest
from mpmath import MPContext, mp

import fracpoly.fractional as fractional
from fracpoly import clear_caches
from fracpoly.errors import DomainError, ToleranceUnreachable
from fracpoly.families import FamilyParams, Polynomial, family_polynomial
from fracpoly.fractional import CaputoOrder, caputo_derivative_poly, caputo_quadrature_oracle, eval_frac_expansion
from fracpoly.quadrature import gauss_jacobi_rule
from fracpoly.scalars import mpf_to_fraction
from fracpoly.verify import RunConfig, run_suite
from reference_loops import working_precision

HALF = Fraction(1, 2)


def exact_weighted_monomial_integral(a: Fraction, k: int, precision: int) -> Fraction:
    """int_{-1}^{1} (1-u)^a u^k du by binomial expansion in u = 1 - s.

    Independent closed form: substitute s = 1-u so the integral becomes
    int_0^2 s^a (1-s)^k ds = sum_j binom(k,j) (-1)^j 2^{a+j+1} / (a+j+1).
    """
    import math

    with working_precision(precision):
        am = mp.mpf(a.numerator) / a.denominator
        total = mp.mpf(0)
        for j in range(k + 1):
            total += math.comb(k, j) * (-1) ** j * mp.mpf(2) ** (am + j + 1) / (am + j + 1)
        return mpf_to_fraction(total)


def test_rule_rejects_bad_parameters():
    with pytest.raises(DomainError):
        gauss_jacobi_rule(Fraction(-3, 2), 4, 128)
    with pytest.raises(DomainError):
        gauss_jacobi_rule(HALF, 0, 128)


def test_rule_integrates_polynomials_exactly():
    prec = 128
    for a in (Fraction(-1, 2), Fraction(-3, 10), HALF):
        for npts in (3, 6, 10):
            nodes, weights = gauss_jacobi_rule(a, npts, prec)
            for k in range(2 * npts):
                with working_precision(prec + 32):
                    got = mpf_to_fraction(
                        sum(w * x ** k for x, w in zip(nodes, weights))
                    )
                want = exact_weighted_monomial_integral(a, k, prec + 60)
                assert abs(got - want) <= Fraction(1, 2 ** (prec - 10)) * max(1, abs(want))


def test_rule_nodes_inside_interval_weights_positive():
    nodes, weights = gauss_jacobi_rule(Fraction(-1, 2), 8, 128)
    assert all(-1 < x < 1 for x in nodes)
    assert all(w > 0 for w in weights)
    assert all(nodes[i] < nodes[i + 1] for i in range(len(nodes) - 1))


def test_oracle_linear_monomial():
    # closed form 2 sqrt(t) / sqrt(pi) at t = 1
    got = caputo_quadrature_oracle(Polynomial([0, 1]), CaputoOrder(HALF), 1)
    with working_precision(168):
        want = mpf_to_fraction(2 / mp.sqrt(mp.pi))
    assert abs(mpf_to_fraction(got) - want) <= Fraction(1, 10 ** 30)


def test_oracle_constant_zero():
    got = caputo_quadrature_oracle(Polynomial([7]), CaputoOrder(HALF), 2)
    assert mpf_to_fraction(got) == 0


def test_oracle_t_squared_order_three_halves():
    # power-rule value gamma(3)/gamma(3/2) at t = 1
    got = caputo_quadrature_oracle(Polynomial([0, 0, 1]), CaputoOrder(Fraction(3, 2)), 1)
    with working_precision(168):
        want = mpf_to_fraction(2 / mp.gamma(mp.mpf(3) / 2))
    assert abs(mpf_to_fraction(got) - want) <= Fraction(1, 10 ** 30)


def test_oracle_rejects_nonpositive_point():
    with pytest.raises(DomainError):
        caputo_quadrature_oracle(Polynomial([0, 1]), CaputoOrder(HALF), 0)


def test_oracle_integer_order_bypass():
    got = caputo_quadrature_oracle(Polynomial([0, 0, 0, 1]), CaputoOrder(2), Fraction(3, 2))
    assert mpf_to_fraction(got) == 9  # 6t at t = 3/2


def test_oracle_agrees_with_closed_forms_on_family_grid():
    # the dual-route invariant at desk scale
    tol = Fraction(1, 10 ** 10)
    grids = [
        FamilyParams("bernoulli", 1, 1),
        FamilyParams("euler", 1, 1),
        FamilyParams("genocchi", 1, 1),
        FamilyParams("bernoulli", 1, 2),
        FamilyParams("euler", 1, 3),
        FamilyParams("bernoulli", 2, 2),
    ]
    for p in grids:
        for alpha in (Fraction(3, 10), HALF, Fraction(3, 2), Fraction(5, 2)):
            ord_ = CaputoOrder(alpha)
            for m in range(ord_.n, 9, 3):
                poly = family_polynomial(p, m)
                expansion = caputo_derivative_poly(poly, ord_)
                for t in (HALF, 1, 2):
                    a = mpf_to_fraction(eval_frac_expansion(expansion, t))
                    b = mpf_to_fraction(caputo_quadrature_oracle(poly, ord_, t))
                    assert abs(a - b) <= tol * max(1, abs(b))


def test_rule_26_nodes_at_511_bits_integrates_degree_51_exactly():
    prec = 511
    for a in (Fraction(-1, 2), Fraction(-6, 7), Fraction(1, 3)):
        nodes, weights = gauss_jacobi_rule(a, 26, prec)
        for k in range(52):
            with working_precision(prec + 32):
                got = mpf_to_fraction(mp.fsum(w * x ** k for x, w in zip(nodes, weights)))
            # the alternating binomial sum cancels about k bits, hence the guard
            want = exact_weighted_monomial_integral(a, k, prec + 160)
            assert abs(got - want) <= Fraction(1, 2 ** (prec - 10)) * max(1, abs(want))


@pytest.fixture()
def oracle_rules(monkeypatch):
    """The (a, npoints, precision) of every rule the oracle asks for, in
    order, from emptied memos, so that no held route skips the oracle."""
    clear_caches()
    keys = []

    def recording_rule(a_exponent, npoints, precision):
        keys.append((Fraction(a_exponent), npoints, precision))
        return gauss_jacobi_rule(a_exponent, npoints, precision)

    monkeypatch.setattr(fractional, "gauss_jacobi_rule", recording_rule)
    return keys


@pytest.mark.parametrize("alpha", (Fraction(1, 3), HALF, Fraction(13, 7)))
def test_oracle_reduced_node_count_matches_power_rule(alpha, oracle_rules):
    ord_ = CaputoOrder(alpha)
    t = Fraction(3, 2)
    for k in range(ord_.n, 25):
        got = mpf_to_fraction(caputo_quadrature_oracle(Polynomial([0] * k + [1]), ord_, t))
        # the exactness minimum for degree k - n, plus one guard node
        assert oracle_rules[-1][1] == (k - ord_.n + 2) // 2 + 1
        with working_precision(200):
            am = mp.mpf(alpha.numerator) / alpha.denominator
            want = mpf_to_fraction(
                mp.gamma(k + 1) / mp.gamma(k + 1 - am) * (mp.mpf(3) / 2) ** (k - am)
            )
        assert abs(got - want) <= Fraction(1, 10 ** 30) * max(1, abs(want))


def test_rules_built_by_the_suites_meet_the_invariant(oracle_rules):
    for suite in ("theorem4", "theorem5", "theorem6"):
        run_suite(suite, RunConfig())
    assert oracle_rules
    for a, npoints, prec in set(oracle_rules):
        nodes, weights = gauss_jacobi_rule(a, npoints, prec)
        assert len(nodes) == len(weights) == npoints
        assert -1 < nodes[0] and nodes[-1] < 1
        assert all(x < y for x, y in zip(nodes, nodes[1:]))
        with working_precision(prec + 32):
            total = mpf_to_fraction(mp.fsum(weights))
        mass = exact_weighted_monomial_integral(a, 0, prec + 64)
        assert abs(total - mass) <= Fraction(1, 2 ** (prec - 16)) * mass


@pytest.mark.parametrize("defect", ("mass", "order"))
def test_rule_invariant_violation_raises(defect, monkeypatch):
    real = MPContext.gauss_quadrature

    def broken(ctx, n, qtype, a, b):
        xs, ws = real(ctx, n, qtype, a, b)
        if defect == "mass":
            ws = [w * (1 + ctx.mpf(2) ** -40) for w in ws]
        else:
            xs = [xs[0]] + list(xs[:-1])
        return xs, ws

    monkeypatch.setattr(MPContext, "gauss_quadrature", broken)
    try:
        with pytest.raises(ToleranceUnreachable):
            gauss_jacobi_rule(Fraction(-1, 9), 5, 97)
    finally:
        clear_caches()
