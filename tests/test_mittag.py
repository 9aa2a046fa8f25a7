import math
from fractions import Fraction

import pytest
from mpmath import mp

from fracpoly.errors import DomainError, ToleranceUnreachable
from fracpoly.gammafns import _rgamma
from fracpoly.mittag import MLParams, ml_eval, ml_eval_points, ml_one_m_closed, ml_series
from fracpoly.scalars import mpf_to_fraction
from fracpoly.verify import suite_ml_consistency

import reference_loops as ref
from reference_loops import fraction_to_mpf, working_precision


def rel(a, b):
    fa, fb = mpf_to_fraction(a), mpf_to_fraction(b)
    if fb == 0:
        return abs(fa)
    return abs(fa - fb) / abs(fb)


def test_params_domain():
    with pytest.raises(DomainError):
        MLParams(0, 1)
    with pytest.raises(DomainError):
        MLParams(1, Fraction(-1, 2))
    MLParams(Fraction(1, 2), 3)


def test_series_exponential():
    s = ml_series(MLParams(1, 1), 5)
    for n in range(6):
        assert list(s)[n] == Fraction(1, math.factorial(n))


def test_series_beta_two():
    s = ml_series(MLParams(1, 2), 3)
    for n in range(4):
        assert list(s)[n] == Fraction(1, math.factorial(n + 1))


def test_series_alpha_two():
    # direct gamma(2n+1) oracle
    s = ml_series(MLParams(2, 1), 4)
    for n in range(5):
        assert list(s)[n] == Fraction(1, math.factorial(2 * n))


def test_series_float_domain_when_not_integer():
    s = ml_series(MLParams(Fraction(1, 2), 1), 3, 128)
    assert s.precision == 128 and all(isinstance(c, mp.mpf) for c in s)
    # n = 1 coefficient is 1/gamma(3/2) = 2/sqrt(pi)
    with working_precision(168):
        want = mpf_to_fraction(2 / mp.sqrt(mp.pi))
    assert abs(mpf_to_fraction(list(s)[1]) - want) <= Fraction(1, 2 ** 118)


def test_eval_exponential_value():
    got = ml_eval(MLParams(1, 1), 1, precision=128)
    with working_precision(168):
        e = mpf_to_fraction(mp.exp(mp.mpf(1)))
    assert rel(got, e) <= Fraction(1, 2 ** 100)


def test_eval_beta2_value():
    got = ml_eval(MLParams(1, 2), 1, precision=128)
    with working_precision(168):
        want = mpf_to_fraction(mp.exp(mp.mpf(1)) - 1)
    assert rel(got, want) <= Fraction(1, 2 ** 100)


def test_eval_alpha2_cosh_oracle():
    # independent summation oracle: sum 1/(2n)! in exact rationals
    want = sum(Fraction(1, math.factorial(2 * n)) for n in range(40))
    got = ml_eval(MLParams(2, 1), 1, precision=128)
    assert rel(got, want) <= Fraction(1, 2 ** 100)


def test_eval_at_zero():
    got = ml_eval(MLParams(2, 1), 0, precision=128)
    assert mpf_to_fraction(got) == 1


def test_eval_envelope():
    with pytest.raises(DomainError, match="exceeds the evaluation envelope 50"):
        ml_eval(MLParams(1, 1), 51)
    ml_eval(MLParams(1, 1), 50)  # boundary included


def test_eval_tolerance_unreachable_static():
    with pytest.raises(ToleranceUnreachable):
        ml_eval(MLParams(1, 1), 1, tol=Fraction(1, 10 ** 60), precision=64)


def test_eval_tolerance_unreachable_cancellation():
    # alternating sum at z = -50 destroys ~72 bits; 64-bit precision cannot
    # deliver any reasonable relative tolerance there
    with pytest.raises(ToleranceUnreachable):
        ml_eval(MLParams(1, 1), -50, tol=Fraction(1, 10 ** 6), precision=64)


def test_closed_form_domain():
    with pytest.raises(DomainError):
        ml_one_m_closed(1, 1)
    with pytest.raises(DomainError):
        ml_one_m_closed(0, 1)


def test_closed_form_values():
    with working_precision(168):
        e = mpf_to_fraction(mp.exp(mp.mpf(1)))
    assert rel(ml_one_m_closed(2, 1), e - 1) <= Fraction(1, 2 ** 100)
    assert rel(ml_one_m_closed(3, 1), e - 2) <= Fraction(1, 2 ** 100)


def test_closed_form_fallback_region():
    # series oracle 1 + z/2! + z^2/3! + ... at z = 1e-6
    z = Fraction(1, 10 ** 6)
    want = sum(z ** k / math.factorial(k + 1) for k in range(8))
    got = ml_one_m_closed(2, z, precision=128)
    assert abs(mpf_to_fraction(got) - want) / want <= Fraction(1, 10 ** 24)


def test_closed_form_matches_eval_grid():
    # |ml_eval(1, m, z) - closed| <= 1e-12 relative
    zs = [Fraction(1, 2), Fraction(-1, 2), 1, -1, 2]
    for m in range(2, 7):
        p = MLParams(1, m)
        for z in zs:
            a = ml_eval(p, z, precision=128)
            b = ml_one_m_closed(m, z, precision=128)
            assert rel(a, b) <= Fraction(1, 10 ** 12)


def test_series_eval_consistency():
    # summing ml_series coefficients through order 60 agrees with ml_eval
    order = 60
    zs = [Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, -2]
    for a in (Fraction(1, 2), 1, Fraction(3, 2), 2):
        for b in (1, 2, 3):
            p = MLParams(a, b)
            s = ml_series(p, order, 128)
            for z in zs:
                # the partial sum of the stored coefficients, in exact arithmetic
                accs = sum(mpf_to_fraction(c) * Fraction(z) ** k for k, c in enumerate(s))
                got = ml_eval(p, z, precision=128)
                # the order-60 truncation tail dominates (about 1e-15 at
                # alpha=1/2, z=2); 1e-14 is the honest consistency bound
                assert abs(accs - mpf_to_fraction(got)) <= Fraction(1, 10 ** 14) * max(
                    1, abs(mpf_to_fraction(got))
                )


def test_exp_identity_grid():
    # E_{1,1} equals exp on [-2, 2] to 1e-12 relative
    p = MLParams(1, 1)
    for num in range(-8, 9):
        z = Fraction(num, 4)
        got = ml_eval(p, z, precision=128)
        with working_precision(168):
            want = mpf_to_fraction(mp.exp(mp.mpf(num) / 4))
        assert abs(mpf_to_fraction(got) - want) / abs(want) <= Fraction(1, 10 ** 12)


def _rgamma_series(alpha: Fraction, beta: Fraction, z: Fraction, prec: int) -> Fraction:
    """E_{alpha,beta}(z) summed with mpmath's rgamma at prec + 64 bits."""
    with working_precision(prec + 64):
        a = mp.mpf(alpha.numerator) / alpha.denominator
        b = mp.mpf(beta.numerator) / beta.denominator
        zm = mp.mpf(z.numerator) / z.denominator
        total, zpow, n = mp.mpf(0), mp.mpf(1), 0
        while True:
            term = zpow * mp.rgamma(a * n + b)
            total += term
            if n > 10 and abs(term) < abs(total) * mp.mpf(2) ** -(prec + 80):
                return mpf_to_fraction(total)
            zpow *= zm
            n += 1


@pytest.mark.parametrize("prec", [337, 463, 510])
@pytest.mark.parametrize("alpha", [Fraction(17, 11), Fraction(10, 13)])
@pytest.mark.parametrize("z", [Fraction(-5, 8), Fraction(33, 16)])
def test_eval_meets_default_tolerance(prec, alpha, z):
    # the default tolerance 2^-(prec-24) must hold against an independent
    # reference, not only the loose checks of the CLI
    beta = Fraction(6, 5)
    got = ml_eval(MLParams(alpha, beta), z, precision=prec)
    assert rel(got, _rgamma_series(alpha, beta, z, prec)) <= Fraction(1, 2 ** (prec - 24))


@pytest.mark.parametrize("prec", [64, 128, 512])
@pytest.mark.parametrize("alpha", [Fraction(7, 11), Fraction(20, 13), Fraction(3, 2)])
def test_series_coefficients_match_mpmath_at_large_arguments(alpha, prec):
    # arguments alpha n + beta up to about 125; reference: mpmath's rgamma
    # at 64 extra bits, sharing no code with the Spouge path
    tol = Fraction(1, 2 ** (prec - 8))
    for beta in (1, Fraction(6, 5)):
        s = ml_series(MLParams(alpha, beta), 80, prec)
        with working_precision(prec + 64):
            for n in range(81):
                arg = alpha * n + beta
                want = mpf_to_fraction(mp.rgamma(mp.mpf(arg.numerator) / arg.denominator))
                assert rel(list(s)[n], want) <= tol, (beta, n)


def reference_ml_sum(p, z, tol, precision):
    """ml_eval's sum by mpf operators in one wp-bit scope, past its static
    checks: the tolerance rounded as mp.mpf(num) / den, the stopping rule
    and the cancellation check, then one rounding to the precision."""
    wp = precision + 16
    with working_precision(wp):
        zm = fraction_to_mpf(z, wp)
        tolm = mp.mpf(tol.numerator) / tol.denominator
        total, peak = mp.mpf(0), mp.mpf(0)
        term = mp.make_mpf(_rgamma(p.beta, precision, wp))
        zpow, n = mp.mpf(1), 0
        while True:
            total += term
            peak = max(peak, abs(term))
            zpow *= zm
            nxt = zpow * mp.make_mpf(_rgamma(p.alpha * (n + 1) + p.beta, precision, wp))
            if abs(nxt) < tolm * abs(total) and abs(term) > 0:
                ratio = abs(nxt) / abs(term)
                if ratio < mp.mpf(1) / 2 and abs(nxt) / (1 - ratio) < tolm * abs(total):
                    total += nxt
                    break
            term = nxt
            n += 1
        if total == 0 or peak / abs(total) > mp.mpf(2) ** (precision - 8) * tolm:
            raise ToleranceUnreachable(
                f"cancellation in the alternating sum exceeds the {precision}-bit budget "
                f"for tolerance {float(tolm):.3e}"
            )
    return mp.mpf(total, prec=precision)


def outcome(fn, *args):
    """The bits of fn's value, or the message of its ToleranceUnreachable."""
    try:
        return fn(*args)._mpf_
    except ToleranceUnreachable as exc:
        return str(exc)


@pytest.mark.parametrize("prec", [64, 128, 512, 1024])
@pytest.mark.parametrize("tol", [None, Fraction(1, 10 ** 20), Fraction(3, 7 * 2 ** 100)])
@pytest.mark.parametrize("alpha, beta, z", [
    (Fraction(1, 2), 1, Fraction(-3, 2)),  # z < 0
    (2, 1, 0),
    (Fraction(7, 3), Fraction(5, 4), Fraction(9, 4)),  # non-integer alpha and beta
    (Fraction(3, 2), Fraction(2, 3), -7),  # z < 0, cancellation
    (1, 3, Fraction(-5, 2)),
    (1, 1, -15),  # cancellation refused at the default tolerance
])
def test_ml_eval_rounds_like_the_mpf_operator_loop(prec, tol, alpha, beta, z):
    p = MLParams(alpha, beta)
    tol_fr = Fraction(1, 2 ** (prec - 24)) if tol is None else tol
    if tol_fr < Fraction(1, 2 ** (prec - 12)):
        with pytest.raises(ToleranceUnreachable, match="below the resolution"):
            ml_eval(p, z, tol, prec)
        return
    assert outcome(ml_eval, p, z, tol, prec) == outcome(reference_ml_sum, p, Fraction(z), tol_fr, prec)


@pytest.mark.parametrize("prec", [64, 128, 512, 1024])
def test_ml_consistency_partial_sums_round_like_the_mpf_operator_loop(prec):
    # the float partial sums the ml-consistency suite compares with ml_eval
    pairs = suite_ml_consistency(prec)
    seen = 0
    for a in (Fraction(1, 2), 1, Fraction(3, 2), 2):
        for b in (1, 2, 3):
            series = ml_series(MLParams(a, b), 60, prec)
            for z in (Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, -2):
                got, _ = next(pairs)
                if series.precision is None:
                    continue
                with working_precision(prec):
                    want = sum(c * ref.raw_in(Fraction(z) ** k, prec) for k, c in enumerate(series))
                assert got._mpf_ == want._mpf_
                seen += 1
    assert seen == 2 * 3 * 6  # the non-integer alphas 1/2 and 3/2


_ML_POINTS = (0, Fraction(1, 2), Fraction(-1, 2), 2, -2, Fraction(1, 10 ** 6))


@pytest.mark.parametrize("prec", [64, 128, 512])
@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("alpha", [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(10, 13)])
def test_multi_point_ml_eval_equals_one_point_calls_bit_for_bit(prec, alpha, beta):
    # the points share each term's gamma; each keeps its own sum and stopping rule
    p = MLParams(alpha, beta)
    got = [v._mpf_ for v in ml_eval_points(p, _ML_POINTS, precision=prec)]
    assert got == [ml_eval(p, z, precision=prec)._mpf_ for z in _ML_POINTS]
    tol = Fraction(1, 2 ** (prec - 24))
    assert got == [outcome(reference_ml_sum, p, Fraction(z), tol, prec) for z in _ML_POINTS]
    assert ml_eval_points(p, (), precision=prec) == []


@pytest.mark.parametrize("zs, refused", [
    ((Fraction(1, 2), 51, -50), 51),  # the envelope
    ((Fraction(1, 2), -50, 51), -50),  # cancellation, before a later point's envelope refusal
    ((51, -50), 51),
    ((-50, 1, -51), -50),
])
def test_multi_point_ml_eval_raises_the_first_refusal_in_order(zs, refused):
    p, tol = MLParams(1, 1), Fraction(1, 10 ** 6)
    with pytest.raises((DomainError, ToleranceUnreachable)) as one:
        ml_eval(p, refused, tol, 64)
    with pytest.raises((DomainError, ToleranceUnreachable)) as many:
        ml_eval_points(p, zs, tol, 64)
    assert type(many.value) is type(one.value)
    assert str(many.value) == str(one.value)
