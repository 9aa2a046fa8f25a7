import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from fracpoly.errors import DomainError
from fracpoly.gammafns import _rgamma, _spouge_wp, generalized_binomial, multinomial, reciprocal_gamma
from fracpoly.scalars import mpf_to_fraction, mpf_to_pair
from reference_loops import working_precision


def rel_err(got, want):
    g = mpf_to_fraction(got)
    w = want if isinstance(want, Fraction) else Fraction(want)
    if w == 0:
        return abs(g)
    return abs(g - w) / abs(w)


def test_gamma_positive_integers_exact():
    assert reciprocal_gamma(5) == Fraction(1, 24)
    assert reciprocal_gamma(1) == 1
    got = reciprocal_gamma(9, 64)
    assert type(got) is Fraction and got == Fraction(1, math.factorial(8))


def test_gamma_half():
    for prec in (64, 128, 256):
        got = reciprocal_gamma(Fraction(1, 2), prec)
        assert isinstance(got, mp.mpf) and got._mpf_[3] <= prec  # rounded to prec bits
        with working_precision(prec + 40):
            want = mpf_to_fraction(1 / mp.sqrt(mp.pi))
        assert rel_err(got, want) <= Fraction(1, 2 ** (prec - 8))


def test_gamma_matches_mpmath_on_grid():
    # external reference, independent of the Spouge path
    prec = 128
    for num in list(range(1, 40)) + [55, 77, 123]:
        x = Fraction(num, 4)
        if x.denominator == 1:
            continue
        got = reciprocal_gamma(x, prec)
        with working_precision(prec + 60):
            want = mpf_to_fraction(mpmath.rgamma(mp.mpf(num) / 4))
        assert rel_err(got, want) <= Fraction(1, 2 ** (prec - 8))


def test_gamma_negative_non_integpo():
    prec = 128
    for x in (Fraction(-1, 2), Fraction(-5, 2), Fraction(-13, 4)):
        got = reciprocal_gamma(x, prec)
        with working_precision(prec + 60):
            want = mpf_to_fraction(mpmath.rgamma(mp.mpf(x.numerator) / x.denominator))
        assert rel_err(got, want) <= Fraction(1, 2 ** (prec - 8))


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_gamma_recurrence_invariant(prec):
    # gamma(x+1) = x gamma(x), as |1/gamma(x) - x/gamma(x+1)| / (1/gamma(x))
    # <= 2^(6-p) on the 0.1..10 grid
    tol = Fraction(1, 2 ** (prec - 6))
    for tenx in range(1, 101):
        x = Fraction(tenx, 10)
        rx = mpf_to_fraction(reciprocal_gamma(x, prec))
        rx1 = mpf_to_fraction(reciprocal_gamma(x + 1, prec))
        assert abs(rx - x * rx1) / rx <= tol


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_gamma_reflection_invariant(prec):
    # gamma(x) gamma(1-x) sin(pi x) / pi == 1, as (1/gamma(x)) (1/gamma(1-x))
    # pi / sin(pi x) == 1; sin/pi from mpmath, gammas from the Spouge path
    # (reflection itself is only used for x < 0)
    tol = Fraction(1, 2 ** (prec - 6))
    for num in (1, 2, 3, 4, 6, 7, 8, 9):  # x = num/10, off half-integers
        x = Fraction(num, 10)
        with working_precision(prec + 48):
            s = mp.sinpi(mp.mpf(num) / 10)
            prod = reciprocal_gamma(x, prec) * reciprocal_gamma(1 - x, prec) * mp.pi / s
            assert abs(mpf_to_fraction(prod) - 1) <= tol


def test_reciprocal_gamma_zeros():
    assert mpf_to_fraction(reciprocal_gamma(0)) == 0
    assert mpf_to_fraction(reciprocal_gamma(1)) == 1
    assert mpf_to_fraction(reciprocal_gamma(-2)) == 0
    assert mpf_to_fraction(reciprocal_gamma(-25)) == 0


def test_reciprocal_gamma_exact_at_integers():
    # the entire function is rational at the integers and stays exact there
    for x, want in ((-3, 0), (0, 0), (1, 1), (5, Fraction(1, 24)), (Fraction(8, 2), Fraction(1, 6))):
        got = reciprocal_gamma(x, 64)
        assert type(got) is Fraction and got == want


def test_reciprocal_gamma_matches_inverse():
    prec = 128
    for x in (Fraction(1, 2), Fraction(7, 3), Fraction(-3, 2)):
        lhs = mpf_to_fraction(reciprocal_gamma(x, prec))
        rhs = 1 / _mpmath_gamma(x, prec)
        assert abs(lhs - rhs) / abs(rhs) <= Fraction(1, 2 ** (prec - 10))


def test_reciprocal_gamma_continuous_at_poles():
    # |1/gamma(-k +- eps)| decreases monotonically to 0 as eps shrinks below 1e-6
    prec = 128
    for k in (0, 1, 2, 5):
        for sign in (1, -1):
            vals = []
            for e in range(7, 13):  # eps = 10^-7 .. 10^-12
                eps = Fraction(sign, 10 ** e)
                vals.append(abs(mpf_to_fraction(reciprocal_gamma(Fraction(-k) + eps, prec))))
            assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
            assert vals[-1] < Fraction(1, 10 ** 6)


def test_gamma_ratio_beta_identity():
    # B(x, y) = gamma(x) gamma(y) / gamma(x+y) against closed forms
    prec = 128
    tol = Fraction(1, 2 ** (prec - 10))

    def beta(x, y):
        rg = [mpf_to_fraction(reciprocal_gamma(v, prec)) for v in (x + y, x, y)]
        return rg[0] / (rg[1] * rg[2])

    assert beta(1, 1) == 1
    # oracle: 1! 2! / 4! = 1/12
    want = Fraction(math.factorial(1) * math.factorial(2), math.factorial(4))
    assert want == Fraction(1, 12)
    assert abs(beta(2, 3) - want) / want <= tol
    # oracle: gamma(1/2)^2 / gamma(1) = pi
    with working_precision(168):
        want_pi = mpf_to_fraction(+mp.pi)
    assert abs(beta(Fraction(1, 2), Fraction(1, 2)) - want_pi) / want_pi <= tol
    # oracle: B(x, 1 - x) = pi / sin(pi x), across the split into [1, 2)
    for x in (Fraction(1, 3), Fraction(7, 4), Fraction(-5, 2)):
        with working_precision(prec + 40):
            want = mpf_to_fraction(mp.pi / mp.sinpi(mp.mpf(x.numerator) / x.denominator))
        assert abs(beta(x, 1 - x) - want) / abs(want) <= tol


def test_generalized_binomial():
    assert generalized_binomial(Fraction(1, 2), 0) == 1
    # falling-factorial oracle: (1/2)(-1/2)/2! = -1/8
    assert Fraction(1, 2) * Fraction(-1, 2) / 2 == Fraction(-1, 8)
    assert generalized_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert generalized_binomial(0.5, 2) == Fraction(-1, 8)  # float literal coerces exactly
    assert generalized_binomial(3, 2) == 3
    assert generalized_binomial(3, 5) == 0  # integer upper index truncates


def test_generalized_binomial_float_index_counts_exactly():
    # a Python float counts as its exact binary value; an mpf, which has no
    # precision of its own, is refused
    got = generalized_binomial(0.5, 2)
    assert isinstance(got, Fraction)
    assert got == Fraction(-1, 8)
    with pytest.raises(TypeError):
        generalized_binomial(mp.mpf(0.5), 2)


def test_multinomial_values():
    assert multinomial([2]) == 1
    assert multinomial([1, 1, 1]) == 6
    # factorial oracle: 4!/2! = 12
    assert Fraction(math.factorial(4), math.factorial(2)) == 12
    assert multinomial([2, 1, 1]) == 12
    assert type(multinomial([2, 1, 1])) is int


def test_multinomial_composition_sum():
    # sum over compositions of r into h parts equals h^r
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for h in range(1, 5):
        for r in range(0, 9):
            total = sum(multinomial(c) for c in compositions(r, h))
            assert total == h ** r


def test_multinomial_rejects_negative():
    with pytest.raises(DomainError):
        multinomial([1, -1])


# arguments k/11 and k/13 in (-20, 80), poles excluded: the reflection
# branch below 0 and the shifts of the Spouge core in both directions
SWEEP_ARGS = [Fraction(k, q) for q, stride in ((11, 7), (13, 9))
              for k in range(-20 * q + 1, 80 * q, stride) if k % q]


def _mpmath_gamma(x: Fraction, prec: int) -> Fraction:
    with working_precision(prec + 64):
        return mpf_to_fraction(mpmath.gamma(mp.mpf(x.numerator) / x.denominator))


@pytest.mark.parametrize("prec", [64, 128, 256, 511, 1024])
def test_spouge_accuracy_sweep(prec):
    tol = Fraction(1, 2 ** (prec - 8))
    for x in SWEEP_ARGS:
        want = _mpmath_gamma(x, prec)
        assert rel_err(reciprocal_gamma(x, prec), 1 / want) <= tol, x


@pytest.mark.parametrize("prec", [64, 128, 256, 511, 1024])
def test_spouge_core_accuracy_under_any_scope(prec):
    # the accuracy must not hinge on the working precision: ml_eval calls
    # the core at prec + 16, reciprocal_gamma at the Spouge working
    # precision; the arguments are exact, so the reference is mpmath's
    # gamma at the same rational
    tol = Fraction(1, 2 ** (prec - 8))
    for wp in (prec + 16, _spouge_wp(prec)):
        for x in SWEEP_ARGS:
            got = Fraction(*mpf_to_pair(_rgamma(x, prec, wp)))
            want = 1 / _mpmath_gamma(x, prec)
            assert abs(got - want) / abs(want) <= tol, (wp, x)


# far from [1, 2): long rising products above (up to about 300) and the
# reflection branch well below 0, with denominators that share no factor
LARGE_ARGS = [Fraction(k, q) for q in (3, 7, 11, 13)
              for k in (q * 300 - 1, q * 157 + 2, q * 41 + 1, -q * 60 - 1, -q * 7 - 2)]


@pytest.mark.parametrize("prec", [64, 128, 512])
def test_gamma_accuracy_at_large_arguments(prec):
    tol = Fraction(1, 2 ** (prec - 8))
    for x in LARGE_ARGS:
        want = _mpmath_gamma(x, prec)
        assert rel_err(reciprocal_gamma(x, prec), 1 / want) <= tol, x
