import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from fracpoly.errors import DomainError
from fracpoly.scalars import (
    DEFAULT_PRECISION,
    MAX_DECIMAL_EXPONENT,
    MAX_PRECISION,
    Scalar,
    as_scalar,
    check_precision,
    decimal_str,
    fraction_to_mpf,
    mpf_to_fraction,
    working_precision,
)

fracs = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def test_exact_construction_normalized():
    s = as_scalar(Fraction(6, -4))
    assert s.is_exact
    assert s.value == Fraction(-3, 2)
    assert s.value.denominator == 2  # gcd reduced, denominator positive


def test_float_input_is_exact_dyadic():
    s = as_scalar(0.5)
    assert s.is_exact and s.value == Fraction(1, 2)
    s = as_scalar(0.3)
    assert s.is_exact and s.value == Fraction(0.3)  # the dyadic, not 3/10


def test_string_input():
    assert as_scalar("3/7").value == Fraction(3, 7)
    assert as_scalar("0.3").value == Fraction(3, 10)


def test_string_exponent_is_bounded_before_parsing():
    assert as_scalar(f"1e{MAX_DECIMAL_EXPONENT}").value == 10 ** MAX_DECIMAL_EXPONENT
    assert as_scalar(f"2.5E-{MAX_DECIMAL_EXPONENT} ").value == Fraction(25, 10 ** (MAX_DECIMAL_EXPONENT + 1))
    # each of these would take seconds to minutes inside Fraction
    for text in ("1e30000000", "1E-30000000", "-3.5e+1_0000000", "1e999999999"):
        with pytest.raises(DomainError):
            as_scalar(text)


def test_exact_arithmetic_stays_exact():
    a = as_scalar(Fraction(1, 3))
    b = as_scalar(Fraction(1, 6))
    assert (a + b).is_exact and (a + b).value == Fraction(1, 2)
    assert (a * b).value == Fraction(1, 18)
    assert (a / b).value == 2
    assert (a - b).value == Fraction(1, 6)


def test_mixed_promotes_to_max_precision():
    a = Scalar.big(1, 96)
    b = Scalar.big(2, 192)
    c = as_scalar(Fraction(1, 3))
    assert (a + b).precision == 192
    assert (a + c).precision == 96
    assert (c * c).is_exact


def test_big_requires_min_precision():
    with pytest.raises(DomainError):
        Scalar.big(1, 32)


def test_precision_is_capped():
    assert check_precision(MAX_PRECISION) == MAX_PRECISION == 8192
    for bits in (MAX_PRECISION + 1, 10 ** 9):
        with pytest.raises(DomainError):
            check_precision(bits)
    with pytest.raises(DomainError):
        Scalar.big(1, MAX_PRECISION + 1)
    # a float at the cap still prints within Python's int-to-str limit
    assert str(Scalar.big(Fraction(-1, 3), MAX_PRECISION)).startswith("-0.333")

def test_comparisons_cross_domain_exact():
    assert Scalar.big(0.5, 128) == as_scalar(Fraction(1, 2))
    # 1/3 is not dyadic, so the float of it differs from the exact value
    assert Scalar.big(Fraction(1, 3), 128) != as_scalar(Fraction(1, 3))


@given(fracs)
def test_mpf_fraction_roundtrip(q):
    s = Scalar.big(q, 128)
    back = mpf_to_fraction(s.value)
    # the stored float is some dyadic close to q; converting back is exact
    assert Scalar.big(back, 128).value == s.value


def test_fraction_to_mpf_rounds_once():
    # q lies 3e-6 of a unit in the last place below the midpoint of two
    # 64-bit neighbours, so rounding at 80 bits first and then at 64 picks
    # the upper one (...401 * 2^7); the nearest is ...400 * 2^7
    q = Fraction(353434878672652946128304890531, 169136543)
    got = mpf_to_fraction(fraction_to_mpf(q, 64))
    assert got == 16325330650929179400 * 2 ** 7
    below, above = got - 2 ** 7, got + 2 ** 7
    assert abs(q - got) < min(abs(q - below), abs(q - above))


@given(fracs, fracs)
def test_exact_field_ops(a, b):
    sa, sb = as_scalar(a), as_scalar(b)
    assert (sa + sb).value == a + b
    assert (sa * sb).value == a * b
    if b != 0:
        assert (sa / sb).value == Fraction(a, 1) / b


def test_decimal_str_roundtrips():
    for prec in (64, 128, 192):
        for val in ("2.718281828459045235360287471352662497757",
                    "-0.0001220703125", "1048576", "0.1"):
            with working_precision(prec):
                s = Scalar.big(mp.mpf(val), prec)
            text = decimal_str(s)
            assert Scalar.big(Fraction(text), prec).value == s.value


def test_decimal_str_prefers_short():
    s = Scalar.big(24, 128)
    assert decimal_str(s) == "24.0"


def _decimal_str_scan_from_one(s: Scalar) -> str:
    """decimal_str as a plain scan over every digit count from 1."""
    prec, x = s.precision, s.value
    if x == 0:
        return "0.0"
    max_digits = int(math.ceil(prec * math.log10(2))) + 2
    with working_precision(prec):
        for digits in range(1, max_digits + 1):
            cand = mp.nstr(x, digits, strip_zeros=True)
            if mp.mpf(cand) == x:
                return cand
        return mp.nstr(x, max_digits, strip_zeros=False)


@st.composite
def float_scalars(draw):
    """Big floats at 64..600 bits: random mantissas, short decimals, powers
    of two (binade edges) and powers of ten one ulp off, either sign."""
    prec = draw(st.integers(64, 600))
    kind = draw(st.sampled_from(["mantissa", "decimal", "power2", "power10"]))
    with working_precision(prec):
        if kind == "mantissa":
            man = draw(st.integers(1, 2 ** prec - 1))
            x = mp.ldexp(man, draw(st.integers(-1200, 1200)))
        elif kind == "decimal":
            x = mp.mpf(f"{draw(st.integers(1, 10 ** 9))}e{draw(st.integers(-30, 30))}")
        elif kind == "power2":
            x = mp.ldexp(1, draw(st.integers(-1200, 1200)))
        else:
            x = mp.mpf(10) ** draw(st.integers(-40, 40))
            x *= 1 + draw(st.sampled_from([-1, 0, 1])) * mp.eps
        if draw(st.booleans()):
            x = -x
    return Scalar.big(x, prec)


@settings(max_examples=300, deadline=None)
@given(float_scalars())
def test_decimal_str_equals_scan_from_one(s):
    assert decimal_str(s) == _decimal_str_scan_from_one(s)


def test_str_rational_format():
    assert str(as_scalar(Fraction(-3, 7))) == "-3/7"
    assert str(as_scalar(5)) == "5"

