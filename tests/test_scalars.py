import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from fracpoly.errors import DomainError
from fracpoly.fractional import FracExpansion
from fracpoly.scalars import (
    DEFAULT_PRECISION,
    MAX_DECIMAL_EXPONENT,
    MAX_PRECISION,
    Coefficients,
    as_rational,
    check_precision,
    decimal_str,
    mpf_to_fraction,
    mpf_to_pair,
    render,
    tuple_in,
)
from fracpoly.series import TruncatedSeries, cauchy_product, reciprocal, series_add
from reference_loops import fraction_to_mpf, working_precision

fracs = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def test_exact_construction_normalized():
    s = as_rational(Fraction(6, -4))
    assert type(s) is Fraction
    assert s == Fraction(-3, 2)
    assert s.denominator == 2  # gcd reduced, denominator positive


def test_float_input_is_exact_dyadic():
    s = as_rational(0.5)
    assert type(s) is Fraction and s == Fraction(1, 2)
    s = as_rational(0.3)
    assert type(s) is Fraction and s == Fraction(0.3)  # the dyadic, not 3/10


def test_string_input():
    assert as_rational("3/7") == Fraction(3, 7)
    assert as_rational("0.3") == Fraction(3, 10)


def test_string_exponent_is_bounded_before_parsing():
    assert as_rational(f"1e{MAX_DECIMAL_EXPONENT}") == 10 ** MAX_DECIMAL_EXPONENT
    assert as_rational(f"2.5E-{MAX_DECIMAL_EXPONENT} ") == Fraction(25, 10 ** (MAX_DECIMAL_EXPONENT + 1))
    # each of these would take seconds to minutes inside Fraction
    for text in ("1e30000000", "1E-30000000", "-3.5e+1_0000000", "1e999999999"):
        with pytest.raises(DomainError):
            as_rational(text)


def test_exact_arithmetic_stays_exact():
    # the containers compute on raw values, and exact stays exact
    a = TruncatedSeries([Fraction(1, 3), 1])
    b = TruncatedSeries([Fraction(1, 6), -2])
    assert list(series_add(a, b)) == [Fraction(1, 2), -1]
    assert list(cauchy_product(a, b)) == [Fraction(1, 18), Fraction(-1, 2)]
    assert list(reciprocal(b)) == [6, 72]
    scaled = a.scale(Fraction(2, 3))
    assert scaled.precision is None and all(type(c) is Fraction for c in scaled)
    assert list(FracExpansion([((Fraction(1, 3), 2), 1)])) == [(Fraction(2, 3), 1)]


def test_mixed_promotes_to_max_precision():
    # an operation joins its operands' domains: the largest precision, or
    # exact when every operand is exact; a constructor takes floats at its
    # precision, and is exact when every value is exact
    a = TruncatedSeries([mp.mpf(1)], 96)
    b = TruncatedSeries([mp.mpf(2)], 192)
    c = TruncatedSeries([Fraction(1, 3)])
    assert series_add(a, b).precision == 192 and mpf_to_fraction(list(series_add(a, b))[0]) == 3
    assert series_add(a, c).precision == 96
    with working_precision(96):
        assert list(series_add(a, c))[0]._mpf_ == (1 + fraction_to_mpf(Fraction(1, 3), 96))._mpf_
    assert series_add(c, c).precision is None
    assert TruncatedSeries([Fraction(1, 3), mp.mpf(1)], 96).precision == 96
    assert TruncatedSeries([Fraction(1, 3)], 96).precision is None
    third = fraction_to_mpf(Fraction(1, 3), 96)
    assert FracExpansion([(Fraction(1, 3), 0), ((Fraction(1, 3), third), 1), (mp.mpf(2), 2)], 192).precision == 192


def test_as_scalar_refuses_an_mpf():
    # an mpf carries no working precision of its own: only a container
    # takes one, with its precision
    with pytest.raises(TypeError):
        as_rational(mp.mpf(1))
    with pytest.raises(TypeError):
        TruncatedSeries([mp.mpf(1)])
    assert TruncatedSeries([mp.mpf(1)], 96).precision == 96


def test_big_requires_min_precision():
    # a float container below 64 bits is refused
    with pytest.raises(DomainError):
        TruncatedSeries([mp.mpf(1)], 32)


def test_precision_is_capped():
    assert check_precision(MAX_PRECISION) == MAX_PRECISION == 8192
    for bits in (MAX_PRECISION + 1, 10 ** 9):
        with pytest.raises(DomainError):
            check_precision(bits)
    with pytest.raises(DomainError):
        TruncatedSeries([mp.mpf(1)], MAX_PRECISION + 1)
    # a float at the cap still prints within Python's int-to-str limit
    assert render(fraction_to_mpf(Fraction(-1, 3), MAX_PRECISION), MAX_PRECISION).startswith("-0.333")

def test_comparisons_cross_domain_exact():
    assert mpf_to_fraction(fraction_to_mpf(Fraction(1, 2), 128)) == Fraction(1, 2)
    # 1/3 is not dyadic, so the float of it differs from the exact value
    assert mpf_to_fraction(fraction_to_mpf(Fraction(1, 3), 128)) != Fraction(1, 3)


def test_container_equality_compares_domains():
    # mpmath compares an mpf with a Fraction through a 53-bit float, so the
    # raw tuples of these two containers may compare equal; the containers
    # must not
    x53 = fraction_to_mpf(Fraction(1, 3), 53)
    assert Coefficients([x53], 64) != Coefficients([Fraction(1, 3)])
    assert Coefficients([Fraction(1, 3)]) != Coefficients([x53], 64)
    assert Coefficients([x53], 64) == Coefficients([x53], 64)
    assert Coefficients([mp.mpf(1)], 64) != Coefficients([mp.mpf(1)], 128)
    assert Coefficients([Fraction(1, 3), 2]) == Coefficients([Fraction(2, 6), Fraction(2)])


@given(fracs)
def test_mpf_fraction_roundtrip(q):
    x = fraction_to_mpf(q, 128)
    back = mpf_to_fraction(x)
    # the stored float is some dyadic close to q; converting back is exact
    assert fraction_to_mpf(back, 128)._mpf_ == x._mpf_
    # the pair is the reduced one a Fraction holds, with no gcd taken
    assert mpf_to_pair(x._mpf_) == (back.numerator, back.denominator)


def test_mpf_to_pair_of_zero_and_non_finite_floats():
    assert mpf_to_pair(mp.mpf(0)._mpf_) == (0, 1)
    assert mpf_to_pair(mp.mpf(-96)._mpf_) == (-96, 1)
    for x in (mp.inf, -mp.inf, mp.nan):
        with pytest.raises(DomainError, match="non-finite float"):
            mpf_to_pair(x._mpf_)


def test_tuple_in_rounds_an_exact_value_once():
    # q lies 3e-6 of a unit in the last place below the midpoint of two
    # 64-bit neighbours, so rounding at 80 bits first and then at 64 picks
    # the upper one (...401 * 2^7); the nearest is ...400 * 2^7
    q = Fraction(353434878672652946128304890531, 169136543)
    got = Fraction(*mpf_to_pair(tuple_in(q, 64)))
    assert got == 16325330650929179400 * 2 ** 7
    below, above = got - 2 ** 7, got + 2 ** 7
    assert abs(q - got) < min(abs(q - below), abs(q - above))


@given(fracs, fracs)
def test_exact_field_ops(a, b):
    # the containers' exact arithmetic is Fraction arithmetic
    sa, sb = TruncatedSeries.constant(a, 0), TruncatedSeries.constant(b, 0)
    assert list(series_add(sa, sb)) == [a + b]
    assert list(cauchy_product(sa, sb)) == [a * b]
    assert [c for c, _ in FracExpansion([((a, b), 0)])] == ([a * b] if a * b else [])
    if b != 0:
        assert list(reciprocal(sb)) == [1 / b]


def test_decimal_str_roundtrips():
    for prec in (64, 128, 192):
        for val in ("2.718281828459045235360287471352662497757",
                    "-0.0001220703125", "1048576", "0.1"):
            with working_precision(prec):
                x = mp.mpf(val)
            text = decimal_str(x, prec)
            assert fraction_to_mpf(Fraction(text), prec)._mpf_ == x._mpf_


def test_decimal_str_prefers_short():
    assert decimal_str(mp.mpf(24), 128) == "24.0"


def _decimal_str_scan_from_one(x, prec: int) -> str:
    """decimal_str as a plain scan over every digit count from 1."""
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
    return x, prec


@settings(max_examples=300, deadline=None)
@given(float_scalars())
def test_decimal_str_equals_scan_from_one(s):
    assert decimal_str(*s) == _decimal_str_scan_from_one(*s)


def test_str_rational_format():
    assert render(Fraction(-3, 7), None) == "-3/7"
    assert render(5, None) == "5"
    assert render(Fraction(-3, 7), 128) == "-3/7"  # an exact value ignores the precision

