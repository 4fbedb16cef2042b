from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unical import RatioError, ratio_make, ratio_parse, ratio_text, ratio_to_decimal
from unical.numeric import MAX_DECIMAL_DIGITS, MAX_RATIO_BITS, ratio_inv, ratio_mul, ratio_pow

positive_ratios = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6)
).filter(lambda a: a > 0)


def test_make_defaults_denominator():
    assert ratio_make(7) == Fraction(7)
    assert ratio_make(3, 4) == Fraction(3, 4)


@pytest.mark.parametrize("num,den", [(0, 1), (-1, 1), (1, 0), (1, -2), (True, 1), (1, True)])
def test_make_rejects_nonpositive_and_bool(num, den):
    with pytest.raises((RatioError, TypeError)):
        ratio_make(num, den)


def test_make_rejects_floats():
    with pytest.raises((RatioError, TypeError)):
        ratio_make(1.5)  # type: ignore[arg-type]


def test_parse_integer_and_fraction():
    assert ratio_parse("45359237") == Fraction(45359237)
    assert ratio_parse("1/3") == Fraction(1, 3)


def test_parse_power():
    assert ratio_parse("10^-2") == Fraction(1, 100)
    assert ratio_parse("2^10") == Fraction(1024)
    assert ratio_parse("10^0") == Fraction(1)


def test_parse_decimal():
    assert ratio_parse("453.59237") == Fraction(45359237, 100000)
    assert ratio_parse("0.001") == Fraction(1, 1000)
    assert ratio_parse("5.0") == Fraction(5)


@pytest.mark.parametrize(
    "text",
    ["", "abc", "-3", "0", "1/0", "0/5", "1.2.3", "10^", "^3", "1^5", "0^2", "3 / 4", "+2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(RatioError):
        ratio_parse(text)


@pytest.mark.parametrize(
    "text",
    ["10^-10000000", "2^14000", "2^" + "9" * 5000, "7" * 5000, "1/" + "3" * 5000, "0." + "0" * 20000 + "1"],
)
def test_parse_refuses_ratios_past_the_limit(text):
    with pytest.raises(RatioError, match="MAX_RATIO_BITS"):
        ratio_parse(text)


def test_ratio_limit_keeps_values_at_the_limit():
    largest = Fraction(2**MAX_RATIO_BITS - 1)
    assert ratio_parse(f"2^{MAX_RATIO_BITS - 1}") == 2 ** (MAX_RATIO_BITS - 1)
    assert ratio_parse("1." + "0" * 100000) == 1
    assert ratio_parse(ratio_text(1 / largest)) == 1 / largest
    text, exact = ratio_to_decimal(largest, MAX_DECIMAL_DIGITS)
    assert exact and Fraction(text) == largest
    for over in (largest + 1, 1 / (largest + 1)):
        with pytest.raises(RatioError, match="MAX_RATIO_BITS"):
            ratio_text(over)
        with pytest.raises(RatioError, match="MAX_RATIO_BITS"):
            ratio_to_decimal(over)


def test_text_forms():
    assert ratio_text(Fraction(7)) == "7"
    assert ratio_text(Fraction(22, 7)) == "22/7"
    assert ratio_text(Fraction(10, 5)) == "2"


def test_to_decimal_exact():
    text, exact = ratio_to_decimal(Fraction(1, 4), 6)
    assert (text, exact) == ("0.25", True)
    text, exact = ratio_to_decimal(Fraction(5), 3)
    assert (text, exact) == ("5", True)


def test_to_decimal_round_half_even():
    assert ratio_to_decimal(Fraction(1, 8), 2) == ("0.12", False)
    assert ratio_to_decimal(Fraction(3, 8), 2) == ("0.38", False)
    assert ratio_to_decimal(Fraction(3, 2), 0) == ("2", False)
    assert ratio_to_decimal(Fraction(1, 2), 0) == ("0", False)


def test_to_decimal_small_values_keep_leading_zero():
    assert ratio_to_decimal(Fraction(1, 1000), 6) == ("0.001", True)
    assert ratio_to_decimal(Fraction(1, 3), 4) == ("0.3333", False)


def test_to_decimal_digit_bounds():
    with pytest.raises(RatioError):
        ratio_to_decimal(Fraction(1, 3), MAX_DECIMAL_DIGITS + 1)
    with pytest.raises(RatioError):
        ratio_to_decimal(Fraction(1, 3), -1)
    text, exact = ratio_to_decimal(Fraction(1, 3), MAX_DECIMAL_DIGITS)
    assert len(text) == MAX_DECIMAL_DIGITS + 2 and not exact


def test_operations_stay_exact():
    a = Fraction(22, 7)
    assert ratio_mul(a, ratio_inv(a)) == 1
    assert ratio_pow(a, 0) == 1
    assert ratio_pow(a, -2) == Fraction(49, 484)


@given(positive_ratios)
def test_parse_text_roundtrip(a):
    assert ratio_parse(ratio_text(a)) == a


@given(positive_ratios, st.integers(min_value=0, max_value=12))
def test_to_decimal_exact_iff_denominator_divides(a, digits):
    _, exact = ratio_to_decimal(a, digits)
    assert exact == ((a.numerator * 10**digits) % a.denominator == 0)


@given(positive_ratios, st.integers(min_value=1, max_value=10))
def test_to_decimal_value_within_half_ulp(a, digits):
    text, exact = ratio_to_decimal(a, digits)
    rendered = Fraction(text)
    error = abs(rendered - a)
    assert error <= Fraction(1, 2 * 10**digits)
    if exact:
        assert rendered == a
