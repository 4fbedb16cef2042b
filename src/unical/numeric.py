"""Exact arithmetic on positive rationals.

Conversion factors, prefix values, and rule ratios all live in the
multiplicative group of positive rationals. Everything here is exact:
values are `fractions.Fraction` instances and floats never appear.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable

__all__ = [
    "MAX_RATIO_BITS",
    "ONE",
    "Ratio",
    "RatioError",
    "ratio_bits",
    "ratio_check_bits",
    "ratio_make",
    "ratio_mul",
    "ratio_inv",
    "ratio_pow",
    "ratio_parse",
    "ratio_text",
    "ratio_to_decimal",
]

Ratio = Fraction

ONE = Fraction(1)

MAX_DECIMAL_DIGITS = 50

# Largest bit length accepted for a numerator or denominator. 2^14000 has
# 4215 decimal digits, so every accepted ratio, even scaled by
# 10^MAX_DECIMAL_DIGITS for decimal rendering, stays under Python's
# default 4300-digit limit on int-to-str conversion; larger values would
# also cost time and memory that grow with their size.
MAX_RATIO_BITS = 14_000

# Bits per decimal digit, from below: log2(10) > 3.32.
_BITS_PER_DIGIT_X100 = 332


class RatioError(ValueError):
    """Raised for values or text that do not denote a positive rational."""


def ratio_bits(a: Fraction) -> int:
    """Bit length of the larger of a ratio's numerator and denominator."""
    return max(a.numerator.bit_length(), a.denominator.bit_length())


def ratio_check_bits(bits: int, what: str) -> None:
    """Raise RatioError naming the limit when `bits` exceeds MAX_RATIO_BITS."""
    if bits > MAX_RATIO_BITS:
        raise RatioError(f"{what} is too large: over MAX_RATIO_BITS = {MAX_RATIO_BITS} bits")


def _check_text_bits(bits: int, text: str) -> None:
    """`ratio_check_bits` for ratio text, named by its first 40 characters only when it raises."""
    if bits > MAX_RATIO_BITS:
        ratio_check_bits(bits, f"ratio {text[:40]!r}")


def _ratio_product(powers: Iterable[tuple[tuple[int, int], int]], what: str) -> tuple[int, int, int]:
    """The product of ratio powers ((numerator, denominator), exponent): the one size rule.

    Exponents are summed per integer, +exponent for a numerator and
    -exponent for a denominator, so equal integers cancel and 1 drops out.
    The numerator left has at most sum exponent * bit_length bits over the
    positive exponents, the denominator likewise over the negative ones;
    past MAX_RATIO_BITS either raises RatioError naming `what`, before any
    power is taken. Returns the numerator and denominator, unreduced, and
    the larger sum.
    """
    exponents: dict[int, int] = {}
    for (n, d), z in powers:
        exponents[n] = exponents.get(n, 0) + z
        exponents[d] = exponents.get(d, 0) - z
    exponents.pop(1, None)
    up = sum(e * k.bit_length() for k, e in exponents.items() if e > 0)
    down = sum(-e * k.bit_length() for k, e in exponents.items() if e < 0)
    bits = max(up, down)
    ratio_check_bits(bits, what)
    numerator = denominator = 1
    for k, e in exponents.items():
        if e > 0:
            numerator *= k**e
        elif e < 0:
            denominator *= k**-e
    return numerator, denominator, bits


def ratio_make(num: int, den: int = 1) -> Fraction:
    """Build a reduced positive ratio from an integer numerator and denominator."""
    if isinstance(num, bool) or isinstance(den, bool):
        raise RatioError("ratio components must be integers, not booleans")
    if not isinstance(num, int) or not isinstance(den, int):
        raise RatioError(f"ratio components must be integers, got {num!r}/{den!r}")
    if num < 1 or den < 1:
        raise RatioError(f"ratio components must be positive, got {num}/{den}")
    return Fraction(num, den)


def ratio_mul(a: Fraction, b: Fraction) -> Fraction:
    return a * b


def ratio_inv(a: Fraction) -> Fraction:
    return 1 / a


def ratio_pow(a: Fraction, exponent: int) -> Fraction:
    return a ** exponent


_POWER_RE = re.compile(r"([0-9]+)\^(-?)([0-9]+)\Z")
_DECIMAL_RE = re.compile(r"([0-9]+)\.([0-9]+)\Z")


def _parse_int(digits: str, text: str) -> int:
    """A run of decimal digits in ratio text as an int, refusing more than MAX_RATIO_BITS bits."""
    digits = digits.lstrip("0") or "0"
    # A run of d digits, leading zeros aside, has more than (d - 1) * log2(10) bits.
    _check_text_bits((len(digits) - 1) * _BITS_PER_DIGIT_X100 // 100, text)
    return int(digits)


def ratio_parse(text: str) -> Fraction:
    """Parse ratio text into an exact positive rational.

    Accepted forms: a fraction "p/q" of positive integers, a positive
    integer "n", an integer power "B^E" with base B >= 2 (E may be
    negative), and a decimal "d.ddd" read exactly as digits times a power
    of ten. Anything else, and anything non-positive, raises RatioError,
    as does a value whose numerator or denominator would exceed
    MAX_RATIO_BITS bits; that is checked before the arithmetic. The
    common forms, "p/q" and "n", are read without regular expressions.
    """
    s = text.strip()
    head, slash, tail = s.partition("/")
    if slash:
        if not (head.isdigit() and tail.isdigit() and head.isascii() and tail.isascii()):
            raise RatioError(f"not a positive fraction: {text!r}")
        numerator, denominator = _parse_int(head, text), _parse_int(tail, text)
        if not numerator or not denominator:
            raise RatioError(f"fraction components must be positive: {text!r}")
    elif head.isdigit() and head.isascii():
        numerator, denominator = _parse_int(head, text), 1
        if not numerator:
            raise RatioError(f"ratio must be positive: {text!r}")
    else:
        numerator, denominator = _parse_form(s, text)
    common = gcd(numerator, denominator)
    numerator, denominator = numerator // common, denominator // common
    _check_text_bits(max(numerator.bit_length(), denominator.bit_length()), text)
    return Fraction(numerator, denominator)


def _parse_form(s: str, text: str) -> tuple[int, int]:
    """The rarer forms of stripped ratio text `s`, a power or a decimal, as an unreduced numerator and denominator."""
    power = _POWER_RE.match(s)
    if power is not None:
        base, exponent = _parse_int(power.group(1), text), _parse_int(power.group(3), text)
        if base < 2:
            raise RatioError(f"power base must be at least 2: {text!r}")
        # base^exponent has more than (bits(base) - 1) * exponent bits.
        _check_text_bits((base.bit_length() - 1) * exponent, text)
        return (1, base**exponent) if power.group(2) else (base**exponent, 1)
    decimal = _DECIMAL_RE.match(s)
    if decimal is None:
        raise RatioError(f"not a ratio: {text!r}")
    places = decimal.group(2).rstrip("0")
    # With the last place nonzero, the reduced denominator keeps at
    # least 2^places or 5^places, so it has at least `places` bits.
    _check_text_bits(len(places), text)
    numerator = _parse_int(decimal.group(1) + places, text)
    if not numerator:
        raise RatioError(f"ratio must be positive: {text!r}")
    return numerator, 10 ** len(places)


def ratio_text(a: Fraction) -> str:
    """Canonical rendering: "n" for integers, "p/q" otherwise.

    Raises RatioError for a ratio over MAX_RATIO_BITS bits.
    """
    ratio_check_bits(ratio_bits(a), "ratio")
    if a.denominator == 1:
        return str(a.numerator)
    return f"{a.numerator}/{a.denominator}"


def ratio_to_decimal(a: Fraction, digits: int = 15) -> tuple[str, bool]:
    """Render a ratio as a decimal with at most `digits` fractional places.

    Rounds half to even. Returns the text together with an exactness flag:
    True when the decimal expansion terminated within `digits` places, so
    the text is the exact value rather than a rounding of it. Trailing
    fractional zeros are dropped. Raises RatioError for a ratio over
    MAX_RATIO_BITS bits.
    """
    if not isinstance(digits, int) or isinstance(digits, bool):
        raise RatioError(f"digits must be an integer, got {digits!r}")
    if digits < 0 or digits > MAX_DECIMAL_DIGITS:
        raise RatioError(f"digits must be between 0 and {MAX_DECIMAL_DIGITS}")
    numerator, denominator = a.numerator, a.denominator  # each a Python-level property of Fraction
    ratio_check_bits(max(numerator.bit_length(), denominator.bit_length()), "ratio")
    scaled, remainder = divmod(numerator * 10 ** digits, denominator)
    exact = remainder == 0
    doubled = 2 * remainder
    if doubled > denominator or (doubled == denominator and scaled % 2 == 1):
        scaled += 1
    body = str(scaled)
    if digits:
        body = body.rjust(digits + 1, "0")
        whole, frac = body[:-digits], body[-digits:]
        frac = frac.rstrip("0")
        body = f"{whole}.{frac}" if frac else whole
    return body, exact
