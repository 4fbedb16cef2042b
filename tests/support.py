"""Shared helpers for the test suite: tiny systems and random data."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from typing import Any, Callable

from unical import (
    ExponentMap,
    PreUnit,
    UnitSystem,
    defining_conversion,
    em_delta,
    em_empty,
    em_mul,
    em_pow,
    evaluate,
    prefix_unit,
    rwr_eval,
    val,
)
from unical.registry import MAX_UNIT_NESTING, UnitSyntaxError, _exponent, _normalize

TEST_PREFIXES = {
    "p2": Fraction(2),
    "p3": Fraction(3),
    "p5": Fraction(5),
    "h7": Fraction(1, 7),
}


def dimensionless_system(bases):
    """A system whose base units all have the empty dimension.

    Every replacement unit then trivially preserves dimension, which lets
    random rule generators pick replacements of any shape.
    """
    return UnitSystem(
        base_dimensions=frozenset(),
        base_prefixes=TEST_PREFIXES,
        base_units={base: em_empty() for base in bases},
    )


def own_dimension_system(bases, dimensioned):
    """`dimensionless_system`, but each base in `dimensioned` gets its own dimension.

    The dimension is named after the base.
    """
    units = dict.fromkeys(bases, em_empty())
    units.update((base, em_delta(base)) for base in dimensioned)
    return UnitSystem(frozenset(dimensioned), TEST_PREFIXES, units)


def unit_of(*parts):
    """Build a unit from (base, exponent) or (base, exponent, prefix-dict)."""
    out = em_empty()
    for part in parts:
        base, exponent = part[0], part[1]
        word = ExponentMap(part[2]) if len(part) > 2 else em_empty()
        out = em_mul(out, em_pow(prefix_unit(word, base), exponent))
    return out


def bare(base, exponent=1):
    return em_pow(prefix_unit(em_empty(), base), exponent)


def random_prefix_word(rng, system, max_symbols=2):
    word = {}
    symbols = sorted(system.base_prefixes)
    for symbol in rng.sample(symbols, k=rng.randint(1, max_symbols)):
        word[symbol] = rng.choice([-2, -1, 1, 2])
    return ExponentMap(word)


def random_unit(rng, system, max_parts=4, prefix_chance=0.5, exponents=(-3, -2, -1, 1, 2, 3)):
    bases = sorted(system.base_units)
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        word = (
            random_prefix_word(rng, system)
            if rng.random() < prefix_chance
            else em_empty()
        )
        parts.append(em_pow(prefix_unit(word, rng.choice(bases)), rng.choice(exponents)))
    return reduce(em_mul, parts, em_empty())


def random_chain_system(rng, base_count, rule_count, prefix_chance=0.3):
    """A random well-defining system with a known exact iteration count.

    Bases b0..b(n-1); the first `rule_count` get rules, and the rule for
    b(i) always mentions b(i+1) while drawing any extra factors from
    strictly later bases, so dependencies strictly descend the index and
    the dependency depth of b(i) is exactly rule_count - i. Replacement
    exponents are all positive, so no cancellation can short-circuit the
    rewriting: fully expanding b0 takes exactly rule_count passes.

    Returns (system, rules, bases).
    """
    assert 1 <= rule_count < base_count or (rule_count == base_count == 1)
    bases = [f"b{i}" for i in range(base_count)]
    system = dimensionless_system(bases)
    rules = {}
    for index in range(rule_count):
        factors = {}
        later = bases[index + 1 :]
        if index + 1 < rule_count:
            factors[bases[index + 1]] = rng.randint(1, 3)
        for extra in rng.sample(later, k=min(len(later), rng.randint(0, 2))):
            factors.setdefault(extra, rng.randint(1, 3))
        if index + 1 >= rule_count and rng.random() < 0.3:
            factors = {}
        replacement = em_empty()
        for base, exponent in factors.items():
            word = (
                random_prefix_word(rng, system)
                if rng.random() < prefix_chance
                else em_empty()
            )
            replacement = em_mul(replacement, em_pow(prefix_unit(word, base), exponent))
        ratio = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        rules[bases[index]] = (ratio, replacement)
    return system, defining_conversion(system, rules), bases


_INJECTED_FACTORS = tuple(Fraction(*pair) for pair in ((2, 1), (3, 1), (1, 2), (3, 2), (2, 3), (5, 4), (7, 9)))


def _small_ratio(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def random_cyclic_rules(rng, consistent, prefix_chance=0.3, changing_dimension=False):
    """Random rules, as a plain mapping, that hold exactly one dependency cycle.

    Bases c0..c(k-1) form the cycle: the rule for c(i) rewrites it into
    c(i+1), behind a random prefix word with `prefix_chance`, at a random
    ratio, and the last rule closes the cycle at one over the product of
    every ratio and prefix value met before it, so one trip round the
    cycle multiplies by exactly one. When not `consistent` the closing
    ratio carries an extra factor other than one. Feeder bases f0.. get
    rules into the cycle; no rule mentions a feeder, so the only integer
    relation among the rules is one trip round the cycle, and its ratio
    product is the factor.

    With `changing_dimension` the cycle has two to four bases, each with
    a dimension of its own, and the feeders are dimensionless, so every
    cycle rule changes dimension and the mapping is not defining.

    Returns (system, rules, factor), with factor 1 when consistent.
    """
    cycle = [f"c{i}" for i in range(rng.randint(2 if changing_dimension else 1, 4))]
    feeders = [f"f{i}" for i in range(rng.randint(0, 2))]
    system = own_dimension_system(cycle + feeders, cycle if changing_dimension else ())
    factor = Fraction(1) if consistent else rng.choice(_INJECTED_FACTORS)
    rules = {}
    product = Fraction(1)
    for index, base in enumerate(cycle):
        word = random_prefix_word(rng, system) if rng.random() < prefix_chance else em_empty()
        product *= val(system, word)
        ratio = factor / product if index == len(cycle) - 1 else _small_ratio(rng)
        product *= ratio
        rules[base] = (ratio, em_delta(PreUnit(word, cycle[(index + 1) % len(cycle)])))
    cycle_system = dimensionless_system(cycle)
    for base in feeders:
        rules[base] = (_small_ratio(rng), random_unit(rng, cycle_system, max_parts=2, prefix_chance=prefix_chance))
    return system, rules, factor


def random_cyclic_system(rng, consistent, prefix_chance=0.3):
    """`random_cyclic_rules` with dimensionless bases, as a defining system."""
    system, rules, factor = random_cyclic_rules(rng, consistent, prefix_chance)
    return system, defining_conversion(system, rules), factor


def chain_registry_text(length):
    """A registry of `length` units in one chain of rules, each worth 2 of the next.

    Returns (text, first symbol, last symbol); the first unit is
    2^(length - 1) of the last, and the rules' iteration bound is
    length - 1.
    """
    symbols = [f"q{chr(97 + i // 676)}{chr(97 + i // 26 % 26)}{chr(97 + i % 26)}" for i in range(length)]
    lines = ["[dimensions]", "D", "", "[units]"]
    lines += [f"{symbol} D" for symbol in symbols]
    lines += ["", "[rules]"]
    lines += [f"{symbol} 2 {following}" for symbol, following in zip(symbols, symbols[1:])]
    return "\n".join(lines) + "\n", symbols[0], symbols[-1]


def dense_cycle_registry_text(count, seed=0):
    """A registry of `count` units of one dimension whose rules are all in one dense cycle.

    Each unit's rule rewrites it, at a ratio of digits 2 to 9, into a
    product of three other units whose exponents sum to one, so that the
    dimension holds. Solving the rules' integer relations costs time
    cubic in `count`.
    """
    rng = random.Random(seed)
    symbols = [f"q{chr(97 + i // 676)}{chr(97 + i // 26 % 26)}{chr(97 + i % 26)}" for i in range(count)]
    lines = ["[dimensions]", "L", "", "[units]"]
    lines += [f"{symbol} L" for symbol in symbols]
    lines += ["", "[rules]"]
    for symbol in symbols:
        others = rng.sample([other for other in symbols if other != symbol], 3)
        exponents = [rng.randint(-3, 3), rng.randint(-3, 3)]
        exponents.append(1 - sum(exponents))
        product = "*".join(f"{other}^{z}" for other, z in zip(others, exponents))
        lines.append(f"{symbol} {rng.randint(2, 9)}/{rng.randint(2, 9)} {product}")
    return "\n".join(lines) + "\n"


def random_integer_map(rng, generators, max_entries=4, span=5):
    entries = {}
    for generator in rng.sample(list(generators), k=rng.randint(0, max_entries)):
        value = rng.randint(-span, span)
        if value:
            entries[generator] = value
    return ExponentMap(entries)


def as_preunit(base, prefix=None):
    return PreUnit(em_empty() if prefix is None else ExponentMap(prefix), base)


def exhaust(system, conversion, unit, bound):
    """Reference full expansion: evaluate, then `bound` parallel rewriting passes.

    With `bound` the analyzed iteration bound this is the fixed point that
    `rwr_star` computes from its compiled normal-form table.
    """
    result = evaluate(system, unit)
    for _ in range(bound):
        result = rwr_eval(system, conversion, result)
    return result


# The recursive-descent parser that `registry._parse_expression` replaced,
# kept as the reference it is tested against, with a lexer of its own so
# that `registry._tokenize` is checked too. Its resolver returns the group
# element an identifier names, not the bare generator.
Resolver = Callable[[str, int], ExponentMap]
Token = tuple[str, str, int]  # (kind, text, position); kind is "ident" | "number" | one of "*/^()" | "end"

_DIGITS = "0123456789"  # only ASCII digits: '²' and '٣' are symbol characters
_NOT_SYMBOL = _DIGITS + "_*/^()#-"  # and whitespace


def _symbol_end(text: str, pos: int) -> int:
    while pos < len(text) and not text[pos].isspace() and text[pos] not in _NOT_SYMBOL:
        pos += 1
    return pos


def _digits_end(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in _DIGITS:
        pos += 1
    return pos


def reference_tokenize(text: str) -> list[Token]:
    """Tokens of expression text, read one character at a time.

    An identifier is a run of symbol characters followed by any number of
    `_` + run, each `_` optionally preceded by `^` and a signed integer
    (`d^3_m`); a number is an optional `-` and ASCII digits.
    """
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        char = text[pos]
        digits = pos + (char == "-")
        if char.isspace():
            pos += 1
        elif char in "*/^()":
            tokens.append((char, char, pos))
            pos += 1
        elif _digits_end(text, digits) > digits:
            end = _digits_end(text, digits)
            tokens.append(("number", text[pos:end], pos))
            pos = end
        elif _symbol_end(text, pos) > pos:
            end = _symbol_end(text, pos)
            while True:  # one more `(^n)?_run`, taken only if whole
                joint = end
                if text.startswith("^", joint):
                    signed = joint + 1 + text.startswith("-", joint + 1)
                    joint = _digits_end(text, signed)
                    if joint == signed:
                        break
                if not text.startswith("_", joint) or _symbol_end(text, joint + 1) == joint + 1:
                    break
                end = _symbol_end(text, joint + 1)
            tokens.append(("ident", text[pos:end], pos))
            pos = end
        else:
            raise UnitSyntaxError(f"unexpected character {char!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _ExpressionParser:
    """Recursive-descent parser over the grammar in `unical.registry`.

    The resolver turns one identifier token into a group element, which
    is what lets the same grammar serve unit expressions (identifiers
    resolve to prefixed base units) and dimension expressions
    (identifiers are taken as dimension symbols). Each element's
    (generator, exponent) pairs go onto one list: `/` negates the slice
    its term appended, `^n` scales the slice its atom appended, and
    `parse` builds one map at the end, so parsing is linear in the text.
    """

    def __init__(self, tokens: list[Token], resolver: Resolver):
        self._tokens = tokens
        self._index = 0
        self._depth = 0
        self._resolver = resolver
        self._pairs: list[tuple[Any, int]] = []

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> Token:
        found, text, position = self._peek()
        if found != kind:
            raise UnitSyntaxError(f"expected {kind!r}, found {text or 'end of input'!r}", position)
        return self._advance()

    def _scale(self, start: int, exponent: int) -> None:
        self._pairs[start:] = [(generator, z * exponent) for generator, z in self._pairs[start:]]

    def parse(self) -> ExponentMap:
        self._expression()
        kind, text, position = self._peek()
        if kind != "end":
            raise UnitSyntaxError(f"unexpected trailing input {text!r}", position)
        return ExponentMap(self._pairs)

    def _expression(self) -> None:
        self._term()
        while self._peek()[0] in ("*", "/"):
            op = self._advance()[0]
            start = len(self._pairs)
            self._term()
            if op == "/":
                self._scale(start, -1)

    def _term(self) -> None:
        start = len(self._pairs)
        self._atom()
        if self._peek()[0] == "^":
            self._advance()
            _, text, position = self._expect("number")
            self._scale(start, _exponent(text, position))

    def _atom(self) -> None:
        kind, text, position = self._peek()
        if kind == "ident":
            self._advance()
            self._pairs.extend(self._resolver(text, position).items())
        elif kind == "(":
            if self._depth == MAX_UNIT_NESTING:
                raise UnitSyntaxError(
                    f"parentheses nest deeper than MAX_UNIT_NESTING = {MAX_UNIT_NESTING}", position
                )
            self._advance()
            self._depth += 1
            self._expression()
            self._depth -= 1
            self._expect(")")
        elif kind == "number" and text == "1":
            self._advance()
        else:
            raise UnitSyntaxError(
                f"expected a symbol, '(' or 1, found {text or 'end of input'!r}", position
            )


def reference_parse(text, resolver):
    """Parse expression text as the recursive-descent parser does."""
    return _ExpressionParser(reference_tokenize(_normalize(text)), resolver).parse()
