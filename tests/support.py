"""Shared helpers for the test suite: tiny systems and random data."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce

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


def random_cyclic_system(rng, consistent, prefix_chance=0.3):
    """A random defining system whose rules hold exactly one dependency cycle.

    Bases c0..c(k-1) form the cycle: the rule for c(i) rewrites it into
    c(i+1), behind a random prefix word with `prefix_chance`, at a random
    ratio, and the last rule closes the cycle at one over the product of
    every ratio and prefix value met before it, so one trip round the
    cycle multiplies by exactly one. When not `consistent` the closing
    ratio carries an extra factor other than one. Feeder bases f0.. get
    rules into the cycle; no rule mentions a feeder, so the only integer
    relation among the rules is one trip round the cycle, and its ratio
    product is the factor.

    Returns (system, rules, factor), with factor 1 when consistent.
    """
    cycle = [f"c{i}" for i in range(rng.randint(1, 4))]
    feeders = [f"f{i}" for i in range(rng.randint(0, 2))]
    system = dimensionless_system(cycle + feeders)
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
    return system, defining_conversion(system, rules), factor


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
