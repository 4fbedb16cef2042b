"""End-to-end checks of the headline guarantees, one test per claim.

Expected values are frozen independently of the engine: the impulse and
volume ratios are worked out by integer arithmetic on the registry
definitions, the derived-unit table rows are hand-derived exponent
vectors, and the hectowatt census is a brute-force count (the CLI's
`census` command counts it with a table of partial sums). Every ratio
comparison is exact.
"""

import random
from fractions import Fraction

from unical import (
    ConvTriple,
    ExponentMap,
    RATIO_GROUP,
    analyze,
    bundled_registry,
    coherent,
    convert,
    defining_conversion,
    em_delta,
    em_empty,
    em_eval,
    em_flatten,
    em_inv,
    em_map,
    em_mul,
    em_pow,
    equiv,
    evaluate,
    explore_closure,
    load_registry,
    norm,
    parse_unit,
    prefix_unit,
    print_unit,
    pval,
    ratio_to_decimal,
    root,
    rwr_eval,
    rwr_star,
    strip,
)
from support import (
    as_preunit,
    bare,
    dimensionless_system,
    random_chain_system,
    random_integer_map,
    random_unit,
)

# 45359237 * 980665 carrying 10^-8 * 10^-5 from the two decimal
# definitions: 0.45359237 kg * 9.80665 m/s^2.
IMPULSE_RATIO = Fraction(44482216152605, 10**13)

# Each derived-unit row: symbol, definition over the seven base units,
# kilo exponent of the normalized definition, root exponent vector.
TABLE_ROWS = [
    ("rad", "m/m", 0, {}),
    ("sr", "m^2/m^2", 0, {}),
    ("Hz", "s^-1", 0, {"s": -1}),
    ("N", "kg*m/s^2", 1, {"g": 1, "m": 1, "s": -2}),
    ("Pa", "kg/(m*s^2)", 1, {"g": 1, "m": -1, "s": -2}),
    ("J", "kg*m^2/s^2", 1, {"g": 1, "m": 2, "s": -2}),
    ("W", "kg*m^2/s^3", 1, {"g": 1, "m": 2, "s": -3}),
    ("C", "A*s", 0, {"A": 1, "s": 1}),
    ("V", "kg*m^2/(s^3*A)", 1, {"g": 1, "m": 2, "s": -3, "A": -1}),
    ("F", "kg^-1*m^-2*s^4*A^2", -1, {"g": -1, "m": -2, "s": 4, "A": 2}),
    ("Ω", "kg*m^2/(s^3*A^2)", 1, {"g": 1, "m": 2, "s": -3, "A": -2}),
    ("S", "kg^-1*m^-2*s^3*A^2", -1, {"g": -1, "m": -2, "s": 3, "A": 2}),
    ("Wb", "kg*m^2/(s^2*A)", 1, {"g": 1, "m": 2, "s": -2, "A": -1}),
    ("T", "kg/(s^2*A)", 1, {"g": 1, "s": -2, "A": -1}),
    ("H", "kg*m^2/(s^2*A^2)", 1, {"g": 1, "m": 2, "s": -2, "A": -2}),
    ("°C", "K", 0, {"K": 1}),
    ("lm", "cd", 0, {"cd": 1}),
    ("lx", "cd/m^2", 0, {"cd": 1, "m": -2}),
    ("Bq", "s^-1", 0, {"s": -1}),
    ("Gy", "m^2/s^2", 0, {"m": 2, "s": -2}),
    ("Sv", "m^2/s^2", 0, {"m": 2, "s": -2}),
    ("kat", "mol/s", 0, {"mol": 1, "s": -1}),
]

SEVEN_BASES = {"m", "g", "s", "A", "K", "mol", "cd"}


def test_c01_pound_force_impulse_converts_exactly(siuk_pair):
    system, rules = siuk_pair
    ratio = convert(system, rules, parse_unit(system, "lbf*s"), parse_unit(system, "N*s"))
    assert ratio == IMPULSE_RATIO
    assert ratio_to_decimal(ratio, 15) == ("4.4482216152605", True)


def test_c02_centilitre_to_cubic_metres(litre_pair):
    system, rules = litre_pair
    ratio = convert(system, rules, parse_unit(system, "cL"), parse_unit(system, "m^3"))
    assert ratio == Fraction(1, 100000)


def test_c03_derived_unit_table_normalizes_and_expands(si_pair):
    system, rules = si_pair
    assert len(TABLE_ROWS) == 22
    for symbol, definition, kilo, exponents in TABLE_ROWS:
        n = norm(system, parse_unit(system, definition))
        assert n.prefix == em_pow(em_delta("k"), kilo), symbol
        assert n.root == ExponentMap(exponents), symbol
        assert set(n.root.support()) <= SEVEN_BASES, symbol
        expanded = rwr_star(system, rules, parse_unit(system, symbol))
        assert expanded.factor == Fraction(1000) ** kilo, symbol
        assert expanded.root == n.root, symbol


def test_c04_hectowatt_prefix_census(si_pair):
    system, rules = si_pair
    target = rwr_star(system, rules, parse_unit(system, "hW"))
    assert target.factor == Fraction(10) ** 5
    assert target.root == ExponentMap({"g": 1, "m": 2, "s": -3})

    # Exponent table of the decimal prefixes, plus 0 for "no prefix".
    by_exponent = {0: None}
    for symbol, value in system.base_prefixes.items():
        for exponent in range(-30, 31):
            if exponent and value == Fraction(10) ** exponent:
                by_exponent[exponent] = symbol
    assert len(by_exponent) == 25  # 24 decimal prefixes and the bare slot

    def factor(exponent, base, power):
        symbol = by_exponent[exponent]
        word = em_empty() if symbol is None else em_delta(symbol)
        return em_pow(prefix_unit(word, base), power)

    # Candidate spellings (prefixed g) * (prefixed m)^2 * (prefixed s)^-3;
    # the candidates carry no rewritable symbol, so their evaluations are
    # already fully expanded and comparable against the target.
    matches = []
    for a in by_exponent:
        for b in by_exponent:
            for c in by_exponent:
                candidate = em_mul(
                    em_mul(factor(a, "g", 1), factor(b, "m", 2)), factor(c, "s", -3)
                )
                if evaluate(system, candidate) == target:
                    matches.append((a, b, c))
    assert len(matches) == 44
    assert all(a + 2 * b - 3 * c == 5 for a, b, c in matches)

    # Five of the spellings need the exponent range beyond +/-24, which
    # only exists since ronna/quetta (and ronto/quecto) were adopted; the
    # pre-2022 table yields 39.
    legacy = [t for t in matches if all(abs(e) <= 24 for e in t)]
    assert len(legacy) == 39


def test_c05_gray_sievert_split(si_pair):
    system, rules = si_pair
    gray, sievert = parse_unit(system, "Gy"), parse_unit(system, "Sv")
    assert coherent(system, rules, gray, sievert)
    without_sievert = defining_conversion(
        system, {base: rule for base, rule in rules.rules.items() if base != "Sv"}
    )
    assert convert(system, without_sievert, gray, sievert) is None
    assert equiv(system, gray, sievert, "dim")


def test_c06_rewriting_stops_at_the_analyzed_bound():
    rng = random.Random(2026)
    for _ in range(200):
        base_count = rng.randint(2, 8)
        rule_count = rng.randint(1, min(5, base_count - 1))
        system, rules, bases = random_chain_system(rng, base_count, rule_count)
        report = analyze(system, rules)
        assert report.well_founded
        assert report.iteration_bound == rule_count

        # The first chained base needs every pass: positive exponents
        # prevent cancellation, so its expansion front advances one
        # dependency level per pass.
        state = evaluate(system, bare(bases[0]))
        steps = 0
        while True:
            advanced = rwr_eval(system, rules, state)
            if advanced == state:
                break
            state = advanced
            steps += 1
        assert steps == report.iteration_bound

        # Any unit lands on a fixpoint within |base_units| passes.
        generic = evaluate(system, random_unit(rng, system))
        for _ in range(len(system.base_units)):
            generic = rwr_eval(system, rules, generic)
        assert rwr_eval(system, rules, generic) == generic


def test_c07_closure_triples_agree_with_convert():
    rng = random.Random(2027)
    for _ in range(50):
        base_count = rng.randint(2, 4)
        rule_count = rng.randint(1, min(2, base_count - 1))
        system, rules, _ = random_chain_system(rng, base_count, rule_count, prefix_chance=0.4)
        explored = explore_closure(
            system, rules.triples(), max_steps=4, max_word=12, max_triples=100
        )
        assert explored.witness is None
        assert explored.triples
        for triple in explored.triples:
            assert convert(system, rules, triple.source, triple.target) == triple.ratio


def test_c08_prefix_only_conversion_laws(si_pair):
    system, _ = si_pair
    no_rules = defining_conversion(system, {})
    rng = random.Random(2028)
    neutral = em_mul(
        em_mul(prefix_unit(ExponentMap({"da": 1, "h": 1}), "m"), bare("m", -1)),
        em_mul(prefix_unit(ExponentMap({"k": 1}), "m"), bare("m", -1)) ** -1,
    )
    bases = sorted(system.base_units)
    for index in range(500):
        u = random_unit(rng, system, max_parts=3)
        if index % 4 == 0:
            v = em_mul(u, neutral)  # same value, different spelling
        elif index % 2 == 1:
            base = rng.choice(bases)
            scaling = em_mul(
                prefix_unit(ExponentMap({rng.choice(sorted(system.base_prefixes)): 1}), base),
                bare(base, -1),
            )
            v = em_mul(u, scaling)  # same root, shifted prefixes
        else:
            v = random_unit(rng, system, max_parts=3)
        outcome = convert(system, no_rules, u, v)
        if root(u) == root(v):
            assert outcome == pval(system, u) / pval(system, v)
        else:
            assert outcome is None
        assert coherent(system, no_rules, u, v) == (
            evaluate(system, u) == evaluate(system, v)
        )
        assert strip(strip(u)) == strip(u)


def pair_split(f):
    return (
        em_eval(RATIO_GROUP, em_map(lambda p: p[0], f)),
        em_map(lambda p: p[1], f),
    )


def test_c09_algebraic_law_suites():
    rng = random.Random(2029)
    symbols = "abcdefgh"
    weights = [Fraction(2), Fraction(3), Fraction(5), Fraction(2, 7), Fraction(9, 4)]

    def random_map():
        return random_integer_map(rng, symbols)

    def random_weighted():
        entries = {}
        for symbol in rng.sample(symbols, k=rng.randint(0, 3)):
            value = rng.randint(-4, 4)
            if value:
                entries[(rng.choice(weights), symbol)] = value
        return ExponentMap(entries)

    # Group laws.
    for _ in range(1000):
        f, g, h = random_map(), random_map(), random_map()
        assert em_mul(f, g) == em_mul(g, f)
        assert em_mul(em_mul(f, g), h) == em_mul(f, em_mul(g, h))
        assert em_mul(f, em_empty()) == f
        assert em_mul(f, em_inv(f)) == em_empty()
        k = rng.randint(-5, 5)
        assert em_pow(em_pow(f, k), -1) == em_pow(f, -k)

    # Functor and monad laws.
    for _ in range(1000):
        f = random_map()
        assert em_map(lambda x: x, f) == f
        swap = lambda x: x.swapcase()
        shift = lambda x: chr(ord(x) + 1)
        assert em_map(swap, em_map(shift, f)) == em_map(lambda x: swap(shift(x)), f)
        assert em_flatten(em_delta(f)) == f
        assert em_flatten(em_map(em_delta, f)) == f
        nested = ExponentMap({random_map(): rng.choice([-2, -1, 1, 2]) for _ in range(2)})
        doubly = ExponentMap({nested: 1, ExponentMap({random_map(): 1}): -2})
        assert em_flatten(em_flatten(doubly)) == em_flatten(em_map(em_flatten, doubly))

    # Distributive-law equations: splitting weighted maps commutes with
    # the unit, with flattening, and with collapsing stacked weights.
    epsilon = em_eval(
        RATIO_GROUP, ExponentMap({Fraction(2): -3, Fraction(3): 2, Fraction(2, 5): -1})
    )
    assert epsilon == Fraction(45, 16)

    def xi(outer, weighted_of_maps):
        return (
            outer * em_eval(RATIO_GROUP, em_map(lambda p: p[0], weighted_of_maps)),
            em_flatten(em_map(lambda p: p[1], weighted_of_maps)),
        )

    pinned = xi(
        Fraction(2),
        ExponentMap(
            {
                (Fraction(3), ExponentMap({"a": 5})): -2,
                (Fraction(7), ExponentMap({"b": -1})): 1,
            }
        ),
    )
    assert pinned == (Fraction(14, 9), ExponentMap({"a": -10, "b": -1}))

    for _ in range(1000):
        weight, symbol = rng.choice(weights), rng.choice(symbols)
        assert pair_split(em_delta((weight, symbol))) == (weight, em_delta(symbol))
        f, g = random_weighted(), random_weighted()
        total, plain = pair_split(em_mul(f, g))
        assert total == pair_split(f)[0] * pair_split(g)[0]
        assert plain == em_mul(pair_split(f)[1], pair_split(g)[1])
        ff = ExponentMap({random_weighted(): rng.choice([-2, -1, 1, 2]) for _ in range(2)})
        total, flat = pair_split(em_flatten(ff))
        assert total == em_eval(RATIO_GROUP, em_map(lambda inner: pair_split(inner)[0], ff))
        assert flat == em_flatten(em_map(lambda inner: pair_split(inner)[1], ff))

    # Prefix-stripping idempotence and the equivalence chain.
    system, _ = load_registry(bundled_registry("si"))
    levels = ("norm", "eval", "root", "dim")
    for _ in range(1000):
        u = random_unit(rng, system, max_parts=2)
        v = random_unit(rng, system, max_parts=2)
        assert strip(strip(u)) == strip(u)
        outcomes = [equiv(system, u, v, level) for level in levels]
        for finer, coarser in zip(outcomes, outcomes[1:]):
            assert not finer or coarser


def test_c10_one_inconsistency_contaminates_every_pair():
    system = dimensionless_system(["u", "v"])
    forward = ConvTriple(bare("u"), Fraction(2), bare("v"))
    backward = ConvTriple(em_inv(bare("u")), Fraction(3), em_inv(bare("v")))
    explored = explore_closure(system, [forward, backward], max_steps=4, max_word=4)
    assert explored.witness is not None
    assert not explored.witness.source and not explored.witness.target
    assert explored.witness.ratio == Fraction(6)
    ratios_by_pair = {}
    for triple in explored.triples:
        ratios_by_pair.setdefault((triple.source, triple.target), set()).add(triple.ratio)
    assert ratios_by_pair
    for ratios in ratios_by_pair.values():
        assert len(ratios) >= 2


def test_c11_parser_determinism_and_roundtrip(si_pair):
    system, _ = si_pair
    assert parse_unit(system, "m") == em_delta(as_preunit("m"))
    assert parse_unit(system, "mm") == em_delta(as_preunit("m", {"m": 1}))
    assert parse_unit(system, "dam") == em_delta(as_preunit("m", {"da": 1}))
    assert parse_unit(system, "µkg") == em_delta(as_preunit("g", {"μ": 1, "k": 1}))
    rng = random.Random(2031)
    for _ in range(1000):
        unit = random_unit(rng, system, max_parts=4)
        assert parse_unit(system, print_unit(system, unit)) == unit
