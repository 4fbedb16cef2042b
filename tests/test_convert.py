import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unical import (
    ConvTriple,
    ExponentMap,
    NotWellDefiningError,
    RuleError,
    UnitSystem,
    UnknownSymbolError,
    analyze,
    bundled_registry,
    check_triples,
    classify,
    coherent,
    convert,
    defining_conversion,
    dim,
    em_delta,
    em_empty,
    em_inv,
    em_mul,
    em_pow,
    evaluate,
    explore_closure,
    load_registry,
    parse_unit,
    rwr_eval,
    rwr_star,
    strip,
    unroot,
    xpd,
)
from support import (
    bare,
    dimensionless_system,
    exhaust,
    random_chain_system,
    random_cyclic_system,
    random_unit,
    unit_of,
)

SI, SI_RULES = load_registry(bundled_registry("si"))

# Expansion depth of every rewritten symbol in the bundled table, worked
# out by hand from the definition chains (N -> kg*m/s^2 is one step,
# J -> N*m needs N first, and so on up the electrical chain).
SI_DEPTHS = {
    "Hz": 1, "Bq": 1, "rad": 1, "sr": 1, "°C": 1, "C": 1, "kat": 1, "N": 1,
    "Pa": 2, "J": 2, "lm": 2,
    "W": 3, "lx": 3, "Gy": 3, "Sv": 3,
    "V": 4,
    "F": 5, "Ω": 5, "Wb": 5,
    "S": 6, "T": 6, "H": 6,
}


def cyclic_pair():
    system = dimensionless_system(["a", "b"])
    rules = defining_conversion(
        system, {"a": (Fraction(2), bare("b")), "b": (Fraction(3), bare("a"))}
    )
    return system, rules


def timed_system():
    return UnitSystem(
        frozenset({"T", "L"}),
        {},
        {"h": em_delta("T"), "s": em_delta("T"), "m": em_delta("L")},
    )


def test_defining_conversion_rejects_unknown_base():
    with pytest.raises(UnknownSymbolError):
        defining_conversion(SI, {"parsec": (Fraction(1), bare("m"))})


def test_defining_conversion_rejects_dimension_change():
    with pytest.raises(RuleError, match="changes dimension"):
        defining_conversion(SI, {"N": (Fraction(1), bare("m"))})


def test_defining_conversion_rejects_bad_ratio():
    with pytest.raises(RuleError):
        defining_conversion(SI, {"N": (Fraction(0), bare("N"))})
    with pytest.raises(RuleError):
        defining_conversion(SI, {"N": (Fraction(-2), bare("N"))})


def test_defining_conversion_rejects_unknown_replacement_symbol():
    with pytest.raises((RuleError, UnknownSymbolError)):
        defining_conversion(SI, {"N": (Fraction(1), bare("bogus"))})


def test_rule_triples_are_sorted():
    system = dimensionless_system(["a", "b"])
    rules = defining_conversion(
        system, {"b": (Fraction(2), em_empty()), "a": (Fraction(3), em_empty())}
    )
    assert [t.ratio for t in rules.triples()] == [Fraction(3), Fraction(2)]


def test_analyze_reproduces_hand_computed_depths():
    report = analyze(SI, SI_RULES)
    assert report.well_founded
    assert report.cycle_witness is None
    assert report.iteration_bound == 6
    for symbol, expected in SI_DEPTHS.items():
        assert report.depth[symbol] == expected, symbol
    for symbol in ("m", "g", "s", "A", "K", "mol", "cd"):
        assert report.depth[symbol] == 0


def test_analyze_edges_are_transitive():
    report = analyze(SI, SI_RULES)
    assert {"g", "m", "s", "A"} <= report.edges["V"]
    assert report.edges["rad"] == frozenset()
    assert "V" not in report.edges["W"]


def test_analyze_ignores_cancelled_replacement_symbols():
    system = dimensionless_system(["x", "y"])
    cancelled = em_mul(bare("y"), em_pow(bare("y"), -1))
    rules = defining_conversion(system, {"x": (Fraction(2), cancelled)})
    report = analyze(system, rules)
    assert report.edges["x"] == frozenset()
    assert report.depth["x"] == 1
    assert report.iteration_bound == 1


def test_analyze_detects_cycles():
    system, rules = cyclic_pair()
    report = analyze(system, rules)
    assert not report.well_founded
    assert set(report.cycle_witness) == {"a", "b"}
    assert report.depth is None and report.iteration_bound is None


def test_xpd_returns_rule_or_identity():
    ratio, replacement = xpd(SI, SI_RULES, "N")
    assert ratio == 1
    assert replacement == unit_of(("g", 1, {"k": 1}), ("m", 1), ("s", -2))
    ratio, replacement = xpd(SI, SI_RULES, "m")
    assert (ratio, replacement) == (Fraction(1), bare("m"))
    with pytest.raises(UnknownSymbolError):
        xpd(SI, SI_RULES, "cubit")


def test_rwr_eval_single_pass():
    system = dimensionless_system(["W", "g", "m", "s"])
    row = unit_of(("g", 1, {"p2": 1}), ("m", 2), ("s", -3))
    rules = defining_conversion(system, {"W": (Fraction(1), row)})
    state = evaluate(system, bare("W"))
    stepped = rwr_eval(system, rules, state)
    assert stepped.factor == Fraction(2)
    assert stepped.root == ExponentMap({"g": 1, "m": 2, "s": -3})
    assert rwr_eval(system, rules, stepped) == stepped


def test_rwr_eval_expands_all_positions_at_once():
    report = analyze(SI, SI_RULES)
    state = evaluate(SI, unit_of(("W", 1), ("V", -1)))
    passes = 0
    while True:
        advanced = rwr_eval(SI, SI_RULES, state)
        if advanced == state:
            break
        state = advanced
        passes += 1
    assert passes == 4
    assert passes <= report.iteration_bound
    assert state.factor == 1 and state.root == em_delta("A")


def test_rwr_star_examples():
    impulse = rwr_star(SI, SI_RULES, parse_unit(SI, "N*s"))
    assert impulse.factor == Fraction(1000)
    assert impulse.root == ExponentMap({"g": 1, "m": 1, "s": -1})
    empty = rwr_star(SI, SI_RULES, em_empty())
    assert empty.factor == 1 and not empty.root


def test_rwr_star_requires_well_founded_rules():
    system, rules = cyclic_pair()
    # The cycle is reported before the unit is read, even an unknown one.
    for unit in (bare("a"), bare("unregistered")):
        with pytest.raises(NotWellDefiningError, match="a > b > a"):
            rwr_star(system, rules, unit)
        with pytest.raises(NotWellDefiningError, match="a > b > a"):
            convert(system, rules, unit, bare("b"))


@given(st.randoms(use_true_random=False))
def test_rwr_star_and_convert_match_exhaustive_rewriting(rng):
    base_count = rng.randint(2, 7)
    rule_count = rng.randint(1, base_count - 1)
    system, rules, _ = random_chain_system(rng, base_count, rule_count, prefix_chance=0.5)
    bound = analyze(system, rules).iteration_bound
    source = random_unit(rng, system)
    expanded = exhaust(system, rules, source, bound)
    assert rwr_star(system, rules, source) == expanded
    target = rng.choice(
        [random_unit(rng, system), strip(source), unroot(expanded.root)]
    )
    expanded_target = exhaust(system, rules, target, bound)
    if expanded.root == expanded_target.root:
        expected = expanded.factor / expanded_target.factor
    else:
        expected = None
    assert convert(system, rules, source, target) == expected


@given(st.randoms(use_true_random=False))
def test_rwr_star_matches_exhaustive_rewriting_on_si(rng):
    unit = random_unit(rng, SI)
    bound = analyze(SI, SI_RULES).iteration_bound
    assert rwr_star(SI, SI_RULES, unit) == exhaust(SI, SI_RULES, unit, bound)


def test_one_conversion_under_two_systems_uses_each_systems_prefixes():
    def system_with(value):
        return UnitSystem(
            frozenset(), {"p": Fraction(value)}, {"a": em_empty(), "b": em_empty()}
        )

    doubling, quadrupling = system_with(2), system_with(4)
    rules = defining_conversion(doubling, {"a": (Fraction(3), unit_of(("b", 1, {"p": 1})))})
    for system, expected in ((doubling, 6), (quadrupling, 12), (doubling, 6)):
        assert convert(system, rules, bare("a"), bare("b")) == expected
        assert rwr_star(system, rules, bare("a")).factor == expected


def test_convert_identity_and_congruence():
    rng = random.Random(40)
    for _ in range(25):
        u = random_unit(rng, SI)
        v = random_unit(rng, SI)
        x = random_unit(rng, SI)
        assert convert(SI, SI_RULES, u, u) == 1
        direct = convert(SI, SI_RULES, u, v)
        padded = convert(SI, SI_RULES, em_mul(u, x), em_mul(v, x))
        assert direct == padded


def test_convert_composes_along_chains():
    rng = random.Random(41)
    scales = [
        em_mul(unit_of(("g", 1, {"k": 1})), em_pow(bare("g"), -1)),
        em_mul(unit_of(("m", 1, {"c": 1})), em_pow(bare("m"), -1)),
        em_mul(unit_of(("s", 1, {"m": 1})), em_pow(bare("s"), -1)),
    ]
    for _ in range(60):
        u = random_unit(rng, SI, max_parts=2)
        v = em_mul(u, rng.choice(scales))
        w = em_mul(v, rng.choice(scales))
        uv = convert(SI, SI_RULES, u, v)
        vw = convert(SI, SI_RULES, v, w)
        uw = convert(SI, SI_RULES, u, w)
        assert None not in (uv, vw, uw)
        assert uw == uv * vw


def test_convert_none_on_root_mismatch():
    assert convert(SI, SI_RULES, bare("m"), bare("s")) is None
    assert convert(SI, SI_RULES, bare("Gy"), bare("Sv")) == 1
    assert coherent(SI, SI_RULES, bare("Gy"), bare("Sv"))


def test_convert_respects_dimension_partition():
    rng = random.Random(42)
    for _ in range(100):
        u = random_unit(rng, SI, max_parts=2)
        v = random_unit(rng, SI, max_parts=2)
        if dim(SI, u) != dim(SI, v):
            assert convert(SI, SI_RULES, u, v) is None


def test_rewriting_measure_strictly_decreases():
    rng = random.Random(43)
    for _ in range(30):
        base_count = rng.randint(2, 6)
        rule_count = rng.randint(1, base_count - 1)
        system, rules, bases = random_chain_system(rng, base_count, rule_count)
        report = analyze(system, rules)
        state = evaluate(system, random_unit(rng, system, max_parts=3))
        measure = lambda s: max(
            (report.depth[symbol] for symbol in s.root.support()), default=0
        )
        while measure(state) > 0:
            advanced = rwr_eval(system, rules, state)
            assert measure(advanced) < measure(state)
            state = advanced
        assert rwr_eval(system, rules, state) == state


def test_check_triples_accepts_consistent_sets():
    system = timed_system()
    hour = ConvTriple(bare("h"), Fraction(3600), bare("s"))
    back = ConvTriple(bare("s"), Fraction(1, 3600), bare("h"))
    assert check_triples(system, [hour, back]) is None


def test_check_triples_flags_dimension_mismatch():
    system = timed_system()
    bad = ConvTriple(bare("m"), Fraction(5), bare("s"))
    kind, offender = check_triples(system, [bad])
    assert kind == "dimension-mismatch" and offender == bad


def test_check_triples_flags_ratio_conflicts():
    system = timed_system()
    hour = ConvTriple(bare("h"), Fraction(3600), bare("s"))
    wrong = ConvTriple(bare("h"), Fraction(7200), bare("s"))
    kind, offender = check_triples(system, [hour, wrong])
    assert kind == "ratio-conflict" and offender in (hour, wrong)


def test_explore_closure_reaches_derived_triples():
    system = dimensionless_system(["x", "y"])
    seed = ConvTriple(bare("x"), Fraction(2), bare("y"))
    result = explore_closure(system, [seed], max_steps=4, max_word=8)
    derived = ConvTriple(em_mul(bare("x"), em_inv(bare("y"))), Fraction(2), em_empty())
    assert derived in result.triples
    assert result.witness is None


def test_explore_closure_strips_prefixes_of_seed_units():
    result = explore_closure(
        SI, [], max_steps=2, max_word=8, seeds=[unit_of(("g", 1, {"k": 1}))]
    )
    stripped = ConvTriple(unit_of(("g", 1, {"k": 1})), Fraction(1000), bare("g"))
    assert stripped in result.triples


def test_explore_closure_finds_nonlocal_witness():
    system = dimensionless_system(["u", "v"])
    forward = ConvTriple(bare("u"), Fraction(2), bare("v"))
    backward = ConvTriple(em_inv(bare("u")), Fraction(3), em_inv(bare("v")))
    result = explore_closure(system, [forward, backward], max_steps=4, max_word=4)
    assert result.witness is not None
    assert result.witness.ratio == 6
    assert not result.witness.source and not result.witness.target


def test_explore_closure_truncates_at_population_cap():
    system = dimensionless_system(["x", "y"])
    seed = ConvTriple(bare("x"), Fraction(2), bare("y"))
    result = explore_closure(system, [seed], max_steps=4, max_word=12, max_triples=4)
    assert result.truncated
    assert len(result.triples) <= 4
    assert "max_triples" in result.bounds_hit


def test_explore_closure_names_the_step_bound():
    system = dimensionless_system(["x", "y"])
    seed = ConvTriple(bare("x"), Fraction(2), bare("y"))
    result = explore_closure(system, [seed], max_steps=1, max_word=12, max_triples=4000)
    assert result.bounds_hit == ("max_steps",) and result.truncated


def test_explore_closure_names_the_word_bound():
    system = dimensionless_system(["x", "y"])
    seed = ConvTriple(bare("x"), Fraction(2), bare("y"))
    result = explore_closure(system, [seed], max_steps=10, max_word=2, max_triples=4000)
    assert result.bounds_hit == ("max_word",) and result.truncated
    assert explore_closure(system, [], max_steps=2).bounds_hit == ()


def test_explore_closure_is_deterministic():
    system = dimensionless_system(["x", "y", "z"])
    seeds = [
        ConvTriple(bare("x"), Fraction(2), bare("y")),
        ConvTriple(bare("y"), Fraction(3, 7), bare("z")),
    ]
    first = explore_closure(system, seeds, max_steps=3, max_word=6)
    second = explore_closure(system, seeds, max_steps=3, max_word=6)
    assert first == second


def test_classify_bundled_table():
    report = classify(SI, SI_RULES)
    assert report.is_defining and report.is_well_defining and not report.is_regular
    assert report.consistency == "guaranteed"
    assert report.iteration_bound == 6
    assert report.witness is None and report.cycle_witness is None


def test_classify_empty_rules_is_regular():
    report = classify(SI, {})
    assert report.is_regular and report.is_defining and report.is_well_defining
    assert report.consistency == "guaranteed"
    assert report.iteration_bound == 0


def test_classify_cycle_yields_witness():
    system, rules = cyclic_pair()
    report = classify(system, rules)
    assert report.is_defining and not report.is_well_defining
    assert report.consistency == "witness_found"
    assert report.witness is not None and report.witness.ratio == 6
    assert set(report.cycle_witness) == {"a", "b"}


def test_classify_dimension_changing_rules():
    report = classify(SI, {"N": (Fraction(2), bare("m"))})
    assert not report.is_defining and not report.is_well_defining
    assert report.consistency in ("unknown", "witness_found")


def test_classify_rejects_uninterpretable_rules():
    with pytest.raises((RuleError, UnknownSymbolError)):
        classify(SI, {"m": (Fraction(1), "gibberish")})
    with pytest.raises((RuleError, UnknownSymbolError)):
        classify(SI, {"nope": (Fraction(1), em_empty())})


@given(st.randoms(use_true_random=False), st.booleans())
def test_classify_decides_random_cycles(rng, consistent):
    system, rules, factor = random_cyclic_system(rng, consistent)
    report = classify(system, rules)
    assert report.is_defining and not report.is_well_defining
    assert report.cycle_witness is not None
    if consistent:
        assert report.consistency == "guaranteed" and report.witness is None
    else:
        assert report.consistency == "witness_found"
        assert report.witness == ConvTriple(em_empty(), max(factor, 1 / factor), em_empty())


def _random_rule_system(rng):
    """Two or three dimensionless bases, most with a rule to a random unit."""
    system = dimensionless_system(["x", "y", "z"][: rng.randint(2, 3)])
    rules = {
        base: (Fraction(rng.randint(1, 6), rng.randint(1, 6)), random_unit(rng, system, 2, 0.3, (-1, 1, 2)))
        for base in sorted(system.base_units)
        if rng.random() < 0.8
    }
    return system, defining_conversion(system, rules)


@given(st.randoms(use_true_random=False), st.booleans())
def test_classify_agrees_with_closure_search(rng, single_cycle):
    if single_cycle:
        system, rules, _ = random_cyclic_system(rng, rng.random() < 0.5, prefix_chance=0.2)
    else:
        system, rules = _random_rule_system(rng)
    report = classify(system, rules)
    explored = explore_closure(system, rules.triples(), max_steps=2, max_word=4)
    if explored.witness is not None:
        assert report.consistency == "witness_found"
    elif not explored.truncated:
        assert report.consistency == "guaranteed"


def test_classify_si_with_one_cyclic_rule(si_pair):
    system, rules = si_pair
    cyclic = defining_conversion(system, {**rules.rules, "s": (Fraction(2), parse_unit(system, "Hz^-1"))})
    report = classify(system, cyclic, max_steps=1, max_word=1)
    assert report.consistency == "witness_found"
    assert report.witness == ConvTriple(em_empty(), Fraction(2), em_empty())
    consistent = defining_conversion(system, {**rules.rules, "s": (Fraction(1), parse_unit(system, "Hz^-1"))})
    assert classify(system, consistent).consistency == "guaranteed"
