import operator
import random
import sys
import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unical import (
    MAX_RATIO_BITS,
    ClassificationReport,
    ConvTriple,
    DefiningConversion,
    DependencyReport,
    ExponentMap,
    NotWellDefiningError,
    PreUnit,
    RatioError,
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
    ratio_bits,
    root,
    rwr_eval,
    rwr_star,
    strip,
    unroot,
    xpd,
)
from support import (
    bare,
    chain_registry_text,
    dense_cycle_registry_text,
    dimensionless_system,
    exhaust,
    own_dimension_system,
    random_chain_system,
    random_cyclic_rules,
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
    with pytest.raises(RuleError, match=r"^not a positive rational ratio: True$"):
        defining_conversion(SI, {"N": (True, bare("N"))})
    # An int ratio is taken as the Fraction it equals.
    ratio = defining_conversion(SI, {"N": (1000, bare("N"))}).rules["N"][0]
    assert type(ratio) is Fraction and ratio == 1000


def test_defining_conversion_rejects_unknown_replacement_symbol():
    with pytest.raises((RuleError, UnknownSymbolError)):
        defining_conversion(SI, {"N": (Fraction(1), bare("bogus"))})


@pytest.mark.parametrize(
    "check",
    [defining_conversion, classify, lambda system, rules: analyze(system, DefiningConversion(rules))],
    ids=["defining_conversion", "classify", "analyze"],
)
def test_rule_checks_refuse_a_replacement_whose_generators_are_not_preunits(check):
    # As `evaluate` refuses the replacement itself.
    with pytest.raises(TypeError, match="unit generators must be PreUnit values, got 'g'"):
        check(SI, {"m": (Fraction(1), ExponentMap({"g": 1}))})


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


def test_analyze_ignores_cancelled_replacement_symbols():
    system = dimensionless_system(["x", "y"])
    cancelled = em_mul(bare("y"), em_pow(bare("y"), -1))
    rules = defining_conversion(system, {"x": (Fraction(2), cancelled)})
    report = analyze(system, rules)
    assert report.depth["x"] == 1
    assert report.iteration_bound == 1


def test_analyze_detects_cycles():
    system, rules = cyclic_pair()
    report = analyze(system, rules)
    assert not report.well_founded
    assert set(report.cycle_witness) == {"a", "b"}
    assert report.depth is None and report.iteration_bound is None


def rule_graph(graph):
    """Rules over bases a..g, x and y, each rewriting its base to the product of its symbols."""
    system = dimensionless_system("abcdefgxy")
    rules = {base: (Fraction(2), unit_of(*((symbol, 1) for symbol in uses))) for base, uses in graph.items()}
    return system, defining_conversion(system, rules)


@pytest.mark.parametrize(
    "graph, witness",
    [
        ({"a": "b", "b": "c", "c": "a", "d": "a"}, ("a", "b", "c")),
        ({"x": "y", "y": "x", "a": "b", "b": "a"}, ("a", "b")),
        ({"a": "ab"}, ("a",)),
    ],
    ids=["feeder", "two-cycles", "self-loop"],
)
def test_analyze_names_the_first_cycle_in_rule_order(graph, witness):
    system, rules = rule_graph(graph)
    assert analyze(system, rules).cycle_witness == witness
    assert classify(system, rules).cycle_witness == witness


@given(st.dictionaries(st.sampled_from("abcdef"), st.lists(st.sampled_from("abcdefg"), max_size=3)))
def test_analyze_names_a_real_cycle_or_the_depths_of_a_dag(graph):
    system, rules = rule_graph(graph)
    report = analyze(system, rules)
    if report.well_founded:
        for base in system.base_units:
            uses = graph.get(base)
            expected = 0 if uses is None else 1 + max((report.depth[s] for s in uses), default=0)
            assert report.depth[base] == expected
        assert report.iteration_bound == max(report.depth.values())
    else:
        cycle = report.cycle_witness
        assert len(set(cycle)) == len(cycle)
        for here, following in zip(cycle, cycle[1:] + cycle[:1]):
            assert following in graph[here]


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


triples = st.builds(
    ConvTriple,
    st.sampled_from(["x", "y"]).map(bare),
    st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3)]),
    st.sampled_from(["x", "y", "z"]).map(bare),
)


@given(triples, triples)
def test_triples_order_by_source_ratio_target(a, b):
    def key(t):
        return (t.source, t.ratio, t.target)

    for compare in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
        assert compare(a, b) == compare(key(a), key(b))
    assert (a == b) == (hash(a) == hash(b) and key(a) == key(b))
    with pytest.raises(TypeError):
        a < key(b)


def test_triples_sort_canonically_and_refuse_assignment():
    half, two = Fraction(1, 2), Fraction(2)
    shuffled = [
        ConvTriple(bare("y"), half, bare("x")),
        ConvTriple(bare("x"), two, bare("y")),
        ConvTriple(bare("x"), half, bare("z")),
        ConvTriple(bare("x"), half, bare("y")),
    ]
    assert sorted(shuffled) == shuffled[::-1]
    assert len(set(shuffled + [ConvTriple(bare("x"), Fraction(4, 2), bare("y"))])) == 4
    assert repr(ConvTriple(em_empty(), two, em_empty())) == (
        "ConvTriple(source=ExponentMap({}), ratio=Fraction(2, 1), target=ExponentMap({}))"
    )
    for field in ("source", "ratio", "target"):
        with pytest.raises(AttributeError):
            setattr(shuffled[0], field, None)


def test_defining_conversions_compare_by_rules_alone(siuk_pair):
    system, rules = siuk_pair
    twin = DefiningConversion(dict(rules.rules))
    assert twin == rules and twin._compiled is None
    assert hash(twin) == hash(rules) and len({twin, rules}) == 1
    convert(system, rules, bare("m"), bare("m"))
    assert rules._compiled is not None and twin == rules
    assert hash(twin) == hash(rules) and len({twin, rules}) == 1
    assert hash(SI_RULES) == hash(DefiningConversion(dict(SI_RULES.rules)))
    assert repr(DefiningConversion({})) == "DefiningConversion(rules=mappingproxy({}))"
    with pytest.raises(AttributeError):
        twin.rules = {}  # type: ignore[misc]


CLASSIFICATION_FIELDS = (
    "is_defining",
    "is_well_defining",
    "is_regular",
    "consistency",
    "witness",
    "cycle_witness",
    "iteration_bound",
)


@pytest.mark.parametrize("pair", [lambda: (SI, SI_RULES), cyclic_pair])
def test_reports_compare_field_by_field(pair):
    system, rules = pair()
    first, second = classify(system, rules), classify(system, rules)
    assert first == second and first is not second and hash(first) == hash(second)
    values = [getattr(first, name) for name in CLASSIFICATION_FIELDS]
    assert values == [getattr(second, name) for name in CLASSIFICATION_FIELDS]
    assert ClassificationReport(*values) == first
    assert ClassificationReport(*values[:-1], iteration_bound=99) != first
    assert ClassificationReport(*values[:4]) == ClassificationReport(*values[:4], None, None, None)
    report = analyze(system, rules)
    fields = (report.well_founded, report.cycle_witness, report.depth, report.iteration_bound)
    assert analyze(system, rules) == report == DependencyReport(*fields)
    assert hash(analyze(system, rules)) == hash(report) == hash(DependencyReport(*fields))
    assert DependencyReport(*fields[:3], 99) != report
    with pytest.raises(AttributeError):
        first.consistency = "unknown"  # type: ignore[misc]
    with pytest.raises(AttributeError):
        report.well_founded = False  # type: ignore[misc]


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
    assert report.consistency == "guaranteed"
    assert report.iteration_bound is None and report.cycle_witness is None


def test_classify_decides_dimension_changing_cycles():
    balanced = classify(SI, {"N": (Fraction(2), bare("m")), "m": (Fraction(1, 2), bare("N"))})
    assert balanced.consistency == "guaranteed" and balanced.witness is None
    report = classify(SI, {"N": (Fraction(2), bare("m")), "m": (Fraction(3), bare("N"))})
    assert not report.is_defining and not report.is_well_defining
    assert report.consistency == "witness_found"
    assert report.witness == ConvTriple(em_empty(), Fraction(6), em_empty())
    assert set(report.cycle_witness) == {"N", "m"}


def test_classify_rejects_uninterpretable_rules():
    with pytest.raises((RuleError, UnknownSymbolError)):
        classify(SI, {"m": (Fraction(1), "gibberish")})
    with pytest.raises((RuleError, UnknownSymbolError)):
        classify(SI, {"nope": (Fraction(1), em_empty())})


@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_classify_decides_random_cycles(rng, consistent, changing_dimension):
    system, rules, factor = random_cyclic_rules(rng, consistent, changing_dimension=changing_dimension)
    report = classify(system, rules)
    assert report.is_defining == (not changing_dimension) and not report.is_well_defining
    assert report.cycle_witness is not None
    if consistent:
        assert report.consistency == "guaranteed" and report.witness is None
    else:
        assert report.consistency == "witness_found"
        assert report.witness == ConvTriple(em_empty(), max(factor, 1 / factor), em_empty())


def _random_rule_system(rng, changing_dimension):
    """Two or three bases, most with a rule to a random unit.

    The bases are dimensionless, or with `changing_dimension` each has a
    dimension of its own, so most rules change dimension.
    """
    bases = ["x", "y", "z"][: rng.randint(2, 3)]
    system = own_dimension_system(bases, bases if changing_dimension else ())
    rules = {
        base: (Fraction(rng.randint(1, 6), rng.randint(1, 6)), random_unit(rng, system, 2, 0.3, (-1, 1, 2)))
        for base in bases
        if rng.random() < 0.8
    }
    return system, rules


@given(st.randoms(use_true_random=False), st.sampled_from(["single cycle", "defining", "changing dimension"]))
def test_classify_agrees_with_closure_search(rng, kind):
    if kind == "single cycle":
        system, rules, _ = random_cyclic_system(rng, rng.random() < 0.5, prefix_chance=0.2)
        rules = rules.rules
    else:
        system, rules = _random_rule_system(rng, kind == "changing dimension")
    report = classify(system, rules)
    explored = explore_closure(system, DefiningConversion(rules).triples(), max_steps=2, max_word=4)
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


def _reference_depths(system, rules):
    """Each registered symbol's expansion depth, by recursion over `root`; None when the rules have a cycle."""
    depth = dict.fromkeys(system.base_units, 0)
    state = {}

    def visit(base):
        if base in state:
            return state[base] == "done"
        state[base] = "open"
        dependencies = root(rules[base][1]).support()
        if not all(visit(symbol) for symbol in dependencies if symbol in rules):
            return False
        depth[base] = 1 + max((depth[symbol] for symbol in dependencies), default=0)
        state[base] = "done"
        return True

    return depth if all([visit(base) for base in sorted(rules)]) else None


def assert_the_rule_forms_match_the_reference(system, conversion):
    forms = CONVERT_MODULE._compile(system, conversion).forms
    assert list(forms) == sorted(conversion.rules)
    for base, (ratio, replacement) in conversion.rules.items():
        factor, pairs, keeps_dimension = forms[base]
        assert factor == ratio * evaluate(system, replacement).factor
        assert pairs == root(replacement).items()
        assert keeps_dimension == (dim(system, replacement) == system.base_units[base])
    report = analyze(system, conversion)
    assert report == analyze(system, DefiningConversion(dict(conversion.rules)))
    depths = _reference_depths(system, conversion.rules)
    assert report.well_founded == (depths is not None)
    if depths is not None:
        assert dict(report.depth) == depths and report.iteration_bound == max(depths.values(), default=0)
    assert classify(system, conversion) == classify(system, dict(conversion.rules))


RULE_SET_KINDS = ["chain", "consistent", "inconsistent", "changing dimension"]


@given(st.randoms(use_true_random=False), st.sampled_from(RULE_SET_KINDS))
def test_compiled_rule_forms_match_the_reference(rng, kind):
    if kind == "chain":
        base_count = rng.randint(2, 6)
        system, conversion, _ = random_chain_system(rng, base_count, rng.randint(1, base_count - 1), 0.5)
    else:
        changing_dimension = kind == "changing dimension"
        system, rules, _ = random_cyclic_rules(rng, kind == "consistent", 0.5, changing_dimension)
        # A mapping that changes dimension is not defining: it is frozen as it is.
        conversion = DefiningConversion(rules) if changing_dimension else defining_conversion(system, rules)
    assert_the_rule_forms_match_the_reference(system, conversion)


def test_loaded_rules_keep_the_forms_compiled_at_load():
    for texts in (("si",), ("si", "uk")):
        system, rules = load_registry(*map(bundled_registry, texts))
        compiled = rules._compiled
        assert compiled.system is system and compiled.table is None
        assert_the_rule_forms_match_the_reference(system, rules)
        assert rules._compiled is compiled


def test_analyze_and_classify_are_linear_on_a_chain_of_5000_rules():
    system, rules = load_registry(chain_registry_text(5000)[0])
    for run in (analyze, classify):
        started = time.perf_counter()
        assert run(system, rules).iteration_bound == 4999
        assert time.perf_counter() - started < 1


def test_classify_refuses_a_dense_cycle_past_the_work_limit():
    system, rules = load_registry(dense_cycle_registry_text(800))
    started = time.perf_counter()
    with pytest.raises(RuleError, match="over MAX_RELATION_WORK = 500000 entry updates"):
        classify(system, rules)
    assert time.perf_counter() - started < 1


def test_the_relation_solver_refuses_only_past_its_work_limit(monkeypatch):
    # The second rule's row and combination, 1 + 2 entries against the first's 2 + 1, take 6 updates.
    system, rules = cyclic_pair()
    monkeypatch.setattr(CONVERT_MODULE, "MAX_RELATION_WORK", 6)
    assert classify(system, rules).consistency == "witness_found"
    monkeypatch.setattr(CONVERT_MODULE, "MAX_RELATION_WORK", 5)
    with pytest.raises(RuleError, match="over MAX_RELATION_WORK = 5 entry updates"):
        classify(system, rules)


def test_an_oversized_normal_form_refuses_only_the_conversions_that_reach_it(si_pair):
    extra = "[units]\nx L\ny L\nz L\nw L^2\n[rules]\nx 2 z\ny 1 x^20000*z^-19999\nw 3 y*m\n"
    started = time.perf_counter()
    system, rules = load_registry(bundled_registry("si"), extra)
    assert convert(system, rules, parse_unit(system, "km"), bare("m")) == 1000
    assert convert(system, rules, bare("x"), bare("z")) == 2
    for source in ("y", "w", "y*x"):
        with pytest.raises(RatioError, match="normal form of 'y' is too large: over MAX_RATIO_BITS"):
            convert(system, rules, parse_unit(system, source), bare("m"))
    assert time.perf_counter() - started < 1


def test_rule_factor_powers_are_bounded_before_they_are_taken(siuk_pair):
    system, rules = siuk_pair
    source, target = parse_unit(system, "lb^100000"), parse_unit(system, "kg^100000")
    started = time.perf_counter()
    with pytest.raises(RatioError, match="MAX_RATIO_BITS"):
        convert(system, rules, source, target)
    with pytest.raises(RatioError, match="MAX_RATIO_BITS"):
        rwr_eval(system, rules, evaluate(system, source))
    assert time.perf_counter() - started < 1
    # Factors of one add nothing to the bound.
    assert convert(system, rules, parse_unit(system, "Hz^20000"), parse_unit(system, "s^-20000")) == 1
    metres = evaluate(system, bare("m", 20000))
    assert rwr_eval(system, rules, metres) == metres


# As in test_an_oversized_normal_form_refuses_only_the_conversions_that_reach_it,
# with a second oversized symbol, v, to show which refusal comes first.
OVERSIZED_EXTRA = """\
[units]
x L
y L
z L
w L^2
v L
[rules]
x 2 z
y 1 x^20000*z^-19999
w 3 y*m
v 1 x^20000*z^-19999
"""


def _refusal(call):
    with pytest.raises(Exception) as raised:
        call()
    return type(raised.value), str(raised.value)


def _refusals(system, rules, unit):
    """What rwr_star, and convert with the unit on either side, raise for `unit` (text or unit)."""
    if isinstance(unit, str):
        unit = parse_unit(system, unit)
    other = em_empty()
    return {
        _refusal(lambda: rwr_star(system, rules, unit)),
        _refusal(lambda: convert(system, rules, unit, other)),
        _refusal(lambda: convert(system, rules, other, unit)),
    }


def _too_large(what):
    return {(RatioError, f"{what} is too large: over MAX_RATIO_BITS = 14000 bits")}


def test_rwr_star_and_convert_refuse_malformed_units_as_evaluate_does(siuk_pair):
    system, rules = siuk_pair
    odd = PreUnit(("k",), "m")
    cases = [
        (ExponentMap({"m": 1}), TypeError, "unit generators must be PreUnit values, got 'm'"),
        (bare("qq"), UnknownSymbolError, "unknown base unit 'qq'"),
        (unit_of(("m", 1, {"qq": 1})), UnknownSymbolError, "unknown prefix 'qq'"),
        # Each generator is checked in turn: the bad prefix on `g` comes first.
        (unit_of(("g", 1, {"qq": 1}), ("zz", 1)), UnknownSymbolError, "unknown prefix 'qq'"),
        # A prefix that is not an exponent map is read as the reference reads it.
        (ExponentMap({odd: 1}), TypeError, "em_flatten needs ExponentMap generators, got ('k',)"),
        (ExponentMap({odd: 1, PreUnit(em_empty(), "qq"): 1}), UnknownSymbolError, "unknown base unit 'qq'"),
    ]
    for unit, kind, message in cases:
        assert _refusals(system, rules, unit) == {(kind, message)}
        assert _refusal(lambda: evaluate(system, unit)) == (kind, message)
    cancelled = ExponentMap({odd: 1, PreUnit(("k",), "g"): -1})
    assert rwr_star(system, rules, cancelled) == rwr_star(system, rules, parse_unit(system, "m/g"))


def test_one_size_rule_refuses_prefix_values_and_rule_factors_alike(siuk_pair):
    system, rules = siuk_pair
    assert _refusals(system, rules, "Ym^176*lb^539") == _too_large("rewritten factor")
    assert _refusals(system, rules, "lb^539") == _too_large("rewritten factor")


def test_a_refused_normal_form_is_reported_as_the_unit_reaches_it():
    system, rules = load_registry(bundled_registry("si"), OVERSIZED_EXTRA)
    for text in ("y", "w", "y*x", "x*w^-2", "N^1401*y"):
        assert _refusals(system, rules, text) == _too_large("normal form of 'y'")
    # The first refused symbol in root order is named.
    assert _refusals(system, rules, "y*v") == _too_large("normal form of 'v'")
    # A refused symbol is named before the size is checked; a symbol that cancels out is never reached.
    assert _refusals(system, rules, "Ym^176*y") == _too_large("normal form of 'y'")
    assert rwr_star(system, rules, parse_unit(system, "k_y*y^-1")).factor == 1000


def test_cyclic_rules_are_refused_before_any_unit_is_checked():
    system, rules = cyclic_pair()
    message = "rules are not well-defining; dependency cycle: a > b > a"
    for unit in (bare("a"), bare("qq"), ExponentMap({"a": 1}), unit_of(("a", 1, {"qq": 1}))):
        assert _refusals(system, rules, unit) == {(NotWellDefiningError, message)}


def test_prefix_and_rule_factor_bits_are_bounded_together(siuk_pair):
    system, rules = siuk_pair
    # k^1200 takes 12000 bits and N's factor of 1000 another 6000: each
    # alone is within MAX_RATIO_BITS, the two together are not. The
    # first call memoises kkN, so the later ones start on the memo.
    for _ in range(2):
        assert _refusals(system, rules, "kkN^600") == _too_large("rewritten factor")
    assert rwr_star(system, rules, parse_unit(system, "kkN^466")).factor == 1000 ** (3 * 466)


@given(st.randoms(use_true_random=False))
def test_no_factor_rwr_star_returns_passes_the_bit_limit(siuk_pair, rng):
    system, rules = siuk_pair
    unit = random_unit(rng, system, max_parts=3, prefix_chance=0.7, exponents=tuple(range(-800, 801)))
    try:
        expanded = rwr_star(system, rules, unit)
    except RatioError:
        return
    assert ratio_bits(expanded.factor) <= MAX_RATIO_BITS


def test_the_documented_bound_boundaries_hold(siuk_pair):
    system, rules = siuk_pair
    pound = convert(system, rules, parse_unit(system, "lb"), parse_unit(system, "g"))
    factor = convert(system, rules, parse_unit(system, "lb^538"), parse_unit(system, "g^538"))
    assert factor == pound**538 and factor.numerator.bit_length() == 13684
    expanded = rwr_star(system, rules, parse_unit(system, "lb^538"))
    assert expanded.factor == factor and expanded.root == ExponentMap({"g": 538})
    assert convert(system, rules, parse_unit(system, "Ym^175"), parse_unit(system, "m^175")) == 10**4200
    assert _refusals(system, rules, "lb^539") == _too_large("rewritten factor")
    assert _refusals(system, rules, "Ym^176") == _too_large("rewritten factor")


def test_equal_integers_cancel_before_the_size_rule(siuk_pair):
    system, rules = siuk_pair
    # h^-1200 and N's factor 1000^600 are 10^-600, though 14 400 bits summed per value.
    hecto = parse_unit(system, "h^-2_N^600")
    assert rwr_star(system, rules, hecto).factor == Fraction(1, 10**600)
    assert convert(system, rules, hecto, parse_unit(system, "g^600*m^600*s^-1200")) == Fraction(1, 10**600)
    # k^5000 and m^5000 cancel to 1, in the prefix value and in the rewritten factor.
    cancelled = parse_unit(system, "k_m^5000*m_g^5000")
    assert rwr_star(system, rules, cancelled).factor == 1
    assert convert(system, rules, cancelled, parse_unit(system, "m^5000*g^5000")) == 1
    assert evaluate(system, cancelled).factor == 1


@given(st.randoms(use_true_random=False))
def test_rwr_star_and_convert_merge_prefixes_of_equal_value(rng):
    base_count = rng.randint(2, 6)
    chain, chain_rules, bases = random_chain_system(rng, base_count, rng.randint(1, base_count - 1), 0.5)
    # "q2" is worth what "p2" is worth, so `val` sums their exponents and
    # opposite powers cancel before its bound is checked.
    system = UnitSystem(chain.base_dimensions, {**chain.base_prefixes, "q2": Fraction(2)}, chain.base_units)
    rules = defining_conversion(system, chain_rules.rules)
    bound = analyze(system, rules).iteration_bound
    power = rng.choice([1, 3, 20000])
    shared = unit_of((rng.choice(bases), 1, {"p2": power}), (rng.choice(bases), 1, {"q2": -power}))
    source = em_mul(random_unit(rng, system), shared)
    expanded = exhaust(system, rules, source, bound)
    assert rwr_star(system, rules, source) == expanded
    target = rng.choice([random_unit(rng, system), strip(source), unroot(expanded.root)])
    expanded_target = exhaust(system, rules, target, bound)
    expected = expanded.factor / expanded_target.factor if expanded.root == expanded_target.root else None
    assert convert(system, rules, source, target) == expected


# The module, not the function the package exports under the same name.
CONVERT_MODULE = sys.modules["unical.convert"]


def _memo(rules):
    return rules._compiled.memo


def as_preunit_of(system, text):
    (preunit, _), = parse_unit(system, text).items()
    return preunit


def _memo_outcomes(system, rules, unit, other, fresh):
    """What rwr_star, and convert with `unit` on either side of `other`, give or raise.

    With `fresh`, each call gets a newly built copy of the rules, so
    `unit` is expanded without the memo, except in convert(other, unit),
    where `other` may have filled it.
    """
    results = []
    for call in (
        lambda rules: rwr_star(system, rules, unit),
        lambda rules: convert(system, rules, unit, other),
        lambda rules: convert(system, rules, other, unit),
    ):
        try:
            results.append(call(DefiningConversion(dict(rules.rules)) if fresh else rules))
        except Exception as error:
            results.append((type(error), str(error)))
    return results


def assert_the_memo_changes_nothing(system, rules, cases):
    """`rules`, warmed by every case before, gives what fresh rules give, before and after the case fills the memo."""
    for unit, other in cases:
        expected = _memo_outcomes(system, rules, unit, other, fresh=True)
        for _ in range(2):
            assert _memo_outcomes(system, rules, unit, other, fresh=False) == expected, (unit, other)


def assert_the_memo_holds_only_checked_unrefused_factors(system, rules):
    refused = rules._compiled.refused
    for preunit in _memo(rules):
        assert isinstance(preunit, PreUnit) and preunit.base in system.base_units, preunit
        assert preunit.base not in refused, preunit
        assert all(symbol in system.base_prefixes for symbol in preunit.prefix), preunit


@given(st.randoms(use_true_random=False))
def test_a_warm_factor_memo_agrees_with_fresh_rules_on_random_chains(rng):
    base_count = rng.randint(2, 6)
    chain, chain_rules, bases = random_chain_system(rng, base_count, rng.randint(1, base_count - 1), 0.5)
    system = UnitSystem(chain.base_dimensions, {**chain.base_prefixes, "q2": Fraction(2)}, chain.base_units)
    rules = defining_conversion(system, chain_rules.rules)
    bound = analyze(system, rules).iteration_bound
    cases = []
    for _ in range(6):
        unit = random_unit(rng, system)
        # Each factor of `shared` is memoised, or over the bound alone, and
        # their sum of |exponent| * bits is past MAX_RATIO_BITS at the
        # larger powers, so the unit takes the exact walk, where p2 and q2
        # cancel: `shared` converts to `bases`.
        power = rng.choice([1, 3, 3000, 5000, 20000])
        left, right = rng.choice(bases), rng.choice(bases)
        shared, shared_bases = rng.choice([
            (unit_of((left, 1, {"p2": power}), (right, 1, {"q2": -power})), unit_of((left, 1), (right, 1))),
            (unit_of((left, power, {"p2": 1}), (left, -power, {"q2": 1})), em_empty()),
        ])
        cases += [(unit, random_unit(rng, system)), (em_mul(unit, shared), rng.choice([unit, strip(unit)]))]
        assert convert(system, rules, em_mul(unit, shared), em_mul(unit, shared_bases)) == 1
    assert_the_memo_changes_nothing(system, rules, cases)
    assert_the_memo_holds_only_checked_unrefused_factors(system, rules)
    for unit, _ in cases:
        try:
            expanded, reference = rwr_star(system, rules, unit), exhaust(system, rules, unit, bound)
        except RatioError:  # the bounds differ: on whole normal forms, and per pass
            continue
        assert expanded == reference


def test_each_unit_of_a_conversion_is_bounded_alone(monkeypatch):
    # 10^4200 and 10^-4200 are each within MAX_RATIO_BITS; their quotient has 27 905 bits.
    system, rules = load_registry(bundled_registry("si"))
    source, target = parse_unit(system, "Ym^175"), parse_unit(system, "ym^175")
    cold = DefiningConversion(dict(rules.rules))
    factor = convert(system, cold, source, target)
    assert factor == 10**8400 and factor.numerator.bit_length() == 27905
    warm = DefiningConversion(dict(rules.rules))
    for text in ("Ym", "ym"):
        convert(system, warm, parse_unit(system, text), parse_unit(system, "m"))
    assert as_preunit_of(system, "Ym") in _memo(warm) and as_preunit_of(system, "ym") in _memo(warm)
    # Both units are multiplied out from the memo in one walk, without `_expand`.
    monkeypatch.setattr(CONVERT_MODULE, "_expand", None)
    assert convert(system, warm, source, target) == factor


def _outcome(call):
    try:
        return call()
    except Exception as error:
        return type(error), str(error)


def _quotient_of_expansions(system, rules, source, target):
    """What convert should give, from rwr_star on each unit under fresh rules.

    The source's refusal first, then the target's; else None when the
    expanded roots differ, and the quotient of the expanded factors when not.
    """
    def expand(unit):
        return rwr_star(system, DefiningConversion(dict(rules.rules)), unit)

    def quotient():
        expanded_source, expanded_target = expand(source), expand(target)
        if expanded_source.root != expanded_target.root:
            return None
        return expanded_source.factor / expanded_target.factor

    return _outcome(quotient)


# Texts whose every factor is memoised once converted alone, with a sum of
# |exponent| * bits over the factors just within MAX_RATIO_BITS (`Ym^175`, `lb^538`) or
# past it, where the memo is not read: the full walk then accepts some (the
# integers cancel) and refuses the others.
HEAVY_SI_UK_TEXTS = ["k_m^5000*m_g^5000", "km^3000/m^3000", "Ym^176", "lb^539", "h^-2_N^600", "Ym^175", "lb^538"]


@given(st.randoms(use_true_random=False), st.booleans())
def test_the_walk_over_both_units_agrees_with_rwr_star_on_each(siuk_pair, rng, on_si_uk):
    if on_si_uk:
        system, rules = siuk_pair
        heavy = parse_unit(system, rng.choice(HEAVY_SI_UK_TEXTS))
    else:
        base_count = rng.randint(2, 6)
        chain, chain_rules, bases = random_chain_system(rng, base_count, rng.randint(1, base_count - 1), 0.5)
        # "q2" is worth what "p2" is: p2^n*q2^-n cancels in the full walk.
        system = UnitSystem(chain.base_dimensions, {**chain.base_prefixes, "q2": Fraction(2)}, chain.base_units)
        rules = defining_conversion(system, chain_rules.rules)
        power = rng.choice([3000, 5000, 20000])
        heavy = unit_of((rng.choice(bases), 1, {"p2": power}), (rng.choice(bases), 1, {"q2": -power}))
    units = [random_unit(rng, system), random_unit(rng, system), heavy]
    source = rng.choice(units)
    target = rng.choice([*units, strip(source)])
    expected = _quotient_of_expansions(system, rules, source, target)

    def converted(memoised=(), cap=CONVERT_MODULE.MAX_MEMO_IDENTIFIERS):
        """convert under fresh rules, after each unit in `memoised` is converted alone, with the memo capped at `cap`."""
        fresh = DefiningConversion(dict(rules.rules))
        with mock.patch.object(CONVERT_MODULE, "MAX_MEMO_IDENTIFIERS", cap):
            for unit in memoised:
                _outcome(lambda: convert(system, fresh, unit, unit))
            return _outcome(lambda: convert(system, fresh, source, target))

    assert converted() == expected  # the memo cold
    assert converted([source, target]) == expected  # warm, the heavy unit past its bound there
    assert converted([source]) == expected and converted([target]) == expected  # one side memoised
    # The memo emptied as it fills, so that only some factors are left in it.
    assert converted([*units, source, target], cap=2) == expected


def test_a_warm_factor_memo_agrees_with_fresh_rules_on_si_uk():
    # Loaded here, not shared, so that the memo starts empty.
    system, rules = load_registry(bundled_registry("si"), bundled_registry("uk"))
    rng = random.Random(13)
    cases = [(random_unit(rng, system), random_unit(rng, system)) for _ in range(150)]
    cases += [(unit, strip(unit)) for unit, _ in cases[:50]]
    texts = [
        ("lb^538", "g^538"), ("lb^539", "g^539"), ("Ym^175", "m^175"), ("Ym^176", "m^176"),
        ("Ym^176*lb^539", "m^176*g^539"), ("lb^269*m^0", "lb^-269"), ("g_n^700", "lbf^700"), ("km^3000/m^3000", "1"),
    ]
    cases += [(parse_unit(system, source), parse_unit(system, target)) for source, target in texts]
    odd = PreUnit(("k",), "m")
    malformed = [
        ExponentMap({"m": 1}),
        bare("qq"),
        unit_of(("m", 1, {"qq": 1})),
        unit_of(("g", 1, {"qq": 1}), ("zz", 1)),
        ExponentMap({odd: 1}),
        ExponentMap({odd: 1, PreUnit(em_empty(), "qq"): 1}),
        ExponentMap({odd: 1, PreUnit(ExponentMap({"k": 1}), "g"): -1}),
    ]
    cases += [(unit, parse_unit(system, "km")) for unit in malformed]
    assert_the_memo_changes_nothing(system, rules, cases + cases[::-1])
    assert_the_memo_holds_only_checked_unrefused_factors(system, rules)
    memo = _memo(rules)
    assert as_preunit_of(system, "lb") in memo and as_preunit_of(system, "Ym") in memo
    for unknown in (PreUnit(em_empty(), "qq"), PreUnit(ExponentMap({"qq": 1}), "m"), odd):
        assert unknown not in memo


def test_each_memo_entry_is_its_factor_expanded_alone():
    system, rules = load_registry(bundled_registry("si"), bundled_registry("uk"))
    rng = random.Random(17)
    for _ in range(200):
        convert(system, rules, random_unit(rng, system), random_unit(rng, system))
    compiled = rules._compiled
    assert len(compiled.memo) > 100
    for preunit, (numerator, denominator, _, pairs) in compiled.memo.items():
        expected = rwr_star(system, DefiningConversion(dict(rules.rules)), em_delta(preunit))
        assert Fraction(numerator, denominator) == expected.factor and gcd(numerator, denominator) == 1, preunit
        assert ExponentMap(pairs) == expected.root, preunit
        if preunit.base in compiled.table:
            assert pairs is compiled.table[preunit.base][3], preunit
        else:
            assert pairs == ((preunit.base, 1),), preunit


def test_a_warm_factor_memo_agrees_with_fresh_rules_on_a_refused_normal_form():
    system, rules = load_registry(bundled_registry("si"), OVERSIZED_EXTRA)
    texts = ["y", "w", "y*x", "x*w^-2", "N^1401*y", "y*v", "Ym^176*y", "k_y*y^-1", "k_x*z", "x^3", "m*w^0"]
    units = [parse_unit(system, text) for text in texts]
    assert_the_memo_changes_nothing(system, rules, [(unit, other) for unit in units for other in units[-3:]])
    assert_the_memo_holds_only_checked_unrefused_factors(system, rules)
    memo = _memo(rules)
    assert {"v", "w", "y"} <= set(rules._compiled.refused)
    assert as_preunit_of(system, "k_x") in memo and as_preunit_of(system, "z") in memo
    assert not any(preunit.base in ("v", "w", "y") for preunit in memo)


def test_the_factor_memo_starts_after_the_table_is_built():
    # `y`'s replacement names `x` twice, cancelling out, so `y` does not
    # depend on `x`, and it is compiled before `x` has its form.
    system, rules = load_registry(bundled_registry("si"), "[units]\nx L\ny L\n[rules]\nx 2 m\ny 1 k_x*x^-1*m\n")
    for _ in range(2):
        assert convert(system, rules, parse_unit(system, "y"), parse_unit(system, "m")) == 1000
        assert convert(system, rules, parse_unit(system, "k_x*x"), parse_unit(system, "m^2")) == 4000


def test_the_factor_memo_never_exceeds_its_entry_cap(monkeypatch):
    monkeypatch.setattr(CONVERT_MODULE, "MAX_MEMO_IDENTIFIERS", 5)
    system, rules = load_registry(bundled_registry("si"))
    metre = parse_unit(system, "m")
    for prefix in sorted(system.base_prefixes):
        for base in ("m", "g", "s"):
            unit = unit_of((base, 1, {prefix: 1}))
            expected = evaluate(system, unit).factor if base == "m" else None
            assert convert(system, rules, unit, metre) == expected
            memo = _memo(rules)
            assert len(memo) <= 5 and PreUnit(ExponentMap({prefix: 1}), base) in memo
