import codecs
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unical import (
    BUNDLED_REGISTRIES,
    MAX_UNIT_EXPONENT,
    MAX_UNIT_NESTING,
    ExponentMap,
    PreUnit,
    RatioError,
    RegistryError,
    UnitSyntaxError,
    UnitSystem,
    UnknownIdentifierError,
    bundled_registry,
    build_system,
    classify,
    convert,
    defining_conversion,
    em_delta,
    em_empty,
    em_inv,
    em_mul,
    em_pow,
    load_registry,
    merge_documents,
    parse_document,
    parse_unit,
    print_dimension,
    print_evaluated,
    print_normalized,
    print_prefix,
    print_root,
    print_unit,
    evaluate,
    norm,
    read_registry,
)
from unical import registry
from unical.registry import MAX_MEMO_IDENTIFIER_LEN, MAX_REGISTRY_BYTES, _parse_expression, _resolve_identifier
from support import as_preunit, bare, random_unit, reference_parse, reference_tokenize, unit_of

SI, SI_RULES = load_registry(bundled_registry("si"))

SAMPLE = """\
# sample registry
[dimensions]
L T  # two at once

[prefixes]
k 1000
m 1/1000

[units]
m L
s T
v L/T   # a velocity pseudo-unit

[rules]
v 1 m/s
"""


def test_parse_document_sections():
    doc = parse_document(SAMPLE)
    assert [symbol for symbol, _ in doc.dimensions] == ["L", "T"]
    assert [(p.symbol, p.value_text) for p in doc.prefixes] == [
        ("k", "1000"),
        ("m", "1/1000"),
    ]
    assert [u.symbol for u in doc.units] == ["m", "s", "v"]
    assert [r.base for r in doc.rules] == ["v"]
    assert not doc.rules[0].pathological


def test_parse_document_records_line_numbers():
    doc = parse_document(SAMPLE)
    assert doc.dimensions[0][1] == 3
    assert doc.prefixes[0].line == 6
    assert doc.rules[0].line == 15


def test_parse_document_rejects_duplicates():
    with pytest.raises(RegistryError, match="line 4"):
        parse_document("[prefixes]\nk 1000\n\nk 1000\n")
    with pytest.raises(RegistryError):
        parse_document("[dimensions]\nL L\n")
    with pytest.raises(RegistryError, match=r"^line 3: duplicate unit 'm'$"):
        parse_document("[units]\nm L\nm L\n")
    with pytest.raises(RegistryError, match=r"^line 3: duplicate rule for 'm'$"):
        parse_document("[rules]\nm 1 m\nm 1 m\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[dimensions]\nL2\n", "line 2: invalid dimension symbol 'L2'"),
        ("[prefixes]\nk 1000 x\n", "line 2: prefix lines have the form: symbol value"),
        ("[units]\nm\n", "line 2: unit lines have the form: symbol dimension-expression"),
        (
            "[units]\nm L*\n",
            "line 2: bad dimension expression: expected a symbol, '(' or 1, found 'end of input' (at position 2)",
        ),
        ("[rules]\nm 1\n", "line 2: rule lines have the form: base ratio unit-expression [!pathological]"),
        ("[rules]\nqq 1 m\n", "line 2: rule for unknown base unit 'qq'"),
    ],
)
def test_a_malformed_registry_line_is_refused_with_its_number(text, message):
    with pytest.raises(RegistryError) as info:
        load_registry(bundled_registry("si"), text)
    assert str(info.value) == message


def test_parse_document_rejects_unknown_section():
    with pytest.raises(RegistryError, match="section"):
        parse_document("[nonsense]\nx 1\n")


def test_parse_document_rejects_entries_before_a_section():
    with pytest.raises(RegistryError, match="line 1"):
        parse_document("L\n[dimensions]\n")


def test_build_rejects_bad_ratio_with_line():
    doc = parse_document("[prefixes]\nk 1000\nbad 0/3\n")
    with pytest.raises(RegistryError, match="line 3"):
        build_system(doc)
    doc = parse_document("[prefixes]\nk 1000\nhuge 10^-10000000\n")
    with pytest.raises(RegistryError, match="line 3.*MAX_RATIO_BITS"):
        build_system(doc)


def test_parse_document_reads_pathological_flag():
    doc = parse_document("[dimensions]\nL\n[units]\nm L\n[rules]\nm 1 m !pathological\n")
    assert doc.rules[0].pathological


def test_merge_rules_later_wins():
    base = parse_document("[dimensions]\nT\n[units]\ns T\nh T\n[rules]\nh 3600 s\n")
    override = parse_document("[units]\nh T\n[rules]\nh 3601 s\n")
    merged = merge_documents([base, override])
    system, rules = build_system(merged)
    assert rules.rules["h"][0] == Fraction(3601)


def test_merge_rejects_prefix_conflicts_but_not_restatements():
    one = parse_document("[prefixes]\nk 1000\n")
    same = parse_document("[prefixes]\nk 10^3\n")
    merge_documents([one, same])
    different = parse_document("[prefixes]\nk 999\n")
    with pytest.raises(RegistryError, match="k"):
        merge_documents([one, different])


def test_merge_rejects_unit_dimension_conflicts():
    one = parse_document("[dimensions]\nL T\n[units]\nx L\n")
    clash = parse_document("[units]\nx T\n")
    with pytest.raises(RegistryError, match="x"):
        merge_documents([one, clash])
    restated = parse_document("[units]\nx L\n")
    merge_documents([one, restated])


def test_merge_accepts_a_dimension_restated_by_a_later_file():
    assert load_registry(bundled_registry("si"), "[dimensions]\nL\n") == (SI, SI_RULES)


def test_build_system_rejects_unknown_dimension_symbols():
    doc = parse_document("[units]\nm L\n")
    with pytest.raises(RegistryError):
        build_system(doc)


def test_build_system_can_skip_pathological_rules():
    system, rules = load_registry(bundled_registry("si"), include_pathological=False)
    assert "rad" not in rules.rules and "sr" not in rules.rules
    assert "rad" in system.base_units
    assert "Hz" in rules.rules


def test_load_registry_requires_at_least_one_text():
    with pytest.raises(RegistryError):
        load_registry()


def test_build_system_rejects_a_dimension_changing_rule_with_its_line():
    with pytest.raises(RegistryError) as info:
        load_registry(bundled_registry("si"), "# retune\n[rules]\nm 1 s\n")
    assert info.value.line == 3
    assert "changes dimension" in str(info.value)


def test_build_system_rules_match_whole_map_validation():
    checked = defining_conversion(SI, dict(SI_RULES.rules))
    assert list(SI_RULES.rules.items()) == list(checked.rules.items())


def test_build_system_reports_the_first_bad_rule_in_document_order():
    # In symbol order `A` comes first; in the document, `m` does.
    with pytest.raises(RegistryError) as info:
        load_registry(bundled_registry("si"), "[rules]\nm 1 s\nA 1 m\n")
    assert info.value.line == 2 and str(info.value) == "line 2: rule for 'm' changes dimension"


def test_a_rule_past_the_ratio_limit_is_refused_only_where_its_value_is_needed():
    system, rules = load_registry(bundled_registry("si"), "[units]\nx L^600\n[rules]\nx 1 Ym^600\n")
    assert defining_conversion(system, dict(rules.rules)) == rules
    assert classify(system, rules).consistency == "guaranteed"
    assert convert(system, rules, parse_unit(system, "km"), parse_unit(system, "m")) == 1000
    with pytest.raises(RatioError) as info:
        convert(system, rules, parse_unit(system, "x"), parse_unit(system, "m^600"))
    assert str(info.value) == "normal form of 'x' is too large: over MAX_RATIO_BITS = 14000 bits"
    # A cycle through the rule needs its value: evaluating it raises under the one
    # size rule, which names a rewritten factor, as `evaluate` names a prefix value.
    cycle = {**rules.rules, "m": (Fraction(1), parse_unit(system, "x"))}
    with pytest.raises(RatioError, match="^rewritten factor is too large"):
        classify(system, cycle)
    with pytest.raises(RatioError, match="^prefix value is too large"):
        evaluate(system, rules.rules["x"][1])


def test_read_registry_reads_a_file_path(tmp_path):
    path = tmp_path / "sample.reg"
    path.write_text(SAMPLE, encoding="utf-8")
    assert read_registry(str(path)) == SAMPLE


def test_read_registry_skips_a_byte_order_mark_and_counts_it_in_offsets(tmp_path):
    path = tmp_path / "si.reg"
    path.write_bytes(codecs.BOM_UTF8 + bundled_registry("si").encode("utf-8"))
    assert load_registry(read_registry(str(path))) == (SI, SI_RULES)
    path.write_bytes(codecs.BOM_UTF8 + b"[dimensions]\nL \xff\n")
    with pytest.raises(RegistryError, match="invalid start byte at byte offset 18$"):
        read_registry(str(path))


def test_read_registry_refuses_a_file_past_the_byte_limit(tmp_path):
    total = sum(len(bundled_registry(name).encode("utf-8")) for name in BUNDLED_REGISTRIES)
    assert total < MAX_REGISTRY_BYTES
    path = tmp_path / "comments.reg"
    path.write_bytes(b"#" * MAX_REGISTRY_BYTES)
    assert read_registry(str(path)) == "#" * MAX_REGISTRY_BYTES
    path.write_bytes(b"#" * (MAX_REGISTRY_BYTES + 1))
    message = f"registry {str(path)!r} is over MAX_REGISTRY_BYTES = {MAX_REGISTRY_BYTES} bytes"
    with pytest.raises(RegistryError) as raised:
        read_registry(str(path))
    assert str(raised.value) == message


def test_read_registry_reads_a_bundled_name():
    for name in BUNDLED_REGISTRIES:
        assert read_registry(name) == bundled_registry(name)


def test_bundled_name_wins_over_a_same_named_local_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "si").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "uk").mkdir()
    assert read_registry("si") == bundled_registry("si")
    assert read_registry("uk") == bundled_registry("uk")
    assert read_registry("./si") == SAMPLE


def test_read_registry_rejects_an_unknown_item(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(RegistryError) as info:
        read_registry("missing-name")
    assert str(info.value) == (
        "registry 'missing-name' is neither a readable file nor one of the bundled names (si, uk)"
    )
    with pytest.raises(RegistryError) as info:
        bundled_registry("missing-name")
    assert str(info.value) == "no bundled registry 'missing-name'; available: si, uk"


def test_bundled_tables_have_the_documented_shape():
    assert BUNDLED_REGISTRIES == ("si", "uk")
    assert len(SI.base_dimensions) == 7
    assert len(SI.base_prefixes) == 32
    assert len(SI.base_units) == 29
    assert len(SI_RULES.rules) == 22
    uk_system, uk_rules = load_registry(bundled_registry("si"), bundled_registry("uk"))
    assert len(uk_system.base_units) == 33
    assert len(uk_rules.rules) == 26
    assert uk_rules.rules["lb"][0] == Fraction(45359237, 100000)


def test_resolution_prefers_exact_base_match():
    assert parse_unit(SI, "cd") == em_delta(as_preunit("cd"))
    assert parse_unit(SI, "m") == em_delta(as_preunit("m"))


def test_resolution_greedy_prefix_chain():
    assert parse_unit(SI, "mm") == em_delta(as_preunit("m", {"m": 1}))
    assert parse_unit(SI, "dam") == em_delta(as_preunit("m", {"da": 1}))
    assert parse_unit(SI, "µkg") == em_delta(as_preunit("g", {"μ": 1, "k": 1}))
    assert parse_unit(SI, "mcd") == em_delta(as_preunit("cd", {"m": 1}))
    with pytest.raises(UnknownIdentifierError):
        parse_unit(SI, "kiB")


def test_resolution_underscore_forms():
    system, _ = load_registry(bundled_registry("si"), bundled_registry("uk"))
    assert parse_unit(system, "g_n") == em_delta(as_preunit("g_n"))
    assert parse_unit(system, "k_g_n") == em_delta(as_preunit("g_n", {"k": 1}))
    assert parse_unit(system, "k^2_m") == em_delta(as_preunit("m", {"k": 2}))
    assert parse_unit(system, "k_μ_g") == em_delta(as_preunit("g", {"k": 1, "μ": 1}))
    with pytest.raises(UnknownIdentifierError):
        parse_unit(system, "kg_n")


def test_normalization_folds_compatibility_codepoints():
    micro_sign = parse_unit(SI, "µg")
    greek_mu = parse_unit(SI, "μg")
    assert micro_sign == greek_mu
    ohm_sign = parse_unit(SI, "Ω")
    greek_omega = parse_unit(SI, "Ω")
    assert ohm_sign == greek_omega


def test_grammar_products_quotients_powers():
    assert parse_unit(SI, "kg*m/s^2") == unit_of(("g", 1, {"k": 1}), ("m", 1), ("s", -2))
    assert parse_unit(SI, "kg*m*s^-2") == parse_unit(SI, "kg*m/s^2")
    assert parse_unit(SI, "m/s/s") == unit_of(("m", 1), ("s", -2))
    assert parse_unit(SI, "(J/s)^2") == unit_of(("J", 2), ("s", -2))
    assert parse_unit(SI, "J^0") == em_empty()
    assert parse_unit(SI, "1") == em_empty()
    assert parse_unit(SI, "1/s") == unit_of(("s", -1))
    assert parse_unit(SI, " m * s ") == unit_of(("m", 1), ("s", 1))


@pytest.mark.parametrize(
    "text",
    ["", "m*", "*m", "m^", "m^x", "(m", "m)", "2*m", "m**s", "m^2^3", "m^-", "()"],
)
def test_grammar_rejects_malformed(text):
    with pytest.raises(UnitSyntaxError):
        parse_unit(SI, text)


def test_grammar_bounds_parenthesis_nesting():
    deepest = "(" * MAX_UNIT_NESTING + "m" + ")" * MAX_UNIT_NESTING
    assert parse_unit(SI, deepest) == bare("m")
    for depth in (MAX_UNIT_NESTING + 1, 400, 100_000):
        with pytest.raises(UnitSyntaxError, match="MAX_UNIT_NESTING") as info:
            parse_unit(SI, "(" * depth + "m" + ")" * depth)
        assert info.value.position == MAX_UNIT_NESTING


def test_grammar_bounds_exponent_magnitude():
    assert parse_unit(SI, f"m^-{MAX_UNIT_EXPONENT}") == bare("m", -MAX_UNIT_EXPONENT)
    assert parse_unit(SI, f"m^000{MAX_UNIT_EXPONENT}") == bare("m", MAX_UNIT_EXPONENT)
    for exponent in (str(MAX_UNIT_EXPONENT + 1), "-" + "9" * 5000, "1" + "0" * 100_000):
        with pytest.raises(UnitSyntaxError, match="MAX_UNIT_EXPONENT") as info:
            parse_unit(SI, "m^" + exponent)
        assert info.value.position == 2


def test_explicit_prefix_exponents_are_bounded():
    assert parse_unit(SI, f"k^{MAX_UNIT_EXPONENT}_m") == em_delta(as_preunit("m", {"k": MAX_UNIT_EXPONENT}))
    for exponent in (str(MAX_UNIT_EXPONENT + 1), "-" + "9" * 5000):
        with pytest.raises(UnitSyntaxError, match="MAX_UNIT_EXPONENT") as info:
            parse_unit(SI, f"s*d_k^{exponent}_m")
        assert info.value.position == 6


def test_unknown_identifier_carries_position():
    with pytest.raises(UnknownIdentifierError) as info:
        parse_unit(SI, "m*bogus")
    assert info.value.position == 2


def test_print_unit_examples():
    assert print_unit(SI, em_empty()) == "1"
    assert print_unit(SI, bare("m")) == "m"
    assert print_unit(SI, unit_of(("m", 2, {"k": 1}))) == "km^2"
    assert print_unit(SI, unit_of(("m", 1, {"k": 1}), ("g", -1))) == "g^-1*km"
    assert print_unit(SI, unit_of(("m", 1, {"k": 2}))) == "k^2_m"
    assert print_unit(SI, unit_of(("g", 1, {"k": 1, "μ": 1}))) == "k_μ_g"


def test_print_helpers():
    n = norm(SI, parse_unit(SI, "dm^3/m^2"))
    assert print_normalized(SI, n) == "(d^3, m)"
    e = evaluate(SI, parse_unit(SI, "dm^3/m^2"))
    assert print_evaluated(SI, e) == "(1/1000, m)"
    assert print_prefix(em_empty()) == "1"
    assert print_root(ExponentMap({"m": 1, "s": -2})) == "m*s^-2"
    assert print_dimension(ExponentMap({"L": 1, "M": 1, "T": -2})) == "L*M*T^-2"


def test_print_unit_refuses_unregistered_symbols():
    with pytest.raises((ValueError, KeyError)):
        print_unit(SI, em_delta(PreUnit(em_empty(), "cubit")))
    # `x_y_b` reads as x times the base unit `y_b`, and two prefixes have no compact form.
    system = UnitSystem({"L"}, {"x": Fraction(2), "y": Fraction(3)}, {"b": em_delta("L"), "y_b": em_delta("L")})
    preunit = PreUnit(ExponentMap({"x": 1, "y": 1}), "b")
    with pytest.raises(ValueError) as info:
        print_unit(system, em_delta(preunit))
    assert str(info.value) == f"no unambiguous rendering for {preunit!r} in this system"


@given(st.randoms(use_true_random=False))
def test_parse_print_roundtrip(rng):
    unit = random_unit(rng, SI, max_parts=3)
    for _ in range(2):  # the second parse reads SI's identifier memo
        assert parse_unit(SI, print_unit(SI, unit)) == unit


def sorted_scan_resolve(system, text):
    """Identifier resolution as first written: sort the symbols, scan them all."""
    if text in system.base_units:
        return em_delta(PreUnit(em_empty(), text))
    if "_" in text:
        segments = text.split("_")
        for split in range(1, len(segments)):
            tail = "_".join(segments[split:])
            if "^" in tail or tail not in system.base_units:
                continue
            pairs = []
            for segment in segments[:split]:
                symbol, caret, exponent_text = segment.partition("^")
                try:
                    exponent = int(exponent_text) if caret else 1
                except ValueError:
                    break
                if symbol not in system.base_prefixes:
                    break
                pairs.append((symbol, exponent))
            else:
                return em_delta(PreUnit(ExponentMap(pairs), tail))
        return None
    ordered = sorted(system.base_prefixes, key=lambda s: (-len(s), s))

    def chain_of(head):
        chain = []
        while head:
            for symbol in ordered:
                if head.startswith(symbol):
                    chain.append(symbol)
                    head = head[len(symbol):]
                    break
            else:
                return None
        return chain

    suffixes = sorted(
        (base for base in system.base_units if text.endswith(base) and base != text),
        key=lambda s: (-len(s), s),
    )
    for base in suffixes:
        chain = chain_of(text[: -len(base)])
        if chain is not None:
            return em_delta(PreUnit(ExponentMap((symbol, 1) for symbol in chain), base))
    return None


SIUK, _ = load_registry(bundled_registry("si"), bundled_registry("uk"))
IDENTIFIER_PIECES = sorted(SIUK.base_prefixes) + sorted(SIUK.base_units) + [
    "_", "^2", "^-1", "^", "x", "é",
]


@given(st.lists(st.sampled_from(IDENTIFIER_PIECES), min_size=1, max_size=6).map("".join))
@example("^2E_A")
@example("k^_m")
def test_identifier_resolution_matches_sorted_scan(text):
    expected = sorted_scan_resolve(SIUK, text)
    SIUK._resolved.pop(text, None)
    for _ in range(2):  # the second call reads the memo
        try:
            resolved = em_delta(_resolve_identifier(SIUK, text))
        except UnknownIdentifierError:
            resolved = None
        assert resolved == expected
    assert (text in SIUK._resolved) == (expected is not None)


def test_unknown_identifiers_are_not_memoised():
    system, _ = load_registry(bundled_registry("si"))
    for text, position in (("m*qq", 2), ("qq*m", 0), ("m*qq", 2), ("km/qq^2", 3)):
        with pytest.raises(UnknownIdentifierError) as caught:
            parse_unit(system, text)
        assert caught.value.position == position
    assert "qq" not in system._resolved
    assert {"m", "km"} <= system._resolved.keys()


def test_identifiers_over_the_length_cap_are_not_memoised():
    system, _ = load_registry(bundled_registry("si"))
    at_cap = "k_" * ((MAX_MEMO_IDENTIFIER_LEN - 1) // 2) + "m"
    over_cap = "k_" * (MAX_MEMO_IDENTIFIER_LEN // 2) + "m"
    greedy = "k" * 10_000 + "m"
    assert len(at_cap) <= MAX_MEMO_IDENTIFIER_LEN < len(over_cap)
    for text in (at_cap, over_cap, greedy):
        assert parse_unit(system, text) == unit_of(("m", 1, {"k": text.count("k")}))
    assert at_cap in system._resolved
    assert over_cap not in system._resolved and greedy not in system._resolved


def test_the_memo_never_exceeds_its_entry_cap(monkeypatch):
    monkeypatch.setattr(registry, "MAX_MEMO_IDENTIFIERS", 5)
    system, _ = load_registry(bundled_registry("si"))
    for prefix in sorted(system.base_prefixes):
        for base in ("m", "g", "s"):
            text = f"{prefix}_{base}"
            assert parse_unit(system, text) == unit_of((base, 1, {prefix: 1}))
            assert len(system._resolved) <= 5 and text in system._resolved


def test_systems_equal_by_value_ignore_their_memos():
    first, _ = load_registry(bundled_registry("si"))
    second, _ = load_registry(bundled_registry("si"))
    parse_unit(first, "km*µs^-2/k_g")
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) and "_resolved" not in repr(first)
    assert first._resolved is not second._resolved
    assert "km" in first._resolved and "km" not in second._resolved


@pytest.mark.parametrize(
    "text", ["k" * 100_000 + "xm", "k_" * 50_000 + "xm"], ids=["greedy", "explicit"]
)
def test_long_identifier_is_rejected_in_bounded_time(text):
    started = time.perf_counter()
    with pytest.raises(UnknownIdentifierError):
        parse_unit(SI, text)
    assert time.perf_counter() - started < 2


LONG_PRODUCT = "*".join(
    f"{prefix}{power}_{unit}"
    for power in ("", "^2", "^-1")
    for prefix in sorted(SIUK.base_prefixes)
    for unit in sorted(SIUK.base_units)
)


def test_a_long_product_parses_in_linear_time():
    started = time.perf_counter()
    unit = parse_unit(SIUK, LONG_PRODUCT)
    assert time.perf_counter() - started < 1
    assert len(LONG_PRODUCT) > 20_000 and len(unit) == 3168


@pytest.mark.parametrize("last", ["*m^10", "*qq"])
def test_a_long_warm_product_whose_last_term_misses_the_memo_parses_in_linear_time(last):
    # The memo walk reads every term but the last, declines, and the token loop reads the text again.
    system = fresh_siuk()
    parse_unit(system, LONG_PRODUCT)
    assert registry._read_known(system._resolved, LONG_PRODUCT) is not None
    assert registry._read_known(system._resolved, LONG_PRODUCT + last) is None
    started = time.perf_counter()
    outcome = _parse_outcome(lambda: parse_unit(system, LONG_PRODUCT + last))
    assert time.perf_counter() - started < 1
    if last == "*qq":
        position = len(LONG_PRODUCT) + 1
        assert outcome == (UnknownIdentifierError, f"unknown unit identifier 'qq' (at position {position})", position)
    else:
        assert len(outcome) == 3169 and outcome.exponent(as_preunit("m")) == 10


EXPRESSION_TREES = st.recursive(
    st.sampled_from(["m", "km", "k_g", "s", "h^2_s", "1"]),
    lambda children: st.one_of(
        st.tuples(st.sampled_from("*/"), children, children),
        st.tuples(st.just("^"), children, st.integers(-3, 3)),
        st.tuples(st.just("()"), children),
    ),
    max_leaves=12,
)


def render_tree(tree):
    """Text of an expression tree, with the kind of the outermost phrase."""
    if isinstance(tree, str):
        return tree, "atom"
    if tree[0] == "()":
        return f"({render_tree(tree[1])[0]})", "atom"
    if tree[0] == "^":
        text, kind = render_tree(tree[1])
        return (text if kind == "atom" else f"({text})") + f"^{tree[2]}", "term"
    left, right = render_tree(tree[1])[0], render_tree(tree[2])
    return left + tree[0] + (right[0] if right[1] != "expr" else f"({right[0]})"), "expr"


def fold_tree(tree):
    if isinstance(tree, str):
        return em_empty() if tree == "1" else em_delta(_resolve_identifier(SI, tree))
    if tree[0] == "()":
        return fold_tree(tree[1])
    if tree[0] == "^":
        return em_pow(fold_tree(tree[1]), tree[2])
    right = fold_tree(tree[2])
    return em_mul(fold_tree(tree[1]), right if tree[0] == "*" else em_inv(right))


@given(EXPRESSION_TREES)
def test_parse_equals_the_fold_of_group_operations(tree):
    assert parse_unit(SI, render_tree(tree)[0]) == fold_tree(tree)


# Pieces of expression text: identifiers (known, unknown, explicit, with
# exponents), `1` and other numbers, operators, parentheses in runs up to
# and past MAX_UNIT_NESTING, stray characters, and exponents at the bound.
PARSER_PIECES = [
    "m", "km", "kg", "lb", "g_n", "µ_k_g", "d^3_m", "qq", "L", "T", "1", "0", "2", "01", "-1", "-",
    "*", "/", "^", "(", ")", " ", "#", "_", "é", "\u00b5m", "^2", "^-1", "^0",
    "(" * MAX_UNIT_NESTING, ")" * MAX_UNIT_NESTING, "(" * (MAX_UNIT_NESTING + 1),
    *(f"^{sign}{MAX_UNIT_EXPONENT + delta}" for sign in ("", "-") for delta in (-1, 0, 1)),
]


def _parse_outcome(parse):
    try:
        return parse()
    except UnitSyntaxError as error:
        return type(error), str(error), error.position


PARSER_TEXTS = st.one_of(
    st.lists(st.sampled_from(PARSER_PIECES), max_size=14).map("".join),
    # A well-formed expression with one piece inserted somewhere, or none.
    st.tuples(
        EXPRESSION_TREES.map(lambda tree: render_tree(tree)[0]),
        st.sampled_from(PARSER_PIECES + [""]),
        st.integers(0, 60),
    ).map(lambda parts: parts[0][: parts[2]] + parts[1] + parts[0][parts[2] :]),
)


def assert_the_parsers_agree(text):
    # parse_unit on si+uk, whose identifier memo fills as it goes.
    assert _parse_outcome(lambda: parse_unit(SIUK, text)) == _parse_outcome(
        lambda: reference_parse(text, lambda ident, position: em_delta(_resolve_identifier(SIUK, ident, position)))
    )
    # Without a system, an identifier stands for itself, as in dimension expressions.
    assert _parse_outcome(lambda: _parse_expression(text)) == _parse_outcome(
        lambda: reference_parse(text, lambda ident, position: em_delta(ident))
    )


@pytest.mark.parametrize(
    "text",
    [
        "", "m*", "*m", "m^", "m^x", "(m", "m)", "(m))", "((m)", "2*m", "m**s", "m^2^3", "(m^2^3)", "m^-",
        "()", "(m)^2)", "m/(s", "1/1^2", "(1)(m)", "m^2 s", "qq/(m", "(m*qq^x", "m^#",
        "(" * MAX_UNIT_NESTING + "m" + ")" * MAX_UNIT_NESTING + "^2",
        "(" * (MAX_UNIT_NESTING + 1) + "m" + ")" * (MAX_UNIT_NESTING + 1),
        "(" * MAX_UNIT_NESTING + "m" + ")" * (MAX_UNIT_NESTING - 1),
        f"(km/s)^{MAX_UNIT_EXPONENT + 1}*qq",
        f"(km/s)^-{MAX_UNIT_EXPONENT}/m^{MAX_UNIT_EXPONENT - 1}",
        "(m*(s/kg)^-2)/(1/lb)^3",
        # A character that starts no token is reported before any other fault, wherever it stands.
        "k m#", "qq*#", "m^99999999999*#", "(" * 101 + "m#", "m**_", "m^x-", "m)#", "m*\ufb00#",
        # A '^' belongs to an identifier only when `-?[0-9]+_` and a symbol follow it.
        "m^2_", "^2_m", "m^2_*s", "(m)^2_s", "k_d^3_m", "d^3_m^2", "d^-3_m",
        "m ^ -2 / s", "1^2", "m^-0*s",
        # A term read with two lookups or a piece at a time: a zero, negative or spaced
        # exponent, an identifier holding a '^', a second '^', and the term after a ')'.
        "J^0", "km^0*s", "(km)^-2", "( km ) ^ 2", "d^3_m^-2", "km^2^3", "km^ 2", "m/s^2/s^-2", "k_m^-9*s^9",
        "(m)^", "m^2(", "km^-10",
    ],
)
def test_the_one_loop_parser_matches_the_recursive_descent_reference_on_examples(text):
    assert_the_parsers_agree(text)


@settings(max_examples=300)
@given(PARSER_TEXTS)
def test_the_one_loop_parser_matches_the_recursive_descent_reference(text):
    assert_the_parsers_agree(text)


@given(st.one_of(PARSER_TEXTS, EXPRESSION_TREES.map(lambda tree: render_tree(tree)[0])))
def test_a_parsed_map_is_canonical(text):
    # The parser builds its map without the constructor's checks; rebuilding it through them changes nothing.
    for parse in (lambda: parse_unit(SIUK, text), lambda: _parse_expression(text)):
        try:
            result = parse()
        except UnitSyntaxError:
            continue
        assert result.items() == ExponentMap(result.items()).items()


# Characters whose class a lexer could get wrong: blanks that are whitespace
# to `str.isspace` and `re` alike, digits other than ASCII, and stray ones.
LEXER_CHARACTERS = st.one_of(
    st.sampled_from("km_^-09*/() #\t\u3000\x1c\x85\xa0\u2028\u200b²٣①é"), st.characters()
)


@settings(max_examples=300)
@given(st.text(LEXER_CHARACTERS, max_size=16))
@example("d^-3_m^2_k^_s ^-_x")
@example("k^-_m-1-")
def test_the_lexer_matches_the_reference_lexer(text):
    assert _parse_outcome(lambda: registry._tokenize(text)) == _parse_outcome(lambda: reference_tokenize(text))


def fresh_siuk():
    return UnitSystem(SIUK.base_dimensions, SIUK.base_prefixes, SIUK.base_units)


def assert_memo_keys_are_identifiers(system):
    # The memo walk takes a term equal to a memo key from the memo unchecked.
    for key in system._resolved:
        assert registry._IDENT_RE.fullmatch(key) and registry._OPERATOR_RE.split(key) == [key]
        assert registry._tokenize(key) == [("ident", key, 0), ("end", "", len(key))]


def test_a_rendering_the_grammar_cannot_read_is_not_memoised():
    # The printer resolves `ka b` for the base unit `a b`, which no unit text can name.
    system = UnitSystem({"L"}, {"k": Fraction(1000)}, {"a b": em_delta("L")})
    for _ in range(2):  # before and after print_unit
        with pytest.raises(UnknownIdentifierError) as caught:
            parse_unit(system, "ka b")
        assert (str(caught.value), caught.value.position) == ("unknown unit identifier 'ka' (at position 0)", 0)
        assert print_unit(system, em_delta(PreUnit(em_delta("k"), "a b"))) == "ka b"
    assert "ka b" not in system._resolved
    assert_memo_keys_are_identifiers(system)


# Cuts text at its operators, keeping them: '*', '/', '(', ')', and each '^'
# except one that starts the `^n_` inside an identifier such as `d^3_m`.
SPACED_CUT = re.compile(r"([*/()]|\^(?!-?[0-9]+_))")


def spaced(rng, text):
    """`text` with blanks put at random before its pieces and operators, '^' among them."""
    parts = SPACED_CUT.split(text)
    return "".join(rng.choice(["", "", " ", "\t", "\u3000"]) + part for part in parts)


# Known identifiers with whitespace around them, and exponents next to the
# short literals that are read from a table: padded, signed, with a leading
# zero, or written in digits that are not ASCII.
MEMO_EDGE_TEXTS = [
    " km ", "km * s", "( km )^2", "\tk_g\t/ s", "\u3000km\u3000", "k m", "km s", "m^02", "m^-0", "m^+2",
    "m^ -2", "m^²", "m^٣", "m^9", "m^-9", "m^10", "m^-10", "m ^ 2 /s", "m^2 _s", "m^-2_s", "1^-9",
]


def assert_a_warm_memo_parses_as_a_fresh_one(text, rng):
    warm = fresh_siuk()
    parsed = _parse_outcome(lambda: parse_unit(warm, text))
    if isinstance(parsed, ExponentMap):
        print_unit(warm, parsed)
    for _ in range(3):
        parse_unit(warm, print_unit(warm, random_unit(rng, warm)))
    assert_memo_keys_are_identifiers(warm)
    fresh = fresh_siuk()
    expected = _parse_outcome(
        lambda: reference_parse(text, lambda ident, position: em_delta(_resolve_identifier(fresh, ident, position)))
    )
    assert _parse_outcome(lambda: parse_unit(fresh_siuk(), text)) == expected
    assert _parse_outcome(lambda: parse_unit(warm, text)) == expected


@pytest.mark.parametrize("text", MEMO_EDGE_TEXTS)
def test_a_warm_identifier_memo_parses_as_a_fresh_one_on_examples(text):
    assert_a_warm_memo_parses_as_a_fresh_one(text, random.Random(0))


@settings(max_examples=150)
@given(
    st.one_of(
        PARSER_TEXTS,
        st.randoms(use_true_random=False).map(lambda rng: spaced(rng, print_unit(SIUK, random_unit(rng, SIUK)))),
    ),
    st.randoms(use_true_random=False),
)
def test_a_warm_identifier_memo_parses_as_a_fresh_one(text, rng):
    assert_a_warm_memo_parses_as_a_fresh_one(text, rng)


WARM_SIUK = fresh_siuk()


def assert_the_memo_walk_reads_as_the_token_loop(text):
    """On a warm memo `_read_known` gives the pairs `_read_tokens` gives, or None; it never raises."""
    _parse_outcome(lambda: parse_unit(WARM_SIUK, text))  # memoises each identifier that resolves
    text = registry._normalize(text)
    known = registry._read_known(WARM_SIUK._resolved, text)
    if known is not None:
        assert known == registry._read_tokens(registry._tokenize(text), WARM_SIUK)
    return known


# Texts the memo walk takes once their identifiers are memoised.
MEMO_WALK_TEXTS = [
    "km*s^-2", "( km )^2", "s/(m)", "((m)^2)^-3/k_g", "d^3_m^2", " km / h^2_s^9",
    "(" * MAX_UNIT_NESTING + "m" + ")" * MAX_UNIT_NESTING,
]


@pytest.mark.parametrize(
    "text",
    MEMO_WALK_TEXTS + MEMO_EDGE_TEXTS + ["(" * (MAX_UNIT_NESTING + 1) + "m" + ")" * (MAX_UNIT_NESTING + 1), "(m)(s)"],
)
def test_the_memo_walk_reads_as_the_token_loop_on_examples(text):
    known = assert_the_memo_walk_reads_as_the_token_loop(text)
    assert known is not None or text not in MEMO_WALK_TEXTS


@settings(max_examples=300)
@given(
    st.one_of(
        PARSER_TEXTS,
        st.sampled_from(MEMO_EDGE_TEXTS),
        st.randoms(use_true_random=False).map(lambda rng: spaced(rng, print_unit(SIUK, random_unit(rng, SIUK)))),
    )
)
def test_the_memo_walk_reads_as_the_token_loop(text):
    assert_the_memo_walk_reads_as_the_token_loop(text)
