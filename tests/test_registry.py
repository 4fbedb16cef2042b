import codecs
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from unical import (
    BUNDLED_REGISTRIES,
    MAX_UNIT_EXPONENT,
    MAX_UNIT_NESTING,
    ExponentMap,
    PreUnit,
    RegistryError,
    UnitSyntaxError,
    UnknownIdentifierError,
    bundled_registry,
    build_system,
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
from unical.registry import MAX_MEMO_IDENTIFIER_LEN, MAX_REGISTRY_BYTES, _resolve_identifier
from support import as_preunit, bare, random_unit, unit_of

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
            resolved = _resolve_identifier(SIUK, text)
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


def test_a_long_product_parses_in_linear_time():
    text = "*".join(
        f"{prefix}{power}_{unit}"
        for power in ("", "^2", "^-1")
        for prefix in sorted(SIUK.base_prefixes)
        for unit in sorted(SIUK.base_units)
    )
    started = time.perf_counter()
    unit = parse_unit(SIUK, text)
    assert time.perf_counter() - started < 1
    assert len(text) > 20_000 and len(unit) == 3168


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
        return em_empty() if tree == "1" else _resolve_identifier(SI, tree)
    if tree[0] == "()":
        return fold_tree(tree[1])
    if tree[0] == "^":
        return em_pow(fold_tree(tree[1]), tree[2])
    right = fold_tree(tree[2])
    return em_mul(fold_tree(tree[1]), right if tree[0] == "*" else em_inv(right))


@given(EXPRESSION_TREES)
def test_parse_equals_the_fold_of_group_operations(tree):
    assert parse_unit(SI, render_tree(tree)[0]) == fold_tree(tree)
