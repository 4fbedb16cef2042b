import copy
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from unical import (
    EQUIV_LEVELS,
    MAP_GROUP,
    MAX_RATIO_BITS,
    RATIO_GROUP,
    AbstractUnit,
    ClassificationReport,
    ClosureExploration,
    ConvTriple,
    DependencyReport,
    EvaluatedUnit,
    ExponentMap,
    GroupInterface,
    NormalizedUnit,
    PreUnit,
    RatioError,
    UnitSystem,
    UnknownSymbolError,
    abstract,
    analyze,
    bundled_registry,
    dim,
    dim_root,
    em_delta,
    em_empty,
    em_eval,
    em_inv,
    em_map,
    em_mul,
    em_pow,
    equiv,
    evaluate,
    load_registry,
    norm,
    pref,
    prefix_apply,
    prefix_unit,
    pval,
    root,
    strip,
    unroot,
    val,
)
from unical.abelian import Immutable
from unical.numeric import ratio_bits
from support import bare, random_unit, unit_of

SI, _ = load_registry(bundled_registry("si"))

unit_texts = st.randoms(use_true_random=False).map(
    lambda rng: random_unit(rng, SI, max_parts=3)
)


def test_preunit_equality_and_order():
    plain = PreUnit(em_empty(), "m")
    kilo = PreUnit(em_delta("k"), "m")
    assert plain == PreUnit(em_empty(), "m")
    assert plain != kilo
    gram, second = PreUnit(em_delta("m"), "g"), PreUnit(em_empty(), "s")
    assert sorted([kilo, second, gram, plain]) == [gram, plain, kilo, second]


preunits = st.builds(
    PreUnit,
    st.dictionaries(st.sampled_from("kmd"), st.integers(-2, 2).filter(bool), max_size=2).map(
        ExponentMap
    ),
    st.sampled_from(["g", "m", "s"]),
)


@given(preunits, preunits)
def test_preunit_ordering_is_by_base_then_prefix(a, b):
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        assert compare(a, b) == compare((a.base, a.prefix), (b.base, b.prefix))
        assert compare(a, a) == compare((a.base, a.prefix), (a.base, a.prefix))
        with pytest.raises(TypeError):
            compare(a, (b.base, b.prefix))


# (class, its fields, one value, another value)
VALUE_RECORDS = [
    (PreUnit, ("prefix", "base"), (em_delta("k"), "m"), (em_delta("k"), "g")),
    (NormalizedUnit, ("prefix", "root"), (em_delta("k"), em_delta("m")), (em_empty(), em_delta("m"))),
    (EvaluatedUnit, ("factor", "root"), (Fraction(1000), em_delta("m")), (Fraction(1000), em_delta("g"))),
    (AbstractUnit, ("factor", "dimension"), (Fraction(1000), em_delta("L")), (Fraction(1), em_delta("L"))),
    (GroupInterface, ("combine", "invert", "neutral"), (em_mul, em_inv, em_empty()), (em_mul, em_inv, em_delta("x"))),
    (
        ClosureExploration,
        ("triples", "witness", "bounds_hit"),
        (frozenset({ConvTriple(em_empty(), Fraction(2), em_empty())}), None, ("max_word",)),
        (frozenset(), None, ("max_word",)),
    ),
]


@pytest.mark.parametrize("cls, fields, values, other", VALUE_RECORDS)
def test_value_records_compare_and_hash_by_their_fields(cls, fields, values, other):
    record, twin = cls(*values), cls(*values)
    assert record == twin and record is not twin
    assert hash(record) == hash(twin) and len({record, twin}) == 1
    assert record != cls(*other)
    # Neither a plain tuple nor another record class with the same values is equal.
    assert record != values
    assert all(
        record != kind(*values)
        for kind, kind_fields, _, _ in VALUE_RECORDS
        if kind is not cls and len(kind_fields) == len(fields)
    )


@pytest.mark.parametrize("cls, fields, values, other", VALUE_RECORDS)
def test_value_records_refuse_assignment(cls, fields, values, other):
    record = cls(*values)
    assert tuple(getattr(record, field) for field in fields) == values
    assert repr(record) == "%s(%s)" % (
        cls.__name__, ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
    )
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, other[0])
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == cls(*values)


def test_value_record_reprs_name_their_fields():
    assert repr(PreUnit(em_delta("k"), "m")) == "PreUnit(prefix=ExponentMap({'k': 1}), base='m')"
    assert repr(EvaluatedUnit(Fraction(1, 2), em_delta("m"))) == (
        "EvaluatedUnit(factor=Fraction(1, 2), root=ExponentMap({'m': 1}))"
    )


def _record_classes():
    found, pending = [], [Immutable]
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls.__module__.startswith("unical."):
                found.append(cls)
                pending.append(cls)
    return found


def test_records_take_value_semantics_from_their_base():
    classes = _record_classes()
    assert {ExponentMap, GroupInterface, PreUnit, UnitSystem, ConvTriple} <= set(classes)
    for cls in classes:
        assert set(cls._fields) <= set(cls.__slots__), cls
        if cls is not ExponentMap:
            assert "__eq__" not in vars(cls) and "__repr__" not in vars(cls), cls


def test_records_copy_as_themselves():
    _, rules = load_registry(bundled_registry("si"))
    samples = [
        ExponentMap({"a": 2, "b": -1}),
        MAP_GROUP,
        PreUnit(em_delta("k"), "m"),
        NormalizedUnit(em_delta("k"), em_delta("m")),
        EvaluatedUnit(Fraction(1000), em_delta("m")),
        AbstractUnit(Fraction(1000), em_delta("L")),
        SI,
        ConvTriple(em_delta("x"), Fraction(2), em_delta("y")),
        rules,
        analyze(SI, rules),
        ClosureExploration(frozenset({ConvTriple(em_empty(), Fraction(2), em_empty())}), None, ("max_word",)),
        ClassificationReport(True, True, False, "guaranteed", iteration_bound=6),
    ]
    assert {type(record) for record in samples} == set(_record_classes())
    for record in samples:
        for duplicate in (copy.copy(record), copy.deepcopy(record), copy.deepcopy([record])[0]):
            assert type(duplicate) is type(record) and duplicate == record
            assert hash(duplicate) == hash(record) and repr(duplicate) == repr(record)


def test_system_validates_prefix_values():
    with pytest.raises(ValueError, match=r"^prefix 'x' must have a positive rational value, got Fraction\(0, 1\)$"):
        UnitSystem(frozenset(), {"x": Fraction(0)}, {})
    with pytest.raises(ValueError, match=r"^prefix 'x' must have a positive rational value"):
        UnitSystem(frozenset(), {"x": Fraction(-1, 2)}, {})


def test_system_validates_unit_dimensions():
    with pytest.raises(UnknownSymbolError, match=r"^unit 'm' uses unregistered dimension 'Q'$"):
        UnitSystem(frozenset({"L"}), {}, {"m": em_delta("Q")})


def test_system_equality_and_longest_symbols():
    system = UnitSystem(["L"], {"k": Fraction(1000), "da": Fraction(10)}, {"m": em_delta("L"), "mil": em_delta("L")})
    assert system == UnitSystem(frozenset({"L"}), dict(system.base_prefixes), dict(system.base_units))
    assert (system.max_prefix_len, system.max_unit_len) == (2, 3)
    assert (SI.max_prefix_len, SI.max_unit_len) == (
        max(map(len, SI.base_prefixes)),
        max(map(len, SI.base_units)),
    )
    with pytest.raises(AttributeError):
        system.base_units = {}  # type: ignore[misc]


def test_system_mappings_are_read_only():
    system = UnitSystem(frozenset({"L"}), {"k": Fraction(1000)}, {"m": em_delta("L")})
    with pytest.raises(TypeError):
        system.base_units["x"] = em_empty()  # type: ignore[index]
    with pytest.raises(TypeError):
        system.base_prefixes["x"] = Fraction(2)  # type: ignore[index]


def test_prefix_root_strip_unroot():
    u = unit_of(("m", 3, {"d": 1}), ("m", -2))
    assert pref(SI, u) == ExponentMap({"d": 3})
    assert root(u) == ExponentMap({"m": 1})
    assert strip(u) == unroot(root(u))
    assert pref(SI, strip(u)) == em_empty()


def test_pref_rejects_unknown_base():
    with pytest.raises(UnknownSymbolError):
        pref(SI, bare("parsec"))


def test_norm_splits_prefix_word_from_root():
    u = unit_of(("m", 3, {"d": 1}), ("m", -2))
    n = norm(SI, u)
    assert n.prefix == ExponentMap({"d": 3})
    assert n.root == ExponentMap({"m": 1})


def test_prefix_apply_composes_words():
    n = norm(SI, bare("m"))
    shifted = prefix_apply(SI, em_delta("k"), n)
    assert shifted.prefix == em_delta("k")
    assert shifted.root == n.root
    with pytest.raises(UnknownSymbolError):
        prefix_apply(SI, em_delta("nope"), n)


def test_val_and_pval():
    assert val(SI, ExponentMap({"k": 1, "μ": 1})) == Fraction(1, 1000)
    assert val(SI, em_empty()) == 1
    u = unit_of(("g", 1, {"μ": 1, "k": 1}))
    assert pval(SI, u) == Fraction(1, 1000)


def test_val_refuses_words_past_the_ratio_limit_before_the_power():
    # ki is 2^10, which takes 11 bits.
    most = MAX_RATIO_BITS // 11
    assert val(SI, ExponentMap({"ki": most})) == 2 ** (10 * most)
    started = time.perf_counter()
    for exponent in (most + 1, -most - 1, 10**12):
        with pytest.raises(RatioError, match="MAX_RATIO_BITS"):
            val(SI, ExponentMap({"ki": exponent}))
    assert time.perf_counter() - started < 1


# "k" and "K" have equal values, so their exponents merge under em_map.
TWIN = UnitSystem(
    ["L"],
    {"k": Fraction(1000), "K": Fraction(1000), "h": Fraction(1, 100), "ki": Fraction(1024)},
    {"m": em_delta("L")},
)


def prefix_words(system):
    exponents = st.one_of(st.integers(-3, 3), st.integers(-3000, 3000))
    symbols = st.sampled_from(sorted(system.base_prefixes))
    return st.dictionaries(symbols, exponents, max_size=5).map(lambda word: (system, ExponentMap(word)))


@given(st.one_of(prefix_words(SI), prefix_words(TWIN)))
@example((TWIN, ExponentMap({"k": 5000, "K": -5000})))
@example((TWIN, ExponentMap({"k": 5000, "K": -4999, "ki": -2})))
def test_val_equals_the_mapped_evaluation(case):
    system, prefix = case
    values = em_map(system.base_prefixes.__getitem__, prefix)
    if sum(abs(z) * ratio_bits(value) for value, z in values.items()) > MAX_RATIO_BITS:
        with pytest.raises(RatioError, match="MAX_RATIO_BITS"):
            val(system, prefix)
    else:
        assert val(system, prefix) == em_eval(RATIO_GROUP, values)


def test_binary_prefix_values():
    assert val(SI, em_delta("ki")) == Fraction(1024)
    assert val(SI, em_mul(em_delta("ki"), em_inv(em_delta("k")))) == Fraction(1024, 1000)


def test_evaluate_cubic_decimetre_per_square_metre():
    u = unit_of(("m", 3, {"d": 1}), ("m", -2))
    e = evaluate(SI, u)
    assert e.factor == Fraction(1, 1000)
    assert e.root == ExponentMap({"m": 1})


def test_dim_and_dim_root():
    assert dim(SI, bare("N")) == ExponentMap({"L": 1, "M": 1, "T": -2})
    assert dim_root(SI, ExponentMap({"m": 1, "s": -1})) == ExponentMap({"L": 1, "T": -1})
    assert dim(SI, unit_of(("g", 1, {"k": 1}))) == em_delta("M")


def test_abstract_combines_factor_and_dimension():
    a = abstract(SI, unit_of(("m", 1, {"c": 1})))
    assert a.factor == Fraction(1, 100)
    assert a.dimension == em_delta("L")


def test_equiv_distinguishes_levels():
    spelled_one_way = unit_of(("m", 1, {"k": 1}), ("m", 1, {"μ": 1}))
    spelled_another = unit_of(("m", 1), ("m", 1, {"k": 1, "μ": 1}))
    assert spelled_one_way != spelled_another
    assert equiv(SI, spelled_one_way, spelled_another, "norm")

    deca_hecto = unit_of(("m", 1, {"da": 1, "h": 1}))
    kilo = unit_of(("m", 1, {"k": 1}))
    assert not equiv(SI, deca_hecto, kilo, "norm")
    assert equiv(SI, deca_hecto, kilo, "eval")

    assert not equiv(SI, kilo, bare("m"), "eval")
    assert equiv(SI, kilo, bare("m"), "root")

    assert not equiv(SI, bare("Gy"), bare("Sv"), "root")
    assert equiv(SI, bare("Gy"), bare("Sv"), "dim")

    with pytest.raises(ValueError):
        equiv(SI, kilo, kilo, "spelling")


@given(unit_texts)
def test_strip_is_idempotent(u):
    assert strip(strip(u)) == strip(u)
    assert pval(SI, strip(u)) == 1


@given(unit_texts)
def test_norm_factors_evaluation(u):
    n = norm(SI, u)
    e = evaluate(SI, u)
    assert val(SI, n.prefix) == e.factor == pval(SI, u)
    assert n.root == e.root == root(u)


@given(unit_texts, unit_texts)
def test_equiv_chain_is_monotone(u, v):
    levels = list(EQUIV_LEVELS)
    outcomes = [equiv(SI, u, v, level) for level in levels]
    for finer, coarser in zip(outcomes, outcomes[1:]):
        assert not finer or coarser


@given(unit_texts)
def test_units_form_a_group_under_mul(u):
    assert em_mul(u, em_inv(u)) == em_empty()
    assert evaluate(SI, em_pow(u, 2)).factor == evaluate(SI, u).factor ** 2
