import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unical import (
    MAP_GROUP,
    RATIO_GROUP,
    ExponentMap,
    em_delta,
    em_empty,
    em_eval,
    em_factors,
    em_flatten,
    em_inv,
    em_map,
    em_mul,
    em_pow,
)
from support import random_integer_map

nonzero = st.integers(min_value=-4, max_value=4).filter(bool)
generators = st.integers(min_value=1, max_value=8)
maps = st.dictionaries(generators, nonzero, max_size=4).map(ExponentMap)
nested = st.dictionaries(maps, st.integers(-3, 3).filter(bool), max_size=3).map(ExponentMap)
ratios = st.fractions(min_value=Fraction(1, 60), max_value=Fraction(60)).filter(lambda a: a > 0)
weighted_pairs = st.dictionaries(
    st.tuples(ratios, generators), nonzero, max_size=4
).map(ExponentMap)


@given(maps, maps)
def test_ordering_follows_canonical_items(f, g):
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        assert compare(f, g) == compare(f.items(), g.items())
        assert compare(f, f) == compare(f.items(), f.items())
        with pytest.raises(TypeError):
            compare(f, g.items())


def test_constructor_sums_duplicates_and_drops_zeros():
    built = ExponentMap([("a", 2), ("a", -2), ("b", 3)])
    assert built == ExponentMap({"b": 3})
    assert "a" not in built
    assert ExponentMap({"x": 0}) == em_empty()


def test_constructor_rejects_non_integer_exponents():
    for exponent in (1.5, True, 1.0, "1"):
        with pytest.raises(TypeError):
            ExponentMap({"a": exponent})
        with pytest.raises(TypeError):
            ExponentMap([("a", exponent)])
        with pytest.raises(TypeError) as info:
            em_pow(ExponentMap({"a": 1}), exponent)
        assert str(info.value) == f"exponent must be an integer, got {exponent!r}"


@given(st.randoms(use_true_random=False), st.integers(-3, 3))
def test_canonical_results_equal_the_general_constructor(rng, exponent):
    # em_delta, em_inv and em_pow build their results without re-checking
    # or re-sorting; the general constructor over the same pairs must agree.
    f = random_integer_map(rng, "abcdefgh")
    generator = rng.choice("abcdefgh")
    for built, pairs in (
        (em_delta(generator), [(generator, 1)]),
        (em_inv(f), [(g, -z) for g, z in f.items()]),
        (em_pow(f, exponent), [(g, z * exponent) for g, z in f.items()]),
    ):
        general = ExponentMap(pairs)
        assert built.items() == general.items()
        assert hash(built) == hash(general)
        assert built == general and ExponentMap(built) == built


def test_maps_are_immutable_and_hashable():
    f = ExponentMap({"a": 1})
    with pytest.raises(AttributeError):
        f.entries = ()  # type: ignore[attr-defined]
    assert hash(f) == hash(ExponentMap({"a": 1}))
    assert {f: "ok"}[ExponentMap({"a": 1})] == "ok"


def test_accessors():
    f = ExponentMap({"b": -2, "a": 1})
    assert f.items() == (("a", 1), ("b", -2))
    assert f.support() == ("a", "b")
    assert f.exponent("a") == 1 and f.exponent("missing") == 0
    assert list(f) == ["a", "b"]
    assert len(f) == 2 and bool(f) and "b" in f
    assert not em_empty()


def test_operator_sugar_matches_functions():
    f, g = ExponentMap({"a": 1}), ExponentMap({"a": 2, "b": -1})
    assert f * g == em_mul(f, g)
    assert f**-3 == em_pow(f, -3)


def test_factors_are_sorted_pairs():
    f = ExponentMap({"b": -2, "a": 1})
    assert em_factors(f) == [("a", 1), ("b", -2)]


def test_map_can_merge_generators():
    f = ExponentMap({"a": 2, "b": 3})
    assert em_map(lambda _: "c", f) == ExponentMap({"c": 5})
    cancelling = ExponentMap({"a": 2, "b": -2})
    assert em_map(lambda _: "c", cancelling) == em_empty()


def test_flatten_requires_nested_maps():
    with pytest.raises(TypeError):
        em_flatten(ExponentMap({"plain": 1}))


def test_eval_into_ratio_group():
    f = ExponentMap({Fraction(2): -3, Fraction(3): 2, Fraction(2, 5): -1})
    assert em_eval(RATIO_GROUP, f) == Fraction(45, 16)
    assert em_eval(RATIO_GROUP, em_empty()) == 1


def test_eval_into_map_group_is_flatten():
    inner_a, inner_b = ExponentMap({"x": 1}), ExponentMap({"x": -1, "y": 2})
    nested_map = ExponentMap({inner_a: 2, inner_b: 1})
    assert em_eval(MAP_GROUP, nested_map) == em_flatten(nested_map)
    assert em_flatten(nested_map) == ExponentMap({"x": 1, "y": 2})


@given(maps, maps, maps)
def test_group_laws(f, g, h):
    assert em_mul(f, g) == em_mul(g, f)
    assert em_mul(em_mul(f, g), h) == em_mul(f, em_mul(g, h))
    assert em_mul(f, em_empty()) == f
    assert em_mul(f, em_inv(f)) == em_empty()


@given(maps, st.integers(-6, 6), st.integers(-6, 6))
def test_power_is_a_homomorphism(f, a, b):
    assert em_pow(f, a + b) == em_mul(em_pow(f, a), em_pow(f, b))
    assert em_pow(f, 0) == em_empty()
    assert em_pow(f, -1) == em_inv(f)


@given(maps)
def test_functor_identity(f):
    assert em_map(lambda x: x, f) == f


@given(maps)
def test_functor_composition(f):
    first = lambda x: x + 1
    second = lambda x: x * 2
    assert em_map(second, em_map(first, f)) == em_map(lambda x: second(first(x)), f)


@given(generators)
def test_delta_naturality(x):
    assert em_map(lambda v: v + 7, em_delta(x)) == em_delta(x + 7)


@given(maps)
def test_monad_unit_laws(f):
    assert em_flatten(em_delta(f)) == f
    assert em_flatten(em_map(em_delta, f)) == f


@given(st.dictionaries(nested, st.integers(-2, 2).filter(bool), max_size=3).map(ExponentMap))
def test_monad_associativity(triple):
    assert em_flatten(em_flatten(triple)) == em_flatten(em_map(em_flatten, triple))


@given(maps, maps)
def test_map_is_a_homomorphism(f, g):
    relabel = lambda x: x % 3
    assert em_map(relabel, em_mul(f, g)) == em_mul(em_map(relabel, f), em_map(relabel, g))


@given(nested, nested)
def test_flatten_is_a_homomorphism(ff, gg):
    assert em_flatten(em_mul(ff, gg)) == em_mul(em_flatten(ff), em_flatten(gg))


@given(weighted_pairs, weighted_pairs)
def test_eval_is_a_homomorphism(f, g):
    assert em_eval(RATIO_GROUP, em_map(lambda p: p[0], em_mul(f, g))) == em_eval(
        RATIO_GROUP, em_map(lambda p: p[0], f)
    ) * em_eval(RATIO_GROUP, em_map(lambda p: p[0], g))


def pair_split(f):
    """Split a map over (weight, generator) pairs into (total weight, map)."""
    return (
        em_eval(RATIO_GROUP, em_map(lambda p: p[0], f)),
        em_map(lambda p: p[1], f),
    )


@given(ratios, generators)
def test_split_of_unit(weight, x):
    assert pair_split(em_delta((weight, x))) == (weight, em_delta(x))


@given(maps)
def test_split_of_unweighted_map(f):
    lifted = em_map(lambda x: (Fraction(1), x), f)
    assert pair_split(lifted) == (Fraction(1), f)


@given(st.dictionaries(weighted_pairs, st.integers(-2, 2).filter(bool), max_size=3).map(ExponentMap))
def test_split_after_flatten(ff):
    total, flat = pair_split(em_flatten(ff))
    assert total == em_eval(RATIO_GROUP, em_map(lambda inner: pair_split(inner)[0], ff))
    assert flat == em_flatten(em_map(lambda inner: pair_split(inner)[1], ff))


@given(st.dictionaries(st.tuples(ratios, st.tuples(ratios, generators)), nonzero, max_size=4).map(ExponentMap))
def test_split_collapses_stacked_weights(f):
    collapsed = em_map(lambda p: (p[0] * p[1][0], p[1][1]), f)
    outer_total, inner = pair_split(f)
    inner_total, final_map = pair_split(inner)
    assert pair_split(collapsed) == (outer_total * inner_total, final_map)
