"""Unit representations over a symbol registry.

A unit system registers three kinds of symbols: dimensions, prefixes
(each worth an exact positive ratio), and base units (each carrying a
dimension). A concrete unit is then an exponent map over prefixed base
units, and this module provides the ladder of coarser views of it:

    Unit            exponent map over PreUnit values
    RootUnit        the same with all prefixes erased
    NormalizedUnit  a prefix word paired with a root
    EvaluatedUnit   the prefix word collapsed to its ratio value
    AbstractUnit    the root collapsed to its dimension

together with the maps between them and equality at each level.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from types import MappingProxyType
from typing import Iterable, Mapping

from .abelian import (
    ExponentMap,
    GroupInterface,
    Immutable,
    em_delta,
    em_empty,
    em_flatten,
    em_map,
    em_mul,
)
from .numeric import ONE, ratio_check_bits, ratio_inv, ratio_mul

__all__ = [
    "AbstractUnit",
    "Dimension",
    "EQUIV_LEVELS",
    "EvaluatedUnit",
    "NormalizedUnit",
    "PreUnit",
    "Prefix",
    "RATIO_GROUP",
    "RootUnit",
    "Unit",
    "UnitSystem",
    "UnknownSymbolError",
    "abstract",
    "dim",
    "dim_root",
    "equiv",
    "evaluate",
    "norm",
    "pref",
    "prefix_apply",
    "prefix_unit",
    "pval",
    "root",
    "strip",
    "unroot",
    "val",
]

# All four are exponent maps; the aliases record what the generators are.
Dimension = ExponentMap  # over dimension symbols
Prefix = ExponentMap  # over prefix symbols
RootUnit = ExponentMap  # over base-unit symbols
Unit = ExponentMap  # over PreUnit values

RATIO_GROUP: GroupInterface[Fraction] = GroupInterface(
    combine=ratio_mul, invert=ratio_inv, neutral=ONE
)


class UnknownSymbolError(LookupError):
    """A symbol is not registered in the unit system at hand."""


@total_ordering
class PreUnit(Immutable):
    """A base-unit symbol under a prefix word.

    The prefix is an exponent map over prefix symbols; the empty map means
    the bare base unit. Ordering is by base symbol first so canonical
    renderings group factors of the same base unit together.
    """

    __slots__ = ("prefix", "base")

    def __init__(self, prefix: Prefix, base: str):
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "base", base)

    def __lt__(self, other: "PreUnit") -> bool:
        if not isinstance(other, PreUnit):
            return NotImplemented
        return (self.base, self.prefix) < (other.base, other.prefix)


class NormalizedUnit(Immutable):
    """Prefix word and root, kept separate but not yet evaluated."""

    __slots__ = ("prefix", "root")

    def __init__(self, prefix: Prefix, root: RootUnit):
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "root", root)


class EvaluatedUnit(Immutable):
    """Exact scale factor and root."""

    __slots__ = ("factor", "root")

    def __init__(self, factor: Fraction, root: RootUnit):
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "root", root)


class AbstractUnit(Immutable):
    """Exact scale factor and dimension; the coarsest faithful view."""

    __slots__ = ("factor", "dimension")

    def __init__(self, factor: Fraction, dimension: Dimension):
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "dimension", dimension)


class UnitSystem(Immutable):
    """Immutable registry of dimension, prefix, and base-unit symbols.

    `base_prefixes` maps each prefix symbol to its exact positive value;
    `base_units` maps each base-unit symbol to its dimension, an exponent
    map over registered dimension symbols. Construction validates that
    every dimension a unit mentions is registered and every prefix value
    is a positive rational. `max_prefix_len` and `max_unit_len`, the
    lengths of the longest prefix and base-unit symbols, are worked out
    once here for identifier resolution, and `_resolved` is the memo of
    identifier text to PreUnit that `unical.registry` fills; equality,
    hashing and the repr leave all three out.
    """

    __slots__ = (
        "base_dimensions", "base_prefixes", "base_units", "max_prefix_len", "max_unit_len", "_resolved"
    )
    _fields = ("base_dimensions", "base_prefixes", "base_units")

    _resolved: dict[str, PreUnit]

    def __init__(
        self,
        base_dimensions: Iterable[str],
        base_prefixes: Mapping[str, Fraction],
        base_units: Mapping[str, Dimension],
    ):
        dimensions = frozenset(base_dimensions)
        prefixes = dict(base_prefixes)
        units = dict(base_units)
        for symbol, value in prefixes.items():
            if not isinstance(value, Fraction) or value <= 0:
                raise ValueError(f"prefix {symbol!r} must have a positive rational value, got {value!r}")
        for symbol, dimension in units.items():
            if not isinstance(dimension, ExponentMap):
                raise ValueError(f"unit {symbol!r} must carry an exponent-map dimension")
            for dim_symbol in dimension:
                if dim_symbol not in dimensions:
                    raise UnknownSymbolError(
                        f"unit {symbol!r} uses unregistered dimension {dim_symbol!r}"
                    )
        object.__setattr__(self, "base_dimensions", dimensions)
        object.__setattr__(self, "base_prefixes", MappingProxyType(prefixes))
        object.__setattr__(self, "base_units", MappingProxyType(units))
        object.__setattr__(self, "max_prefix_len", max(map(len, prefixes), default=0))
        object.__setattr__(self, "max_unit_len", max(map(len, units), default=0))
        object.__setattr__(self, "_resolved", {})

    def __hash__(self) -> int:
        return hash(
            (self.base_dimensions, frozenset(self.base_prefixes.items()), frozenset(self.base_units.items()))
        )


def _check_unit(system: UnitSystem, unit: Unit) -> None:
    for preunit in unit:
        if not isinstance(preunit, PreUnit):
            raise TypeError(f"unit generators must be PreUnit values, got {preunit!r}")
        if preunit.base not in system.base_units:
            raise UnknownSymbolError(f"unknown base unit {preunit.base!r}")
        for symbol in preunit.prefix:
            if symbol not in system.base_prefixes:
                raise UnknownSymbolError(f"unknown prefix {symbol!r}")


def prefix_unit(prefix: Prefix, base: str) -> Unit:
    """The unit consisting of one prefixed base-unit symbol."""
    return em_delta(PreUnit(prefix, base))


def pref(system: UnitSystem, unit: Unit) -> Prefix:
    """Total prefix word of a unit: each factor's prefix, raised and merged."""
    _check_unit(system, unit)
    return em_flatten(em_map(lambda preunit: preunit.prefix, unit))


def root(unit: Unit) -> RootUnit:
    """Erase prefixes, keeping base-unit symbols and exponents."""
    return em_map(lambda preunit: preunit.base, unit)


def unroot(root_unit: RootUnit) -> Unit:
    """Reread base-unit symbols as prefixless unit factors."""
    return em_map(lambda base: PreUnit(em_empty(), base), root_unit)


def strip(unit: Unit) -> Unit:
    """Drop all prefixes in place: the prefixless unit with the same root."""
    return unroot(root(unit))


def norm(system: UnitSystem, unit: Unit) -> NormalizedUnit:
    return NormalizedUnit(pref(system, unit), root(unit))


def prefix_apply(system: UnitSystem, prefix: Prefix, normalized: NormalizedUnit) -> NormalizedUnit:
    """Multiply an extra prefix word onto a normalized unit."""
    for symbol in prefix:
        if symbol not in system.base_prefixes:
            raise UnknownSymbolError(f"unknown prefix {symbol!r}")
    return NormalizedUnit(em_mul(prefix, normalized.prefix), normalized.root)


def _prefix_value(system: UnitSystem, symbol: str) -> Fraction:
    try:
        return system.base_prefixes[symbol]
    except KeyError:
        raise UnknownSymbolError(f"unknown prefix {symbol!r}") from None


def val(system: UnitSystem, prefix: Prefix) -> Fraction:
    """Value of a prefix word: the product of member values, exactly.

    Equal to `em_eval(RATIO_GROUP, em_map(value, prefix))`: each symbol
    is mapped to its registered ratio and the ratios are multiplied out.
    Exponents are first summed per value, keyed by its numerator and
    denominator in lowest terms, so equal-valued prefixes merge and
    cancel as under `em_map`. The value has at most
    sum |exponent| * bits(ratio) bits over those sums; past
    MAX_RATIO_BITS it raises RatioError before any power is taken.
    """
    powers: dict[tuple[int, int], int] = {}
    for symbol, z in prefix.items():
        value = _prefix_value(system, symbol)
        key = (value.numerator, value.denominator)
        powers[key] = powers.get(key, 0) + z
    ratio_check_bits(
        sum(abs(z) * max(n.bit_length(), d.bit_length()) for (n, d), z in powers.items()), "prefix value"
    )
    numerator = denominator = 1
    for (n, d), z in powers.items():
        if z < 0:
            n, d, z = d, n, -z
        numerator *= n**z
        denominator *= d**z
    return Fraction(numerator, denominator)


def pval(system: UnitSystem, unit: Unit) -> Fraction:
    """Value of a unit's total prefix word."""
    return val(system, pref(system, unit))


def _unit_dimension(system: UnitSystem, symbol: str) -> Dimension:
    try:
        return system.base_units[symbol]
    except KeyError:
        raise UnknownSymbolError(f"unknown base unit {symbol!r}") from None


def dim_root(system: UnitSystem, root_unit: RootUnit) -> Dimension:
    return em_flatten(em_map(lambda symbol: _unit_dimension(system, symbol), root_unit))


def dim(system: UnitSystem, unit: Unit) -> Dimension:
    return dim_root(system, root(unit))


def evaluate(system: UnitSystem, unit: Unit) -> EvaluatedUnit:
    return EvaluatedUnit(pval(system, unit), root(unit))


def abstract(system: UnitSystem, unit: Unit) -> AbstractUnit:
    return AbstractUnit(pval(system, unit), dim(system, unit))


EQUIV_LEVELS = ("norm", "eval", "root", "dim")


def equiv(system: UnitSystem, left: Unit, right: Unit, level: str = "norm") -> bool:
    """Equality of two units at the chosen level of abstraction.

    The levels sit in a chain from finest to coarsest: agreement at
    "norm" implies agreement at "eval" (the prefix word determines its
    value), which implies agreement at "root" (the root is part of the
    evaluated view), which implies agreement at "dim".
    """
    if level == "norm":
        return norm(system, left) == norm(system, right)
    if level == "eval":
        return evaluate(system, left) == evaluate(system, right)
    if level == "root":
        return root(left) == root(right)
    if level == "dim":
        return dim(system, left) == dim(system, right)
    raise ValueError(f"unknown equivalence level {level!r}; expected one of {EQUIV_LEVELS}")
