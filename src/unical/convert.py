"""Conversion rules, dependency analysis, rewriting, and convertibility.

A conversion triple asserts that one unit equals a ratio times another
unit. A defining conversion is the special shape unit registries use: at
most one rule per base-unit symbol, rewriting that symbol into a ratio
times a replacement unit of the same dimension. This module analyzes the
dependency order of such rule sets, rewrites units to their fully
expanded evaluated form, decides convertibility with the exact factor,
decides the consistency of rule mappings by integer linear algebra, and
explores the closure of arbitrary triple sets to hunt for inconsistency
witnesses (the paper's bounded reference semantics, which `classify`
does not use).
"""

from __future__ import annotations

from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from math import gcd
from types import MappingProxyType
from functools import total_ordering
from typing import Iterable, Mapping, Optional, Union

from .abelian import ExponentMap, Immutable, em_delta, em_empty, em_inv, em_mul
from .model import (
    EvaluatedUnit,
    PreUnit,
    Unit,
    UnitSystem,
    UnknownSymbolError,
    dim,
    evaluate,
    pval,
    root,
    strip,
)
from .numeric import MAX_RATIO_BITS, ONE, RatioError, ratio_bits, ratio_check_bits, ratio_inv

__all__ = [
    "ClassificationReport",
    "ClosureExploration",
    "ConvTriple",
    "ConversionError",
    "DefiningConversion",
    "DependencyReport",
    "NotWellDefiningError",
    "RuleError",
    "analyze",
    "check_triples",
    "classify",
    "coherent",
    "convert",
    "defining_conversion",
    "explore_closure",
    "rwr_eval",
    "rwr_star",
    "xpd",
]


class ConversionError(Exception):
    """Base class for conversion-specific failures."""


class RuleError(ConversionError):
    """A rule set does not have the defining-conversion shape."""


class NotWellDefiningError(ConversionError):
    """Rewriting was requested under rules with cyclic dependencies."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = tuple(cycle)
        loop = " > ".join(self.cycle + self.cycle[:1])
        super().__init__(f"rules are not well-defining; dependency cycle: {loop}")


@total_ordering
class ConvTriple(Immutable):
    """One conversion assertion: `source` equals `ratio` times `target`.

    Triples are ordered canonically, by (source, ratio, target).
    """

    __slots__ = ("source", "ratio", "target")

    def __init__(self, source: Unit, ratio: Fraction, target: Unit):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "target", target)

    def __lt__(self, other: "ConvTriple") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) < self._values(other)


def _triple_mul(a: ConvTriple, b: ConvTriple) -> ConvTriple:
    return ConvTriple(em_mul(a.source, b.source), a.ratio * b.ratio, em_mul(a.target, b.target))


def _triple_inv(a: ConvTriple) -> ConvTriple:
    return ConvTriple(em_inv(a.source), ratio_inv(a.ratio), em_inv(a.target))


Rules = Mapping[str, tuple[Fraction, Unit]]


class DefiningConversion(Immutable):
    """Validated rule set: base-unit symbol -> (ratio, replacement unit).

    Build these through `defining_conversion`, which checks the shape;
    the constructor itself only freezes the mapping. The normal-form
    table that `rwr_star` and `convert` use is compiled on first use and
    kept in `_compiled`, together with the unit system it was compiled
    against; equality, hashing and the repr leave it out.
    """

    __slots__ = ("rules", "_compiled")
    _fields = ("rules",)

    _compiled: Optional[tuple[UnitSystem, Mapping[str, _NormalForm], Mapping[str, str]]]

    def __init__(self, rules: Rules):
        object.__setattr__(self, "rules", MappingProxyType(dict(rules)))
        object.__setattr__(self, "_compiled", None)

    def __hash__(self) -> int:
        return hash(frozenset(self.rules.items()))

    def triples(self) -> list[ConvTriple]:
        """The rule set as conversion triples, in symbol order."""
        return [
            ConvTriple(em_delta(PreUnit(em_empty(), base)), ratio, replacement)
            for base, (ratio, replacement) in sorted(self.rules.items())
        ]


def _as_ratio(value) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        value = Fraction(value)
    if not isinstance(value, Fraction) or value <= 0:
        raise RuleError(f"not a positive rational ratio: {value!r}")
    return value


def _structural_rules(
    system: UnitSystem, rules: Mapping[str, tuple]
) -> tuple[dict[str, tuple[Fraction, Unit]], list[str]]:
    """Check the shape of a rule mapping, in symbol order.

    Returns the checked rules and the bases, in symbol order, whose rule
    changes dimension; whether that is an error is the caller's choice.
    """
    checked: dict[str, tuple[Fraction, Unit]] = {}
    changes_dimension: list[str] = []
    for base in sorted(rules):
        ratio, replacement = rules[base]
        if base not in system.base_units:
            raise UnknownSymbolError(f"rule rewrites unknown base unit {base!r}")
        ratio = _as_ratio(ratio)
        if not isinstance(replacement, ExponentMap):
            raise RuleError(f"rule for {base!r} needs a unit replacement, got {replacement!r}")
        if dim(system, replacement) != system.base_units[base]:
            changes_dimension.append(base)
        checked[base] = (ratio, replacement)
    return checked, changes_dimension


def defining_conversion(system: UnitSystem, rules: Mapping[str, tuple]) -> DefiningConversion:
    """Validate a rule mapping and freeze it as a DefiningConversion.

    Each key must be a registered base-unit symbol, each value a pair of a
    positive ratio (int accepted) and a replacement unit over the system
    with the same dimension as the base unit being rewritten.
    """
    checked, changes_dimension = _structural_rules(system, rules)
    if changes_dimension:
        raise RuleError(f"rule for {changes_dimension[0]!r} changes dimension")
    return DefiningConversion(checked)


class DependencyReport(Immutable):
    """Dependency structure of a defining conversion.

    A rule depends directly on the symbols in the support of its
    replacement's root, after any cancellation inside the replacement;
    `analyze` walks those edges once. When the relation is
    well-founded, `depth` gives each registered base unit's expansion
    depth (zero for symbols without a rule) and `iteration_bound` the
    number of parallel rewriting passes after which every unit is fully
    expanded; otherwise both are None and `cycle_witness` lists one cycle
    in visiting order. Transitive dependencies are left to
    `scripts/depth_report.py`, the one reader that needs them.
    """

    __slots__ = ("well_founded", "cycle_witness", "depth", "iteration_bound")

    def __init__(
        self,
        well_founded: bool,
        cycle_witness: Optional[tuple[str, ...]],
        depth: Optional[Mapping[str, int]],
        iteration_bound: Optional[int],
    ):
        object.__setattr__(self, "well_founded", well_founded)
        object.__setattr__(self, "cycle_witness", cycle_witness)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "iteration_bound", iteration_bound)

    def __hash__(self) -> int:
        depth = self.depth if self.depth is None else frozenset(self.depth.items())
        return hash((self.well_founded, self.cycle_witness, depth, self.iteration_bound))


def _direct_dependencies(conversion: DefiningConversion) -> dict[str, tuple[str, ...]]:
    return {
        base: tuple(sorted(root(replacement).support()))
        for base, (_, replacement) in conversion.rules.items()
    }


def _walk(direct: Mapping[str, tuple[str, ...]]) -> tuple[Optional[tuple[str, ...]], list[str]]:
    """Order the ruled symbols with graphlib, or name a cycle among them.

    Each rule's base is added as a predecessor of the ruled symbols its
    replacement uses, so graphlib's cycle search walks from a rule to its
    dependencies, from the smallest symbol and through each rule's
    dependencies in sorted order: the first cycle it meets is the one a
    depth-first walk in symbol order meets. Static order lists each rule
    before its dependencies; the reverse is the dependency post-order.
    """
    sorter = TopologicalSorter()
    for base in sorted(direct):
        sorter.add(base)
    for base in sorted(direct):
        for symbol in direct[base]:
            if symbol in direct:
                sorter.add(symbol, base)
    try:
        order = list(sorter.static_order())
    except CycleError as error:
        return tuple(error.args[1][:-1]), []
    return None, order[::-1]


def analyze(system: UnitSystem, conversion: DefiningConversion) -> DependencyReport:
    direct = _direct_dependencies(conversion)
    cycle, order = _walk(direct)
    depth: Optional[dict[str, int]] = None
    if cycle is None:
        depth = dict.fromkeys(system.base_units, 0)
        for symbol in order:
            depth[symbol] = 1 + max((depth.get(s, 0) for s in direct[symbol]), default=0)
    return DependencyReport(
        well_founded=cycle is None,
        cycle_witness=cycle,
        depth=None if depth is None else MappingProxyType(depth),
        iteration_bound=None if depth is None else max(depth.values(), default=0),
    )


def xpd(system: UnitSystem, conversion: DefiningConversion, base: str) -> tuple[Fraction, Unit]:
    """One expansion step for a base-unit symbol.

    Returns the rule's ratio and replacement when a rule exists; a symbol
    without a rule expands to itself with ratio one.
    """
    if base not in system.base_units:
        raise UnknownSymbolError(f"unknown base unit {base!r}")
    rule = conversion.rules.get(base)
    if rule is None:
        return ONE, em_delta(PreUnit(em_empty(), base))
    return rule


def _power_product(powers: list[tuple[Fraction, int]], what: str) -> Fraction:
    """The product of ratio powers, with `val`'s bound checked first.

    The product has at most sum |exponent| * bits(ratio) bits over the
    ratios other than one; past MAX_RATIO_BITS that raises RatioError
    before any power is taken. The bound over-estimates: it ignores
    cancellation between the ratios.
    """
    ratio_check_bits(sum(abs(z) * ratio_bits(r) for r, z in powers if r != 1), what)
    product = ONE
    for r, z in powers:
        product *= r ** z
    return product


def rwr_eval(system: UnitSystem, conversion: DefiningConversion, unit: EvaluatedUnit) -> EvaluatedUnit:
    """Rewrite every base unit in an evaluated unit's root once, in parallel.

    Rule factors are raised to the unit's exponents under `val`'s bound,
    as in `convert`.
    """
    powers: list[tuple[Fraction, int]] = []
    pairs: list[tuple[str, int]] = []
    for base, exponent in unit.root.items():
        ratio, replacement = xpd(system, conversion, base)
        expanded = evaluate(system, replacement)
        powers.append((ratio * expanded.factor, exponent))
        pairs.extend((symbol, z * exponent) for symbol, z in expanded.root.items())
    return EvaluatedUnit(unit.factor * _power_product(powers, "rewritten factor"), ExponentMap(pairs))


# A compiled normal form: the factor's (numerator, denominator), its bits
# for the substitution bound (0 for a factor of one), the root's pairs.
_NormalForm = tuple[tuple[int, int], int, list[tuple[str, int]]]


def _expand(
    system: UnitSystem, table: Mapping[str, _NormalForm], refused: Mapping[str, str], unit: Unit
) -> tuple[int, int, list[tuple[str, int]]]:
    """Evaluate a unit and substitute the table's normal forms, in one walk.

    Returns the factor's numerator and denominator, unreduced, and the
    root's canonical pairs. Raises as `evaluate` then substitution would:
    `_check_unit`'s errors, `val`'s bound, the first refused root symbol,
    then the bound on the substituted powers, before any power is taken.
    """
    bases: dict[str, int] = {}
    values: dict[tuple[int, int], int] = {}
    for preunit, z in unit.items():
        if not isinstance(preunit, PreUnit) or type(preunit.prefix) is not ExponentMap:
            # Outside the Unit type: the reference says what it means, or raises.
            evaluated = evaluate(system, unit)
            values = {(evaluated.factor.numerator, evaluated.factor.denominator): 1}
            bases = dict(evaluated.root.items())
            break
        if preunit.base not in system.base_units:
            raise UnknownSymbolError(f"unknown base unit {preunit.base!r}")
        for symbol, e in preunit.prefix.items():
            value = system.base_prefixes.get(symbol)
            if value is None:
                raise UnknownSymbolError(f"unknown prefix {symbol!r}")
            key = (value.numerator, value.denominator)
            values[key] = values.get(key, 0) + e * z
        bases[preunit.base] = bases.get(preunit.base, 0) + z
    ratio_check_bits(
        sum(abs(e) * max(n.bit_length(), d.bit_length()) for (n, d), e in values.items()), "prefix value"
    )
    expanded: dict[str, int] = {}
    bits = 0
    for base, z in sorted(bases.items()):
        if z and base in refused:
            raise RatioError(refused[base])
        # Normal-form factors join the prefix values; a symbol without a form stands for itself.
        key, form_bits, pairs = table.get(base) or ((1, 1), 0, ((base, 1),))
        bits += abs(z) * form_bits
        values[key] = values.get(key, 0) + z
        for symbol, e in pairs:
            expanded[symbol] = expanded.get(symbol, 0) + e * z
    ratio_check_bits(bits, "rewritten factor")
    numerator = denominator = 1
    for (n, d), e in values.items():
        numerator *= n**e if e > 0 else d**-e
        denominator *= d**e if e > 0 else n**-e
    return numerator, denominator, sorted((symbol, e) for symbol, e in expanded.items() if e)


def _normal_forms(
    system: UnitSystem, conversion: DefiningConversion
) -> tuple[Mapping[str, _NormalForm], Mapping[str, str]]:
    """The fully expanded form of every ruled symbol, compiled once.

    For well-founded rules full expansion is a group homomorphism of the
    evaluated root, so each ruled symbol's normal form follows from its
    rule and the normal forms of its dependencies, visited in dependency
    post-order. Prefix values enter through the replacements, so the
    table is kept for one unit system, matched by identity. A normal
    form past MAX_RATIO_BITS is left out of the table; its symbol, and
    every symbol that depends on it, maps instead to the refusal that a
    conversion reaching it raises. Raises NotWellDefiningError on cyclic
    rules.
    """
    compiled = conversion._compiled
    if compiled is not None and compiled[0] is system:
        return compiled[1], compiled[2]
    direct = _direct_dependencies(conversion)
    cycle, order = _walk(direct)
    if cycle is not None:
        raise NotWellDefiningError(cycle)
    table: dict[str, _NormalForm] = {}
    refused: dict[str, str] = {}
    for base in order:
        reached = [refused[symbol] for symbol in direct[base] if symbol in refused]
        if reached:
            refused[base] = reached[0]
            continue
        ratio, replacement = xpd(system, conversion, base)
        try:
            numerator, denominator, pairs = _expand(system, table, refused, replacement)
        except RatioError:
            refused[base] = f"normal form of {base!r} is too large: over MAX_RATIO_BITS = {MAX_RATIO_BITS} bits"
            continue
        factor = ratio * Fraction(numerator, denominator)
        table[base] = ((factor.numerator, factor.denominator), 0 if factor == 1 else ratio_bits(factor), pairs)
    object.__setattr__(conversion, "_compiled", (system, table, refused))
    return table, refused


def rwr_star(system: UnitSystem, conversion: DefiningConversion, unit: Unit) -> EvaluatedUnit:
    """Fully expand a unit: evaluate, then rewrite to the fixed point.

    The fixed point is what `iteration_bound` parallel `rwr_eval` passes
    reach. That bound is worked out once per rule set and system, into a
    table of each ruled symbol's normal form, so a unit is expanded in
    one walk over its factors, building one Fraction and one map. Raises
    NotWellDefiningError on cyclic rules, before the unit is looked at,
    and RatioError naming the symbol when the unit reaches a ruled
    symbol whose normal form passes MAX_RATIO_BITS.
    """
    numerator, denominator, pairs = _expand(system, *_normal_forms(system, conversion), unit)
    return EvaluatedUnit(Fraction(numerator, denominator), ExponentMap._canonical(tuple(pairs)))


def convert(
    system: UnitSystem, conversion: DefiningConversion, source: Unit, target: Unit
) -> Optional[Fraction]:
    """Exact conversion factor from `source` to `target`, or None.

    Both units are fully expanded as by `rwr_star`; they are convertible
    exactly when the expanded roots coincide, and then source = factor *
    target with factor the quotient of the expanded scale factors. Each
    rule factor is raised to its unit exponent only after `val`'s bound,
    sum |exponent| * bits(factor), is checked against MAX_RATIO_BITS;
    past it RatioError is raised. Like `val`'s, the bound over-estimates,
    so a few units whose factors would cancel are refused too.
    """
    table, refused = _normal_forms(system, conversion)
    source_numerator, source_denominator, source_root = _expand(system, table, refused, source)
    target_numerator, target_denominator, target_root = _expand(system, table, refused, target)
    if source_root != target_root:
        return None
    return Fraction(source_numerator * target_denominator, source_denominator * target_numerator)


def coherent(system: UnitSystem, conversion: DefiningConversion, left: Unit, right: Unit) -> bool:
    """True when the two units convert with factor exactly one."""
    return convert(system, conversion, left, right) == 1


def check_triples(
    system: UnitSystem, triples: Iterable[ConvTriple]
) -> Optional[tuple[str, ConvTriple]]:
    """Scan triples for an immediate inconsistency.

    Returns None when nothing is wrong, otherwise a (kind, offending
    triple) pair: kind "dimension-mismatch" when a triple relates units
    of different dimensions, or "ratio-conflict" when two triples relate
    the same source and target at different ratios. Triples are scanned
    in canonical order so the report is deterministic.
    """
    seen: dict[tuple[Unit, Unit], Fraction] = {}
    for triple in sorted(triples):
        if dim(system, triple.source) != dim(system, triple.target):
            return ("dimension-mismatch", triple)
        key = (triple.source, triple.target)
        if key in seen and seen[key] != triple.ratio:
            return ("ratio-conflict", triple)
        seen.setdefault(key, triple.ratio)
    return None


_CLOSURE_BOUNDS = ("max_steps", "max_word", "max_triples")


class ClosureExploration(Immutable):
    """Bounded fragment of a triple set's closure.

    `witness` holds a triple relating the empty unit to itself at a ratio
    other than one, when one was found: such a triple makes every related
    pair of units convertible at contradictory factors. `bounds_hit`
    names each bound that cut closure members off, in the order
    ("max_steps", "max_word", "max_triples"): the rounds ran out before
    saturation, a candidate's words were too long, the population was
    full. `truncated` says whether any did; then the absence of a witness
    is not a proof of consistency.
    """

    __slots__ = ("triples", "witness", "bounds_hit")

    def __init__(
        self, triples: frozenset[ConvTriple], witness: Optional[ConvTriple], bounds_hit: tuple[str, ...]
    ):
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "bounds_hit", bounds_hit)

    @property
    def truncated(self) -> bool:
        return bool(self.bounds_hit)


def _word_size(triple: ConvTriple) -> int:
    return sum(abs(z) for _, z in triple.source.items()) + sum(
        abs(z) for _, z in triple.target.items()
    )


def _is_witness(triple: ConvTriple) -> bool:
    return not triple.source and not triple.target and triple.ratio != 1


def explore_closure(
    system: UnitSystem,
    triples: Iterable[ConvTriple],
    max_steps: int = 4,
    max_word: int = 12,
    *,
    seeds: Iterable[Unit] = (),
    max_triples: int = 4000,
) -> ClosureExploration:
    """Saturate a triple set under the closure rules, within bounds.

    The closure of a triple set is the conversion relation it generates:
    closed under componentwise products, inverses, and, for every unit in
    sight, the pair of triples that strip its prefixes at the cost of the
    prefix value. Saturation runs for up to `max_steps` rounds, discards
    candidates whose source and target words together exceed `max_word`
    letters, and stops growing past `max_triples` members; all admissions
    happen in canonical order, so results are reproducible even when a
    bound bites.

    `seeds` lists extra units whose prefix-stripping triples should be
    instantiated even when no input triple mentions them; pass the units
    of a conversion query to make the result usable for deciding it.
    """
    identity = ConvTriple(em_empty(), ONE, em_empty())
    working: set[ConvTriple] = set()
    hit: set[str] = set()

    def admit(candidate: ConvTriple, into: set[ConvTriple]) -> None:
        if candidate in working or candidate in into:
            return
        if _word_size(candidate) > max_word:
            hit.add("max_word")
            return
        if len(working) + len(into) >= max_triples:
            hit.add("max_triples")
            return
        into.add(candidate)

    initial: set[ConvTriple] = set()
    admit(identity, initial)
    for triple in sorted(triples):
        admit(triple, initial)
    working |= initial
    frontier = initial

    stripped: set[Unit] = set()

    def strip_triples(units: Iterable[Unit], into: set[ConvTriple]) -> None:
        for unit in sorted(units):
            if unit in stripped:
                continue
            stripped.add(unit)
            value = pval(system, unit)
            bare = strip(unit)
            admit(ConvTriple(unit, value, bare), into)
            admit(ConvTriple(bare, ratio_inv(value), unit), into)

    seed_units = set(seeds)

    saturated = False
    for _ in range(max_steps):
        fresh: set[ConvTriple] = set()
        mentioned = {t.source for t in working} | {t.target for t in working} | seed_units
        seed_units = set()
        strip_triples(mentioned, fresh)
        ordered_frontier = sorted(frontier)
        ordered_working = sorted(working)
        for triple in ordered_frontier:
            admit(_triple_inv(triple), fresh)
        for left in ordered_frontier:
            for right in ordered_working:
                admit(_triple_mul(left, right), fresh)
        # A functional conflict (same source and target, different ratio)
        # yields its ratio quotient on the empty unit: the product of one
        # triple with the other's inverse, a genuine closure member,
        # surfaced without waiting for the product rounds to reach it.
        by_pair: dict[tuple[Unit, Unit], Fraction] = {}
        for triple in ordered_working + sorted(fresh):
            key = (triple.source, triple.target)
            if key in by_pair and by_pair[key] != triple.ratio:
                admit(ConvTriple(em_empty(), triple.ratio / by_pair[key], em_empty()), fresh)
            by_pair.setdefault(key, triple.ratio)
        fresh -= working
        if not fresh:
            saturated = True
            break
        working |= fresh
        frontier = fresh
    if not saturated:
        hit.add("max_steps")

    candidates = [t for t in working if _is_witness(t)]
    witness: Optional[ConvTriple] = None
    if candidates:
        witness = min(
            candidates,
            key=lambda t: (max(t.ratio.numerator, t.ratio.denominator), t.ratio < 1),
        )
        folded: set[ConvTriple] = set()
        for triple in sorted(working):
            admit(_triple_mul(triple, witness), folded)
        working |= folded

    return ClosureExploration(
        triples=frozenset(working),
        witness=witness,
        bounds_hit=tuple(bound for bound in _CLOSURE_BOUNDS if bound in hit),
    )


def _combine(x: int, left: Mapping, y: int, right: Mapping) -> dict:
    """The integer combination x * left + y * right of two sparse vectors."""
    out = {key: x * value for key, value in left.items()}
    for key, value in right.items():
        total = out.get(key, 0) + y * value
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def _relation_basis(vectors: list[dict[str, int]]) -> list[dict[int, int]]:
    """A basis over Q of the integer relations among sparse integer vectors.

    Each relation maps vector indices to primitive integer coefficients
    whose combination of the vectors is zero. Fraction-free Gaussian
    elimination: every row carries the combination of vectors it equals
    and is divided by the content of both, so it stays small and
    integral. A row that reduces to zero yields its combination. That
    combination holds its own vector with a nonzero coefficient and
    otherwise only earlier ones, so the relations are independent, and
    there is one per vector that adds no rank.
    """
    pivots: dict[str, tuple[dict[str, int], dict[int, int]]] = {}
    basis: list[dict[int, int]] = []
    for index, vector in enumerate(vectors):
        row, combination = vector, {index: 1}
        while row:
            symbol = min(row)
            if symbol not in pivots:
                pivots[symbol] = (row, combination)
                break
            pivot_row, pivot_combination = pivots[symbol]
            a, b = row[symbol], pivot_row[symbol]
            row = _combine(b, row, -a, pivot_row)
            combination = _combine(b, combination, -a, pivot_combination)
            content = gcd(*row.values(), *combination.values())
            row = {key: value // content for key, value in row.items()}
            combination = {key: value // content for key, value in combination.items()}
        if not row:
            basis.append(combination)
    return basis


def _relation_witness(system: UnitSystem, conversion: DefiningConversion) -> Optional[ConvTriple]:
    """An inconsistency witness of a rule mapping, or None when there is none.

    Mapping a triple (s, r, t) to (r * f_t / f_s, root(s) - root(t)), with
    f the prefix value, is a group homomorphism that sends every
    prefix-stripping triple to the identity. The closure therefore holds
    a witness exactly when some integer relation c among the rules' root
    vectors v_i = e_base - root(replacement) has a ratio product
    prod r_i^c_i other than one, with r_i = ratio * f_replacement. The
    positive rationals are torsion-free, so testing a basis over Q of the
    relations decides it (H. Cohen, A Course in Computational Algebraic
    Number Theory, ch. 2). The first product other than one, taken above
    one, is the witness ratio. Each product's size is bounded from the
    coefficients before it is computed; past MAX_RATIO_BITS it raises
    RatioError. Nothing here uses dimensions, so it decides rule mappings
    that change dimension too.
    """
    ratios: list[Fraction] = []
    vectors: list[dict[str, int]] = []
    for base in sorted(conversion.rules):
        ratio, replacement = xpd(system, conversion, base)
        expanded = evaluate(system, replacement)
        ratios.append(ratio * expanded.factor)
        vector = {symbol: -z for symbol, z in expanded.root.items()}
        vector[base] = vector.get(base, 0) + 1
        vectors.append({symbol: z for symbol, z in vector.items() if z})
    for relation in _relation_basis(vectors):
        product = _power_product(
            [(ratios[i], c) for i, c in relation.items()], "ratio product of a rule cycle"
        )
        if product != 1:
            return ConvTriple(em_empty(), max(product, 1 / product), em_empty())
    return None


class ClassificationReport(Immutable):
    """Where a rule set sits in the hierarchy of conversion shapes.

    `consistency` is "guaranteed" or "witness_found"; it is decided
    exactly for every rule mapping, so never "unknown".
    """

    __slots__ = (
        "is_defining",
        "is_well_defining",
        "is_regular",
        "consistency",
        "witness",
        "cycle_witness",
        "iteration_bound",
    )

    def __init__(
        self,
        is_defining: bool,
        is_well_defining: bool,
        is_regular: bool,
        consistency: str,
        witness: Optional[ConvTriple] = None,
        cycle_witness: Optional[tuple[str, ...]] = None,
        iteration_bound: Optional[int] = None,
    ):
        object.__setattr__(self, "is_defining", is_defining)
        object.__setattr__(self, "is_well_defining", is_well_defining)
        object.__setattr__(self, "is_regular", is_regular)
        object.__setattr__(self, "consistency", consistency)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "cycle_witness", cycle_witness)
        object.__setattr__(self, "iteration_bound", iteration_bound)


def classify(
    system: UnitSystem,
    rules: Union[DefiningConversion, Mapping[str, tuple]],
    max_steps: int = 4,
    max_word: int = 12,
) -> ClassificationReport:
    """Classify a rule set: defining, well-defining, regular, consistent.

    Regular means no rules at all; defining, that no rule changes
    dimension; well-defining, defining with well-founded dependencies,
    which is when `iteration_bound` is given. Consistency is decided
    exactly for every rule mapping, never by a closure search:
    well-founded rules are "guaranteed"; cyclic ones, with one cycle
    named in `cycle_witness`, are decided by the integer relations among
    their evaluated rules, giving "witness_found" with a witness relating
    the empty unit to itself at a ratio above one, or "guaranteed".
    `max_steps` and `max_word` are unused, kept only for callers that
    still pass them. Rule sets too broken to interpret at all (unknown
    symbols, malformed ratios or replacements) raise instead, and so
    does a cycle whose ratio product would need more than MAX_RATIO_BITS
    bits (RatioError).
    """
    del max_steps, max_word
    mapping = rules.rules if isinstance(rules, DefiningConversion) else dict(rules)
    checked_rules, changes_dimension = _structural_rules(system, mapping)
    checked = DefiningConversion(checked_rules)
    is_defining = not changes_dimension
    report = analyze(system, checked)
    witness = None if report.well_founded else _relation_witness(system, checked)
    return ClassificationReport(
        is_defining=is_defining,
        is_well_defining=is_defining and report.well_founded,
        is_regular=not checked.rules,
        consistency="guaranteed" if witness is None else "witness_found",
        witness=witness,
        cycle_witness=report.cycle_witness,
        iteration_bound=report.iteration_bound if is_defining else None,
    )
