"""Conversion rules, dependency analysis, rewriting, and convertibility.

A conversion triple asserts that one unit equals a ratio times another
unit. A defining conversion is the special shape unit registries use: at
most one rule per base-unit symbol, rewriting that symbol into a ratio
times a replacement unit of the same dimension. This module analyzes the
dependency order of such rule sets, rewrites units to their fully
expanded evaluated form, decides convertibility with the exact factor,
decides the consistency of cyclic rule sets by integer linear algebra,
and explores the closure of arbitrary triple sets to hunt for
inconsistency witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union

from .abelian import ExponentMap, em_delta, em_empty, em_inv, em_mul
from .model import (
    EvaluatedUnit,
    PreUnit,
    Unit,
    UnitSystem,
    UnknownSymbolError,
    dim,
    dim_root,
    evaluate,
    pval,
    root,
    strip,
)
from .numeric import ONE, ratio_bits, ratio_check_bits, ratio_inv

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


@dataclass(frozen=True)
class ConvTriple:
    """One conversion assertion: `source` equals `ratio` times `target`."""

    source: Unit
    ratio: Fraction
    target: Unit


def _triple_key(triple: ConvTriple) -> tuple:
    return (triple.source, triple.ratio, triple.target)


def _triple_mul(a: ConvTriple, b: ConvTriple) -> ConvTriple:
    return ConvTriple(em_mul(a.source, b.source), a.ratio * b.ratio, em_mul(a.target, b.target))


def _triple_inv(a: ConvTriple) -> ConvTriple:
    return ConvTriple(em_inv(a.source), ratio_inv(a.ratio), em_inv(a.target))


Rules = Mapping[str, tuple[Fraction, Unit]]


@dataclass(frozen=True)
class DefiningConversion:
    """Validated rule set: base-unit symbol -> (ratio, replacement unit).

    Build these through `defining_conversion`, which checks the shape;
    the constructor itself only freezes the mapping. The normal-form
    table that `rwr_star` and `convert` use is compiled on first use and
    kept here, together with the unit system it was compiled against.
    """

    rules: Rules
    _compiled: Optional[tuple[UnitSystem, Mapping[str, EvaluatedUnit]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", MappingProxyType(dict(self.rules)))

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


def _structural_rules(system: UnitSystem, rules: Mapping[str, tuple]) -> dict[str, tuple[Fraction, Unit]]:
    """Check everything about a rule mapping except dimension preservation."""
    checked: dict[str, tuple[Fraction, Unit]] = {}
    for base in sorted(rules):
        ratio, replacement = rules[base]
        if base not in system.base_units:
            raise UnknownSymbolError(f"rule rewrites unknown base unit {base!r}")
        ratio = _as_ratio(ratio)
        if not isinstance(replacement, ExponentMap):
            raise RuleError(f"rule for {base!r} needs a unit replacement, got {replacement!r}")
        dim(system, replacement)  # validates the replacement's symbols
        checked[base] = (ratio, replacement)
    return checked


def defining_conversion(system: UnitSystem, rules: Mapping[str, tuple]) -> DefiningConversion:
    """Validate a rule mapping and freeze it as a DefiningConversion.

    Each key must be a registered base-unit symbol, each value a pair of a
    positive ratio (int accepted) and a replacement unit over the system
    with the same dimension as the base unit being rewritten.
    """
    checked = _structural_rules(system, rules)
    for base, (_, replacement) in checked.items():
        if dim(system, replacement) != dim_root(system, em_delta(base)):
            raise RuleError(f"rule for {base!r} changes dimension")
    return DefiningConversion(checked)


@dataclass(frozen=True)
class DependencyReport:
    """Dependency structure of a defining conversion.

    `edges` maps each rewritten base unit to every base unit it
    transitively depends on; the direct dependencies of a rule are the
    symbols in the support of its replacement's root, after any
    cancellation inside the replacement. When the relation is
    well-founded, `depth` gives each registered base unit's expansion
    depth (zero for symbols without a rule) and `iteration_bound` the
    number of parallel rewriting passes after which every unit is fully
    expanded; otherwise both are None and `cycle_witness` lists one cycle
    in visiting order.
    """

    edges: Mapping[str, frozenset[str]]
    well_founded: bool
    cycle_witness: Optional[tuple[str, ...]]
    depth: Optional[Mapping[str, int]]
    iteration_bound: Optional[int]


def _find_cycle(direct: Mapping[str, tuple[str, ...]]) -> Optional[tuple[str, ...]]:
    """First dependency cycle in deterministic visiting order, if any."""
    UNSEEN, ACTIVE, DONE = 0, 1, 2
    state = {base: UNSEEN for base in direct}
    for start in sorted(direct):
        if state[start] != UNSEEN:
            continue
        path = [start]
        iterators = [iter(direct[start])]
        state[start] = ACTIVE
        while iterators:
            descended = False
            for successor in iterators[-1]:
                if successor not in direct:
                    continue
                if state[successor] == ACTIVE:
                    return tuple(path[path.index(successor):])
                if state[successor] == UNSEEN:
                    state[successor] = ACTIVE
                    path.append(successor)
                    iterators.append(iter(direct[successor]))
                    descended = True
                    break
            if not descended:
                state[path.pop()] = DONE
                iterators.pop()
    return None


def analyze(system: UnitSystem, conversion: DefiningConversion) -> DependencyReport:
    direct = {
        base: tuple(sorted(root(replacement).support()))
        for base, (_, replacement) in conversion.rules.items()
    }
    cycle = _find_cycle(direct)

    # Transitive reachability along direct edges; plain graph reachability,
    # well defined whether or not there is a cycle.
    edges: dict[str, frozenset[str]] = {}
    for base in direct:
        seen: set[str] = set()
        stack = list(direct[base])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(direct.get(node, ()))
        edges[base] = frozenset(seen)

    if cycle is not None:
        return DependencyReport(
            edges=MappingProxyType(edges),
            well_founded=False,
            cycle_witness=cycle,
            depth=None,
            iteration_bound=None,
        )

    depth: dict[str, int] = {}

    def depth_of(symbol: str) -> int:
        if symbol in depth:
            return depth[symbol]
        if symbol not in direct:
            value = 0
        else:
            value = 1 + max((depth_of(s) for s in direct[symbol]), default=0)
        depth[symbol] = value
        return value

    for symbol in system.base_units:
        depth_of(symbol)
    return DependencyReport(
        edges=MappingProxyType(edges),
        well_founded=True,
        cycle_witness=None,
        depth=MappingProxyType(depth),
        iteration_bound=max(depth.values(), default=0),
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


def _expand_base(system: UnitSystem, conversion: DefiningConversion, base: str) -> EvaluatedUnit:
    ratio, replacement = xpd(system, conversion, base)
    expanded = evaluate(system, replacement)
    return EvaluatedUnit(ratio * expanded.factor, expanded.root)


def rwr_eval(system: UnitSystem, conversion: DefiningConversion, unit: EvaluatedUnit) -> EvaluatedUnit:
    """Rewrite every base unit in an evaluated unit's root once, in parallel."""
    factor = unit.factor
    pairs: list[tuple[str, int]] = []
    for base, exponent in unit.root.items():
        expanded = _expand_base(system, conversion, base)
        factor *= expanded.factor ** exponent
        pairs.extend((symbol, z * exponent) for symbol, z in expanded.root.items())
    return EvaluatedUnit(factor, ExponentMap(pairs))


def _substitute(normal_forms: Mapping[str, EvaluatedUnit], unit: EvaluatedUnit) -> EvaluatedUnit:
    """Replace each root symbol that has a normal form by that form."""
    factor = unit.factor
    pairs: list[tuple[str, int]] = []
    for base, exponent in unit.root.items():
        expanded = normal_forms.get(base)
        if expanded is None:
            pairs.append((base, exponent))
        else:
            factor *= expanded.factor ** exponent
            pairs.extend((symbol, z * exponent) for symbol, z in expanded.root.items())
    return EvaluatedUnit(factor, ExponentMap(pairs))


def _normal_forms(system: UnitSystem, conversion: DefiningConversion) -> Mapping[str, EvaluatedUnit]:
    """The fully expanded form of every ruled symbol, compiled once.

    For well-founded rules full expansion is a group homomorphism of the
    evaluated root, so each ruled symbol's normal form follows from its
    rule and the normal forms of its dependencies, visited in depth
    order. Prefix values enter through the replacements, so the table is
    kept for one unit system, matched by identity. Raises
    NotWellDefiningError on cyclic rules.
    """
    compiled = conversion._compiled
    if compiled is not None and compiled[0] is system:
        return compiled[1]
    report = analyze(system, conversion)
    if not report.well_founded:
        raise NotWellDefiningError(report.cycle_witness)
    table: dict[str, EvaluatedUnit] = {}
    for base in sorted(conversion.rules, key=report.depth.__getitem__):
        ratio, replacement = conversion.rules[base]
        expanded = _substitute(table, evaluate(system, replacement))
        table[base] = EvaluatedUnit(ratio * expanded.factor, expanded.root)
    object.__setattr__(conversion, "_compiled", (system, table))
    return table


def rwr_star(system: UnitSystem, conversion: DefiningConversion, unit: Unit) -> EvaluatedUnit:
    """Fully expand a unit: evaluate, then rewrite to the fixed point.

    The fixed point is what `iteration_bound` parallel `rwr_eval` passes
    reach. That bound is worked out once per rule set and system, into a
    table of each ruled symbol's normal form, so a unit is expanded by
    one evaluation and one substitution pass over its root. Raises
    NotWellDefiningError on cyclic rules, before the unit is looked at.
    """
    return _substitute(_normal_forms(system, conversion), evaluate(system, unit))


def convert(
    system: UnitSystem, conversion: DefiningConversion, source: Unit, target: Unit
) -> Optional[Fraction]:
    """Exact conversion factor from `source` to `target`, or None.

    Both units are fully expanded by `rwr_star`; they are convertible
    exactly when the expanded roots coincide, and then source = factor *
    target with factor the quotient of the expanded scale factors.
    """
    expanded_source = rwr_star(system, conversion, source)
    expanded_target = rwr_star(system, conversion, target)
    if expanded_source.root != expanded_target.root:
        return None
    return expanded_source.factor / expanded_target.factor


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
    for triple in sorted(triples, key=_triple_key):
        if dim(system, triple.source) != dim(system, triple.target):
            return ("dimension-mismatch", triple)
        key = (triple.source, triple.target)
        if key in seen and seen[key] != triple.ratio:
            return ("ratio-conflict", triple)
        seen.setdefault(key, triple.ratio)
    return None


_CLOSURE_BOUNDS = ("max_steps", "max_word", "max_triples")


@dataclass(frozen=True)
class ClosureExploration:
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

    triples: frozenset[ConvTriple]
    witness: Optional[ConvTriple]
    bounds_hit: tuple[str, ...]

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
    for triple in sorted(triples, key=_triple_key):
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
        ordered_frontier = sorted(frontier, key=_triple_key)
        ordered_working = sorted(working, key=_triple_key)
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
        for triple in ordered_working + sorted(fresh, key=_triple_key):
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
        for triple in sorted(working, key=_triple_key):
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
    """An inconsistency witness of a defining rule set, or None when there is none.

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
    RatioError.
    """
    ratios: list[Fraction] = []
    vectors: list[dict[str, int]] = []
    for base, (ratio, replacement) in sorted(conversion.rules.items()):
        expanded = evaluate(system, replacement)
        ratios.append(ratio * expanded.factor)
        vector = {symbol: -z for symbol, z in expanded.root.items()}
        vector[base] = vector.get(base, 0) + 1
        vectors.append({symbol: z for symbol, z in vector.items() if z})
    for relation in _relation_basis(vectors):
        ratio_check_bits(
            sum(abs(c) * ratio_bits(ratios[i]) for i, c in relation.items() if ratios[i] != 1),
            "ratio product of a rule cycle",
        )
        product = ONE
        for i, c in relation.items():
            product *= ratios[i] ** c
        if product != 1:
            return ConvTriple(em_empty(), max(product, 1 / product), em_empty())
    return None


@dataclass(frozen=True)
class ClassificationReport:
    """Where a rule set sits in the hierarchy of conversion shapes."""

    is_defining: bool
    is_well_defining: bool
    is_regular: bool
    # "guaranteed" | "witness_found" | "unknown"; only a mapping that is
    # not defining, whose consistency comes from a bounded closure
    # exploration, can be "unknown".
    consistency: str
    witness: Optional[ConvTriple] = None
    cycle_witness: Optional[tuple[str, ...]] = None
    iteration_bound: Optional[int] = None


def classify(
    system: UnitSystem,
    rules: Union[DefiningConversion, Mapping[str, tuple]],
    max_steps: int = 4,
    max_word: int = 12,
) -> ClassificationReport:
    """Classify a rule set: defining, well-defining, regular, consistent.

    Regular means no rules at all. Well-defining (defining with
    well-founded dependencies) guarantees consistency. A defining rule
    set with cyclic dependencies is decided exactly, by the integer
    relations among its evaluated rules: "witness_found" with a witness
    relating the empty unit to itself at a ratio above one, or
    "guaranteed". Only a mapping that is not defining (a rule changes
    dimension) is left to a closure exploration bounded by `max_steps`
    and `max_word`, so only it can come back "unknown": the exploration
    was truncated without finding a witness. Rule sets too broken to
    interpret at all (unknown symbols, malformed ratios or replacements)
    raise instead, and so does a cycle whose ratio product would need
    more than MAX_RATIO_BITS bits (RatioError).
    """
    if isinstance(rules, DefiningConversion):
        mapping: Mapping[str, tuple] = rules.rules
    else:
        mapping = dict(rules)
    checked = DefiningConversion(_structural_rules(system, mapping))
    is_regular = not checked.rules
    is_defining = all(
        dim(system, replacement) == dim_root(system, em_delta(base))
        for base, (_, replacement) in checked.rules.items()
    )
    if is_defining:
        report = analyze(system, checked)
        if report.well_founded:
            return ClassificationReport(
                is_defining=True,
                is_well_defining=True,
                is_regular=is_regular,
                consistency="guaranteed",
                iteration_bound=report.iteration_bound,
            )
        witness = _relation_witness(system, checked)
        return ClassificationReport(
            is_defining=True,
            is_well_defining=False,
            is_regular=is_regular,
            consistency="guaranteed" if witness is None else "witness_found",
            witness=witness,
            cycle_witness=report.cycle_witness,
        )
    exploration = explore_closure(system, checked.triples(), max_steps, max_word)
    if exploration.witness is not None:
        consistency = "witness_found"
    elif exploration.truncated:
        consistency = "unknown"
    else:
        consistency = "guaranteed"
    return ClassificationReport(
        is_defining=False,
        is_well_defining=False,
        is_regular=is_regular,
        consistency=consistency,
        witness=exploration.witness,
    )
