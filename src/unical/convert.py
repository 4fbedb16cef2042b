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
from math import gcd
from types import MappingProxyType
from functools import total_ordering
from typing import Iterable, Mapping, Optional, Sequence, Union

from .abelian import ExponentMap, Immutable, em_delta, em_empty, em_inv, em_mul
from .model import (
    MAX_MEMO_IDENTIFIERS,
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
from .numeric import MAX_RATIO_BITS, ONE, RatioError, _ratio_product, ratio_inv

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
    """A rule set does not have the defining-conversion shape, or is past MAX_RELATION_WORK to classify."""


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
    the constructor itself only freezes the mapping. `_compiled` keeps
    what the rules compile to against one unit system, matched by
    identity. Made as the rules are checked: each rule's form, and the
    ruled symbols' dependency order or one cycle among them, from one
    walk over the forms. Built from those on first conversion: the normal
    forms, the refused symbols and a memo of expanded factors (at most
    MAX_MEMO_IDENTIFIERS entries), each entry the expansion walk's own
    result for its factor alone. Equality, hashing and the repr leave it
    out.
    """

    __slots__ = ("rules", "_compiled")
    _fields = ("rules",)

    _compiled: Optional[_Compiled]

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


# A rule's form: its factor r = ratio * val(pref(replacement)), or the
# error evaluating the replacement raised; root(replacement)'s pairs; and
# whether the replacement has the base unit's dimension.
_RuleForm = tuple[object, tuple[tuple[str, int], ...], bool]


class _Compiled:
    __slots__ = ("system", "forms", "cycle", "order", "table", "refused", "memo")

    def __init__(self, system: UnitSystem, forms: dict[str, _RuleForm]):
        self.system, self.forms = system, forms
        self.cycle, self.order = _walk(forms)
        self.table = self.refused = self.memo = None


def _check_rule(system: UnitSystem, base: str, rule: tuple) -> tuple[tuple[Fraction, Unit], _RuleForm]:
    """Check the shape of one rule and compile its form, reading the replacement in `_read_unit`'s one loop.

    Raises for an unknown base unit, a ratio that is not positive, a
    replacement that is not a unit or that has a generator which is not a
    PreUnit (as `evaluate` raises), and a replacement over an unknown base
    unit. Any other error evaluating the replacement, such as an unknown
    prefix or a prefix value past MAX_RATIO_BITS, is kept in the form, for
    the callers that need it. Without prefix powers the factor is the
    ratio itself; with them it is bounded as a "rewritten factor".
    """
    ratio, replacement = rule
    units = system.base_units
    if base not in units:
        raise UnknownSymbolError(f"rule rewrites unknown base unit {base!r}")
    if isinstance(ratio, int) and not isinstance(ratio, bool):
        ratio = Fraction(ratio)
    if not isinstance(ratio, Fraction) or ratio.numerator <= 0:
        raise RuleError(f"not a positive rational ratio: {ratio!r}")
    if not isinstance(replacement, ExponentMap):
        raise RuleError(f"rule for {base!r} needs a unit replacement, got {replacement!r}")
    factor: object = ratio
    try:
        powers, bases = _read_unit(system, replacement)
        if powers:
            numerator, denominator, _ = _ratio_product(powers, "rewritten factor")
            factor = Fraction(ratio.numerator * numerator, ratio.denominator * denominator)
    except (RatioError, UnknownSymbolError, TypeError) as error:  # what `evaluate` raises
        if not all(isinstance(preunit, PreUnit) for preunit in replacement):
            raise  # without PreUnit generators the replacement has no root to check
        factor, bases = error, dict(root(replacement).items())
    if 0 in bases.values():  # a base whose exponents cancel, as in km/m
        bases = {symbol: z for symbol, z in bases.items() if z}
    pairs = tuple(sorted(bases.items()))
    dimension: dict[str, int] = {}
    for symbol, z in (*pairs, (base, -1)):  # the replacement's dimension less the base unit's
        if symbol not in units:
            raise UnknownSymbolError(f"unknown base unit {symbol!r}")
        for letter, e in units[symbol].items():
            dimension[letter] = dimension.get(letter, 0) + e * z
    return (ratio, replacement), (factor, pairs, not any(dimension.values()))


def _require_defining(base: str, form: _RuleForm) -> None:
    if not form[2]:
        raise RuleError(f"rule for {base!r} changes dimension")


def _freeze(system: UnitSystem, checked: Mapping[str, tuple[tuple[Fraction, Unit], _RuleForm]]) -> DefiningConversion:
    """The checked rules, in symbol order, with their forms compiled against `system`."""
    ordered = sorted(checked.items())
    conversion = DefiningConversion({base: rule for base, (rule, _) in ordered})
    object.__setattr__(conversion, "_compiled", _Compiled(system, {base: form for base, (_, form) in ordered}))
    return conversion


def _compile(system: UnitSystem, conversion: DefiningConversion) -> _Compiled:
    """The rules compiled against `system`, made on first use; rules are checked, but may change dimension."""
    compiled, rules = conversion._compiled, conversion.rules
    if compiled is None or compiled.system is not system:
        compiled = _Compiled(system, {base: _check_rule(system, base, rules[base])[1] for base in sorted(rules)})
        object.__setattr__(conversion, "_compiled", compiled)
    return compiled


def defining_conversion(system: UnitSystem, rules: Mapping[str, tuple]) -> DefiningConversion:
    """Validate a rule mapping and freeze it as a DefiningConversion.

    Each key must be a registered base-unit symbol, each value a pair of a
    positive ratio (int accepted) and a replacement unit over the system
    with the same dimension as the base unit being rewritten. A value too
    large to compute is refused only where it is needed.
    """
    checked = {base: _check_rule(system, base, rules[base]) for base in sorted(rules)}
    for base, (_, form) in checked.items():
        _require_defining(base, form)
    return _freeze(system, checked)


class DependencyReport(Immutable):
    """Dependency structure of a defining conversion.

    A rule depends directly on the symbols in the support of its
    replacement's root, after any cancellation inside the replacement;
    the rules walk those edges once, when compiled. When the relation is
    well-founded, `depth` gives each registered base unit's expansion
    depth (zero for symbols without a rule) and `iteration_bound` the
    number of parallel rewriting passes after which every unit is fully
    expanded; otherwise both are None and `cycle_witness` lists one cycle
    in visiting order. The CLI's `depth` command lists direct dependencies.
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


def _walk(forms: Mapping[str, _RuleForm]) -> tuple[Optional[tuple[str, ...]], list[str]]:
    """Order the ruled symbols in one depth-first walk, or name a cycle among them.

    The walk starts from each ruled symbol in symbol order and follows a
    rule to the ruled symbols its replacement uses, in the order of its
    pairs, skipping symbols already finished. A symbol met again on the
    current path closes a cycle: the path from that symbol is returned as
    the witness, with no order. Otherwise the finish order is returned:
    the dependency post-order, each symbol after every ruled symbol its
    rule uses.
    """
    finished: dict[str, None] = {}  # in finish order
    for start in forms:  # in symbol order, as are each form's pairs
        if start in finished:
            continue
        on_path, pending = {start: 0}, [iter(forms[start][1])]  # each symbol on the path, by its place
        while pending:
            for symbol, _ in pending[-1]:
                if symbol in on_path:
                    return tuple(on_path)[on_path[symbol]:], []
                if symbol in forms and symbol not in finished:
                    on_path[symbol] = len(on_path)
                    pending.append(iter(forms[symbol][1]))
                    break
            else:
                pending.pop()
                done, _ = on_path.popitem()  # the path's last symbol
                finished[done] = None
    return None, list(finished)


def analyze(system: UnitSystem, conversion: DefiningConversion) -> DependencyReport:
    """The dependency structure of the rules, read from their compiled forms and order."""
    compiled = _compile(system, conversion)
    cycle = compiled.cycle
    depth: Optional[dict[str, int]] = None
    if cycle is None:
        depth = dict.fromkeys(system.base_units, 0)
        for symbol in compiled.order:
            depth[symbol] = 1 + max((depth.get(s, 0) for s, _ in compiled.forms[symbol][1]), default=0)
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


def rwr_eval(system: UnitSystem, conversion: DefiningConversion, unit: EvaluatedUnit) -> EvaluatedUnit:
    """Rewrite every base unit in an evaluated unit's root once, in parallel.

    Rule factors are raised to the unit's exponents under the one size
    rule, `numeric._ratio_product`, as in `convert`.
    """
    powers: list[tuple[tuple[int, int], int]] = []
    pairs: list[tuple[str, int]] = []
    for base, exponent in unit.root.items():
        ratio, replacement = xpd(system, conversion, base)
        expanded = evaluate(system, replacement)
        powers.append(((ratio * expanded.factor).as_integer_ratio(), exponent))
        pairs.extend((symbol, z * exponent) for symbol, z in expanded.root.items())
    numerator, denominator, _ = _ratio_product(powers, "rewritten factor")
    return EvaluatedUnit(unit.factor * Fraction(numerator, denominator), ExponentMap(pairs))


# An expanded factor: numerator, denominator, the bits `_ratio_product`
# checked for it, and root pairs. `_substitute` returns one unreduced; normal-form
# table and memo entries are in lowest terms, with the bits of their own walk.
_Factor = tuple[int, int, int, Sequence[tuple[str, int]]]


def _memo_product(
    memo: Mapping[PreUnit, _Factor], sides: Sequence[tuple[Unit, int]]
) -> Optional[tuple[int, int, dict[str, int]]]:
    """Multiply out the memo's entries for units, each raised to its sign, in one loop.

    Each unit's sum of |exponent| * bits over its factors is bounded by
    MAX_RATIO_BITS on its own, checked before each power. That sum bounds
    the check the walk over the unit makes: each integer's exponent on
    either side of the walk is at most the sum of |exponent| times its
    exponent on the matching side of each factor's own walk. Returns the
    numerator and denominator, unreduced, and the summed root exponents;
    None when a factor is not in the memo or a unit passes the bound.
    """
    numerator = denominator = 1
    expanded: dict[str, int] = {}
    for unit, sign in sides:
        bits = 0
        for preunit, z in unit.items():
            factor = memo.get(preunit)
            if factor is None:
                return None
            n, d, factor_bits, pairs = factor
            bits += abs(z) * factor_bits
            if bits > MAX_RATIO_BITS:
                return None
            z *= sign
            if z > 0:
                numerator, denominator = numerator * n**z, denominator * d**z
            else:
                numerator, denominator = numerator * d**-z, denominator * n**-z
            for symbol, e in pairs:
                expanded[symbol] = expanded.get(symbol, 0) + e * z
    return numerator, denominator, expanded


def _expanded(
    system: UnitSystem, conversion: DefiningConversion, sides: Sequence[tuple[Unit, int]]
) -> tuple[int, int, dict[str, int]]:
    """Fully expand units, each raised to its sign, 1 or -1: the numerator, denominator and root exponents, unreduced.

    Full expansion is a homomorphism, so each factor can be expanded on
    its own. When `_memo_product` can multiply out the memo's entries, it
    does. Otherwise each unit is walked in turn under its own bound,
    which decides every refusal: `_read_unit`'s errors, then
    `_substitute`'s. Once a unit is read, each of its factors is memoised
    unless it is there already, is outside the Unit type, has a refused
    base or is refused alone: the walk's own result for that factor alone,
    in lowest terms, with its base's normal-form pairs, shared with the table.
    """
    table, refused, memo = _normal_forms(system, conversion)
    product = _memo_product(memo, sides)
    if product is not None:
        return product
    numerator = denominator = 1
    expanded: dict[str, int] = {}
    for unit, sign in sides:
        read = _read_unit(system, unit)
        for preunit in unit:
            outside = not isinstance(preunit, PreUnit) or type(preunit.prefix) is not ExponentMap
            if outside or preunit.base in refused or preunit in memo:
                continue
            try:
                n, d, bits, _ = _substitute(table, refused, *_read_unit(system, em_delta(preunit)))
            except RatioError:
                continue
            common = gcd(n, d)
            if len(memo) >= MAX_MEMO_IDENTIFIERS:
                memo.clear()
            entry = table.get(preunit.base)  # a symbol without one stands for itself
            memo[preunit] = (n // common, d // common, bits, ((preunit.base, 1),) if entry is None else entry[3])
        n, d, _, pairs = _substitute(table, refused, *read)
        numerator, denominator = (numerator * n, denominator * d) if sign > 0 else (numerator * d, denominator * n)
        for symbol, e in pairs:
            expanded[symbol] = expanded.get(symbol, 0) + e * sign
    return numerator, denominator, expanded


def _read_unit(system: UnitSystem, unit: Unit) -> tuple[list[tuple[tuple[int, int], int]], dict[str, int]]:
    """A unit's prefix powers ((numerator, denominator), exponent) and its root's base exponents, in one loop.

    Raises UnknownSymbolError for an unknown base unit or prefix, and for
    a unit outside the Unit type whatever `evaluate` raises.
    """
    bases: dict[str, int] = {}
    powers: list[tuple[tuple[int, int], int]] = []
    for preunit, z in unit.items():
        if not isinstance(preunit, PreUnit) or type(preunit.prefix) is not ExponentMap:
            # Outside the Unit type: the reference says what it means, or raises.
            evaluated = evaluate(system, unit)
            return [(evaluated.factor.as_integer_ratio(), 1)], dict(evaluated.root.items())
        if preunit.base not in system.base_units:
            raise UnknownSymbolError(f"unknown base unit {preunit.base!r}")
        for symbol, e in preunit.prefix.items():
            value = system.base_prefixes.get(symbol)
            if value is None:
                raise UnknownSymbolError(f"unknown prefix {symbol!r}")
            powers.append(((value.numerator, value.denominator), e * z))
        bases[preunit.base] = bases.get(preunit.base, 0) + z
    return powers, bases


def _substitute(
    table: Mapping[str, _Factor],
    refused: Mapping[str, str],
    powers: list[tuple[tuple[int, int], int]],
    bases: dict[str, int],
) -> _Factor:
    """Multiply out ratio powers ((numerator, denominator), exponent), substituting normal forms.

    Raises RatioError for the first refused symbol, in root order, that
    the unit reaches. The prefix values and the substituted normal forms
    are then multiplied out together by `numeric._ratio_product`, which
    refuses a "rewritten factor" past MAX_RATIO_BITS before any power is
    taken. A symbol without a table entry stands for itself. Returns
    the numerator, denominator and bits, and the root's pairs.
    """
    expanded: dict[str, int] = {}
    for base, z in sorted(bases.items()):
        if z and base in refused:
            raise RatioError(refused[base])
        entry = table.get(base)
        if entry is None:
            expanded[base] = expanded.get(base, 0) + z
            continue
        n, d, _, pairs = entry
        powers.append(((n, d), z))
        for symbol, e in pairs:
            expanded[symbol] = expanded.get(symbol, 0) + e * z
    numerator, denominator, bits = _ratio_product(powers, "rewritten factor")
    return numerator, denominator, bits, sorted((symbol, e) for symbol, e in expanded.items() if e)


def _normal_forms(
    system: UnitSystem, conversion: DefiningConversion
) -> tuple[Mapping[str, _Factor], Mapping[str, str], dict[PreUnit, _Factor]]:
    """The fully expanded form of every ruled symbol, compiled once.

    For well-founded rules full expansion is a group homomorphism of the
    evaluated root, so each ruled symbol's normal form is its rule's
    form with its dependencies' normal forms substituted, visited in the
    dependency post-order the compiled rules keep, under the one size
    rule `_substitute` checks. A normal form past it, or whose rule
    factor is, is left out of the table; its symbol, and every symbol that
    depends on it, maps instead to the refusal that a conversion reaching
    it raises.
    Raises any other error a rule's evaluation raised, and
    NotWellDefiningError on cyclic rules. Returns the table, the refused
    symbols and the factor memo, empty until `_expanded` fills it.
    """
    compiled = _compile(system, conversion)
    if compiled.table is not None:
        return compiled.table, compiled.refused, compiled.memo
    if compiled.cycle is not None:
        raise NotWellDefiningError(compiled.cycle)
    table: dict[str, _Factor] = {}
    refused: dict[str, str] = {}
    for base in compiled.order:
        factor, pairs, _ = compiled.forms[base]
        reached = [refused[symbol] for symbol, _ in pairs if symbol in refused]
        if reached:
            refused[base] = reached[0]
            continue
        try:
            if isinstance(factor, Exception):
                raise factor.with_traceback(None)
            numerator, denominator, bits, expanded = _substitute(
                table, refused, [(factor.as_integer_ratio(), 1)], dict(pairs)
            )
        except RatioError:
            refused[base] = f"normal form of {base!r} is too large: over MAX_RATIO_BITS = {MAX_RATIO_BITS} bits"
            continue
        common = gcd(numerator, denominator)
        table[base] = (numerator // common, denominator // common, bits, expanded)
    compiled.table, compiled.refused, compiled.memo = table, refused, {}
    return table, refused, compiled.memo


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
    numerator, denominator, expanded = _expanded(system, conversion, ((unit, 1),))
    pairs = tuple(sorted([(symbol, e) for symbol, e in expanded.items() if e]))
    return EvaluatedUnit(Fraction(numerator, denominator), ExponentMap._canonical(pairs))


def convert(
    system: UnitSystem, conversion: DefiningConversion, source: Unit, target: Unit
) -> Optional[Fraction]:
    """Exact conversion factor from `source` to `target`, or None.

    Both units are fully expanded as by `rwr_star`; they are convertible
    exactly when the expanded roots coincide, and then source = factor *
    target with factor the quotient of the expanded scale factors. Before
    any power is taken, each unit's prefix values and substituted normal
    forms are bounded together by the size rule `val` uses; past
    MAX_RATIO_BITS RatioError is raised. Equal integers cancel first, but
    distinct ones that share a prime do not, so a few units whose exact
    factors fit are refused too. Each unit is bounded on its own, so the
    quotient can pass the limit: `Ym^175` to `ym^175` is 10^8400, whose
    numerator has 27 905 bits.

    Full expansion is a homomorphism, so the factor is the expansion of
    source * target^-1, which `_expanded` multiplies out: from a memo of
    the factors met before, such as `km`, each expanded alone by the same
    walk, when every factor of both units is there and each unit is within
    its bound; otherwise by walking each unit in turn, as `rwr_star` does.
    The answers and the refusals are the same either way.
    """
    numerator, denominator, roots = _expanded(system, conversion, ((source, 1), (target, -1)))
    return None if any(roots.values()) else Fraction(numerator, denominator)


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


def _subtract(vector: dict, multiple: int, pivot: Mapping) -> None:
    """Subtract multiple * pivot from a sparse vector in place."""
    for key, value in pivot.items():
        total = vector.get(key, 0) - multiple * value
        if total:
            vector[key] = total
        else:
            del vector[key]


# Most entries that `_relation_basis` may scan or update, in all: each
# step counts the row it scans for its pivot symbol and a unit pivot's
# row and combination, or for any other pivot both rows and combinations.
# A ring of 20 000 rules needs 100 000; a dense cycle of 800 rules is
# refused in about 0.3 s on a 2-core host.
MAX_RELATION_WORK = 500_000


def _relation_basis(vectors: list[dict[str, int]]) -> list[dict[int, int]]:
    """A basis over Q of the integer relations among sparse integer vectors.

    Each relation maps vector indices to primitive integer coefficients
    whose combination of the vectors is zero. Fraction-free Gaussian
    elimination (E. H. Bareiss, Math. Comp. 22, 1968): every row carries
    the combination of vectors it equals. A pivot whose coefficient is 1
    or -1 needs no multiplier, so its row and combination, times the
    row's coefficient, are subtracted in place, and the step counts the
    row, which it scans for the pivot symbol, and the pivot's entries.
    Any other pivot scales the row: the row and combination are scaled
    in place and divided by the content of both, so they stay small and
    integral, and the step counts every entry of both pairs. A row that
    reduces to zero yields its combination, divided by its content. That
    combination holds its own vector with a nonzero coefficient and
    otherwise only earlier ones, so the relations are independent, and
    there is one per vector that adds no rank. The vectors are reduced
    in place. Past MAX_RELATION_WORK it raises RuleError.
    """
    pivots: dict[str, tuple[dict[str, int], dict[int, int]]] = {}
    basis: list[dict[int, int]] = []
    work = 0
    for index, row in enumerate(vectors):
        combination = {index: 1}
        while row:
            symbol = min(row)
            pivot = pivots.get(symbol)
            if pivot is None:
                pivots[symbol] = (row, combination)
                break
            pivot_row, pivot_combination = pivot
            a, b = row[symbol], pivot_row[symbol]
            unit = b == 1 or b == -1
            # `min` above scanned the row; a unit step updates the pivot's entries, any other both pairs.
            work += len(row) + len(pivot_row) + len(pivot_combination)
            if not unit:
                work += len(combination)
            if work > MAX_RELATION_WORK:
                raise RuleError(
                    f"rule cycles need too much work to classify: over MAX_RELATION_WORK = {MAX_RELATION_WORK} entry updates"
                )
            if unit:
                _subtract(row, a * b, pivot_row)
                _subtract(combination, a * b, pivot_combination)
                continue
            for vector, pivot_vector in ((row, pivot_row), (combination, pivot_combination)):
                for key in vector:
                    vector[key] *= b
                _subtract(vector, a, pivot_vector)
            content = gcd(*row.values(), *combination.values())
            for vector in (row, combination):
                for key in vector:
                    vector[key] //= content
        if not row:
            content = gcd(*combination.values())
            if content > 1:
                combination = {key: value // content for key, value in combination.items()}
            basis.append(combination)
    return basis


def _relation_witness(forms: Mapping[str, _RuleForm]) -> Optional[ConvTriple]:
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
    ratios: list[tuple[int, int]] = []
    vectors: list[dict[str, int]] = []
    for base, (factor, pairs, _) in forms.items():
        if isinstance(factor, Exception):
            raise factor.with_traceback(None)
        ratios.append(factor.as_integer_ratio())
        vector = dict(pairs)  # -v_i, which has the same relations
        vector[base] = vector.get(base, 0) - 1
        if not vector[base]:
            del vector[base]
        vectors.append(vector)
    for relation in _relation_basis(vectors):
        numerator, denominator, _ = _ratio_product(
            ((ratios[i], c) for i, c in relation.items()), "ratio product of a rule cycle"
        )
        if numerator != denominator:  # one Fraction, reduced by its constructor and taken above one
            above = Fraction(numerator, denominator) if numerator > denominator else Fraction(denominator, numerator)
            return ConvTriple(em_empty(), above, em_empty())
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
    their rules' compiled forms, giving "witness_found" with a witness
    relating the empty unit to itself at a ratio above one, or
    "guaranteed". A DefiningConversion's own forms are read, and a
    mapping's compiled here; `is_defining` is worked out either way, as
    the constructor does not validate. `max_steps` and `max_word` are
    unused, kept only for callers that still pass them. Rule sets too
    broken to interpret at all (unknown symbols, malformed ratios or
    replacements) raise instead, and so does a cycle whose rule values or
    ratio product would need more than MAX_RATIO_BITS bits (RatioError),
    or whose relations would take more than MAX_RELATION_WORK entry
    updates to solve (RuleError).
    """
    del max_steps, max_word
    conversion = rules if isinstance(rules, DefiningConversion) else DefiningConversion(rules)
    forms = _compile(system, conversion).forms
    is_defining = all(keeps_dimension for _, _, keeps_dimension in forms.values())
    report = analyze(system, conversion)
    witness = None if report.well_founded else _relation_witness(forms)
    return ClassificationReport(
        is_defining=is_defining,
        is_well_defining=is_defining and report.well_founded,
        is_regular=not forms,
        consistency="guaranteed" if witness is None else "witness_found",
        witness=witness,
        cycle_witness=report.cycle_witness,
        iteration_bound=report.iteration_bound if is_defining else None,
    )
