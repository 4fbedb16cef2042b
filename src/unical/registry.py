"""Registry documents, bundled unit systems, and unit-expression syntax.

A registry document is a UTF-8 text with four sections: dimensions,
prefixes, units, and rules. Loading a document (or several, merged in
order) produces a validated UnitSystem plus its DefiningConversion.
The same file ships the expression grammar used both for unit text on
the command line and for dimension/replacement columns inside registry
files, together with the canonical printer that inverts it.

The normative description of the file format lives in docs/format.md.
"""

from __future__ import annotations

import os
import re
import unicodedata
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterable, Optional

from .abelian import ExponentMap, em_delta, em_empty, em_inv, em_mul, em_pow
from .convert import DefiningConversion, RuleError, defining_conversion
from .model import (
    Dimension,
    EvaluatedUnit,
    NormalizedUnit,
    PreUnit,
    Prefix,
    RootUnit,
    Unit,
    UnitSystem,
    UnknownSymbolError,
)
from .numeric import RatioError, ratio_parse, ratio_text

__all__ = [
    "BUNDLED_REGISTRIES",
    "RegistryDocument",
    "RegistryError",
    "UnitSyntaxError",
    "UnknownIdentifierError",
    "bundled_registry",
    "build_system",
    "load_registry",
    "merge_documents",
    "parse_document",
    "parse_unit",
    "print_dimension",
    "print_evaluated",
    "print_normalized",
    "print_prefix",
    "print_root",
    "print_unit",
    "read_registry",
]

BUNDLED_REGISTRIES = ("si", "uk")

PATHOLOGICAL_FLAG = "!pathological"


class RegistryError(ValueError):
    """A registry document failed to parse or validate."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnitSyntaxError(ValueError):
    """A unit expression failed to parse; `position` is a 0-based offset."""

    def __init__(self, message: str, position: Optional[int] = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownIdentifierError(UnitSyntaxError):
    """An identifier resolved to neither a base unit nor a prefixed one."""


def _normalize(text: str) -> str:
    return unicodedata.normalize("NFKC", text)


# ---------------------------------------------------------------------------
# Tokenizer and expression grammar
#
#   expr := term (('*' | '/') term)*
#   term := atom ('^' signed-integer)?
#   atom := identifier | '(' expr ')' | '1'
#
# Division is inverse-multiplication; '*' and '/' associate to the left
# with no further precedence. The '1' atom is the empty product, needed
# to write dimensionless rows and empty replacements.

_SEGMENT = r"[^\s0-9_*/^()#\-]+"
_IDENT_RE = re.compile(rf"{_SEGMENT}(?:(?:\^-?[0-9]+)?_{_SEGMENT})*")
_NUMBER_RE = re.compile(r"-?[0-9]+")
_SYMBOL_RE = re.compile(rf"{_SEGMENT}(?:_{_SEGMENT})*\Z")
_PLAIN_SYMBOL_RE = re.compile(rf"{_SEGMENT}\Z")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | one of "*/^()" | "end"
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "*/^()":
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        match = _NUMBER_RE.match(text, pos)
        if match and (ch.isdigit() or ch == "-"):
            tokens.append(_Token("number", match.group(), pos))
            pos = match.end()
            continue
        match = _IDENT_RE.match(text, pos)
        if match:
            tokens.append(_Token("ident", match.group(), pos))
            pos = match.end()
            continue
        raise UnitSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", length))
    return tokens


Resolver = Callable[[str, int], ExponentMap]


class _ExpressionParser:
    """Recursive-descent parser over the grammar above.

    The resolver turns one identifier token into a group element, which
    is what lets the same grammar serve unit expressions (identifiers
    resolve to prefixed base units) and dimension expressions
    (identifiers are taken as dimension symbols).
    """

    def __init__(self, tokens: list[_Token], resolver: Resolver):
        self._tokens = tokens
        self._index = 0
        self._resolver = resolver

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise UnitSyntaxError(f"expected {kind!r}, found {token.text or 'end of input'!r}", token.position)
        return self._advance()

    def parse(self) -> ExponentMap:
        value = self._expression()
        tail = self._peek()
        if tail.kind != "end":
            raise UnitSyntaxError(f"unexpected trailing input {tail.text!r}", tail.position)
        return value

    def _expression(self) -> ExponentMap:
        value = self._term()
        while self._peek().kind in ("*", "/"):
            op = self._advance()
            term = self._term()
            value = em_mul(value, term if op.kind == "*" else em_inv(term))
        return value

    def _term(self) -> ExponentMap:
        atom = self._atom()
        if self._peek().kind == "^":
            self._advance()
            token = self._expect("number")
            return em_pow(atom, int(token.text))
        return atom

    def _atom(self) -> ExponentMap:
        token = self._peek()
        if token.kind == "ident":
            self._advance()
            return self._resolver(token.text, token.position)
        if token.kind == "(":
            self._advance()
            value = self._expression()
            self._expect(")")
            return value
        if token.kind == "number" and token.text == "1":
            self._advance()
            return em_empty()
        raise UnitSyntaxError(
            f"expected a symbol, '(' or 1, found {token.text or 'end of input'!r}", token.position
        )


def _parse_expression(text: str, resolver: Resolver) -> ExponentMap:
    return _ExpressionParser(_tokenize(_normalize(text)), resolver).parse()


# ---------------------------------------------------------------------------
# Identifier resolution against a unit system


def _prefix_chain(system: UnitSystem, head: str) -> Optional[list[str]]:
    """Greedy longest-match factorization of `head` into prefix symbols.

    At a given offset at most one registered symbol has a given length,
    so looking up the candidate slices longest first finds the longest
    match; no slice longer than the longest symbol is tried.
    """
    prefixes = system.base_prefixes
    longest = max(map(len, prefixes), default=0)
    chain: list[str] = []
    start = 0
    while start < len(head):
        for end in range(min(len(head), start + longest), start, -1):
            symbol = head[start:end]
            if symbol in prefixes:
                chain.append(symbol)
                start = end
                break
        else:
            return None
    return chain


def _resolve_explicit(system: UnitSystem, text: str) -> Optional[Unit]:
    """Resolve an underscore-joined identifier: prefix segments, then base.

    The base unit is the longest underscore-joined tail that names a
    registered base unit (base symbols may themselves contain
    underscores); every leading segment must be `prefix` or
    `prefix^exponent`.
    """
    segments = text.split("_")
    longest = max(map(len, system.base_units), default=0)
    start = 0
    for split in range(1, len(segments)):
        start += len(segments[split - 1]) + 1
        if len(text) - start > longest:
            continue
        tail = text[start:]
        if "^" in tail or tail not in system.base_units:
            continue
        pairs: list[tuple[str, int]] = []
        for segment in segments[:split]:
            symbol, caret, exponent_text = segment.partition("^")
            if caret:
                try:
                    exponent = int(exponent_text)
                except ValueError:
                    pairs = []
                    break
            else:
                exponent = 1
            if symbol not in system.base_prefixes:
                pairs = []
                break
            pairs.append((symbol, exponent))
        else:
            return em_delta(PreUnit(ExponentMap(pairs), tail))
    return None


def _resolve_greedy(system: UnitSystem, text: str) -> Optional[Unit]:
    """Resolve `text` as prefix chain + base unit, longest base suffix first."""
    units = system.base_units
    longest = max(map(len, units), default=0)
    for start in range(max(1, len(text) - longest), len(text)):
        base = text[start:]
        if base in units:
            chain = _prefix_chain(system, text[:start])
            if chain is not None:
                return em_delta(PreUnit(ExponentMap((symbol, 1) for symbol in chain), base))
    return None


def _resolve_identifier(system: UnitSystem, text: str, position: int = 0) -> Unit:
    if text in system.base_units:
        return em_delta(PreUnit(em_empty(), text))
    resolved = _resolve_explicit(system, text) if "_" in text else _resolve_greedy(system, text)
    if resolved is None:
        raise UnknownIdentifierError(f"unknown unit identifier {text!r}", position)
    return resolved


def parse_unit(system: UnitSystem, text: str) -> Unit:
    """Parse a unit expression over the system's symbols.

    Identifier resolution tries, in order: an exact base-unit match; a
    split into a greedy longest-first prefix chain plus the longest
    base-unit suffix; and the explicit underscore form (`µ_k_g`,
    `d^3_m`), which bypasses greedy splitting entirely. Input is
    NFKC-normalized first, so e.g. the micro sign and the ohm sign match
    their Greek-letter registry spellings.
    """
    return _parse_expression(text, lambda ident, pos: _resolve_identifier(system, ident, pos))


# ---------------------------------------------------------------------------
# Canonical printing


def _print_factors(entries: Iterable[tuple[str, int]]) -> str:
    parts = [symbol if exponent == 1 else f"{symbol}^{exponent}" for symbol, exponent in entries]
    return "*".join(parts) if parts else "1"


def print_root(root_unit: RootUnit) -> str:
    return _print_factors(root_unit.items())


def print_prefix(prefix: Prefix) -> str:
    return _print_factors(prefix.items())


def print_dimension(dimension: Dimension) -> str:
    return _print_factors(dimension.items())


def _resolves_to(system: UnitSystem, text: str, preunit: PreUnit) -> bool:
    try:
        return _resolve_identifier(system, text) == em_delta(preunit)
    except UnitSyntaxError:
        return False


def _print_preunit(system: UnitSystem, preunit: PreUnit) -> str:
    if preunit.base not in system.base_units:
        raise ValueError(f"no unambiguous rendering for {preunit!r} in this system")
    if not preunit.prefix:
        return preunit.base
    entries = preunit.prefix.items()
    if len(entries) == 1 and entries[0][1] == 1:
        compact = entries[0][0] + preunit.base
        if _resolves_to(system, compact, preunit):
            return compact
    segments = [
        symbol if exponent == 1 else f"{symbol}^{exponent}" for symbol, exponent in entries
    ]
    explicit = "_".join(segments + [preunit.base])
    if _resolves_to(system, explicit, preunit):
        return explicit
    raise ValueError(f"no unambiguous rendering for {preunit!r} in this system")


def print_unit(system: UnitSystem, unit: Unit) -> str:
    """Canonical text for a unit; parse_unit inverts it exactly."""
    if not unit:
        return "1"
    parts = []
    for preunit, exponent in unit.items():
        text = _print_preunit(system, preunit)
        parts.append(text if exponent == 1 else f"{text}^{exponent}")
    return "*".join(parts)


def print_normalized(system: UnitSystem, normalized: NormalizedUnit) -> str:
    """Paired rendering "(prefix, root)"; `system` kept for signature symmetry."""
    del system
    return f"({print_prefix(normalized.prefix)}, {print_root(normalized.root)})"


def print_evaluated(system: UnitSystem, evaluated: EvaluatedUnit) -> str:
    del system
    return f"({ratio_text(evaluated.factor)}, {print_root(evaluated.root)})"


# ---------------------------------------------------------------------------
# Registry documents


@dataclass(frozen=True)
class _PrefixEntry:
    symbol: str
    value_text: str
    line: int


@dataclass(frozen=True)
class _UnitEntry:
    symbol: str
    dimension: Dimension  # over dimension symbols, unvalidated until build
    line: int


@dataclass(frozen=True)
class _RuleEntry:
    base: str
    ratio_text: str
    unit_text: str
    pathological: bool
    line: int


@dataclass(frozen=True)
class RegistryDocument:
    """Parsed but not yet validated registry content."""

    dimensions: tuple[tuple[str, int], ...] = ()  # (symbol, line)
    prefixes: tuple[_PrefixEntry, ...] = ()
    units: tuple[_UnitEntry, ...] = ()
    rules: tuple[_RuleEntry, ...] = ()


def _check_symbol(symbol: str, pattern: re.Pattern, kind: str, line: int) -> str:
    if not pattern.match(symbol):
        raise RegistryError(f"invalid {kind} symbol {symbol!r}", line)
    return symbol


def parse_document(text: str) -> RegistryDocument:
    """Parse registry text into a document, reporting errors with lines."""
    dimensions: list[tuple[str, int]] = []
    prefixes: list[_PrefixEntry] = []
    units: list[_UnitEntry] = []
    rules: list[_RuleEntry] = []
    seen: dict[str, set[str]] = {"dimensions": set(), "prefixes": set(), "units": set(), "rules": set()}
    section: Optional[str] = None
    for number, raw in enumerate(_normalize(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in seen:
                raise RegistryError(f"unknown section {name!r}", number)
            section = name
            continue
        if section is None:
            raise RegistryError("content before any section header", number)
        fields = line.split()
        if section == "dimensions":
            for symbol in fields:
                _check_symbol(symbol, _PLAIN_SYMBOL_RE, "dimension", number)
                if symbol in seen["dimensions"]:
                    raise RegistryError(f"duplicate dimension {symbol!r}", number)
                seen["dimensions"].add(symbol)
                dimensions.append((symbol, number))
        elif section == "prefixes":
            if len(fields) != 2:
                raise RegistryError("prefix lines have the form: symbol value", number)
            symbol, value_text = fields
            _check_symbol(symbol, _PLAIN_SYMBOL_RE, "prefix", number)
            if symbol in seen["prefixes"]:
                raise RegistryError(f"duplicate prefix {symbol!r}", number)
            seen["prefixes"].add(symbol)
            prefixes.append(_PrefixEntry(symbol, value_text, number))
        elif section == "units":
            if len(fields) < 2:
                raise RegistryError("unit lines have the form: symbol dimension-expression", number)
            symbol = _check_symbol(fields[0], _SYMBOL_RE, "unit", number)
            if symbol in seen["units"]:
                raise RegistryError(f"duplicate unit {symbol!r}", number)
            seen["units"].add(symbol)
            expression = line[len(fields[0]):].strip()
            try:
                dimension = _parse_expression(expression, lambda ident, pos: em_delta(ident))
            except UnitSyntaxError as error:
                raise RegistryError(f"bad dimension expression: {error}", number) from None
            units.append(_UnitEntry(symbol, dimension, number))
        else:
            pathological = False
            if fields and fields[-1] == PATHOLOGICAL_FLAG:
                pathological = True
                fields = fields[:-1]
                line = line[: line.rfind(PATHOLOGICAL_FLAG)].strip()
            if len(fields) < 3:
                raise RegistryError(
                    "rule lines have the form: base ratio unit-expression [!pathological]", number
                )
            base = _check_symbol(fields[0], _SYMBOL_RE, "unit", number)
            if base in seen["rules"]:
                raise RegistryError(f"duplicate rule for {base!r}", number)
            seen["rules"].add(base)
            ratio_text_ = fields[1]
            expression = line[len(fields[0]):].strip()[len(fields[1]):].strip()
            rules.append(_RuleEntry(base, ratio_text_, expression, pathological, number))
    return RegistryDocument(tuple(dimensions), tuple(prefixes), tuple(units), tuple(rules))


def merge_documents(documents: Iterable[RegistryDocument]) -> RegistryDocument:
    """Merge documents in order.

    Dimensions accumulate; a prefix may be restated only at the same
    value and a unit only at the same dimension; a later rule for the
    same base unit replaces the earlier one, which is what lets an
    extension registry retune an existing symbol.
    """
    dimensions: dict[str, int] = {}
    prefixes: dict[str, _PrefixEntry] = {}
    units: dict[str, _UnitEntry] = {}
    rules: dict[str, _RuleEntry] = {}
    for document in documents:
        for symbol, line in document.dimensions:
            dimensions.setdefault(symbol, line)
        for entry in document.prefixes:
            known = prefixes.get(entry.symbol)
            if known is None:
                prefixes[entry.symbol] = entry
                continue
            if _parse_ratio_entry(known.value_text, known.line) != _parse_ratio_entry(
                entry.value_text, entry.line
            ):
                raise RegistryError(
                    f"prefix {entry.symbol!r} already defined with a different value", entry.line
                )
        for entry in document.units:
            known = units.get(entry.symbol)
            if known is None:
                units[entry.symbol] = entry
            elif known.dimension != entry.dimension:
                raise RegistryError(
                    f"unit {entry.symbol!r} already defined with a different dimension", entry.line
                )
        for entry in document.rules:
            rules[entry.base] = entry
    return RegistryDocument(
        tuple(dimensions.items()),
        tuple(prefixes.values()),
        tuple(units.values()),
        tuple(rules.values()),
    )


def _parse_ratio_entry(text: str, line: int) -> Fraction:
    try:
        return ratio_parse(text)
    except RatioError as error:
        raise RegistryError(str(error), line) from None


def build_system(
    document: RegistryDocument, *, include_pathological: bool = True
) -> tuple[UnitSystem, DefiningConversion]:
    """Validate a document and produce the system with its rules."""
    dimension_symbols = frozenset(symbol for symbol, _ in document.dimensions)
    prefix_values = {
        entry.symbol: _parse_ratio_entry(entry.value_text, entry.line) for entry in document.prefixes
    }
    unit_dimensions: dict[str, Dimension] = {}
    for entry in document.units:
        for symbol in entry.dimension:
            if symbol not in dimension_symbols:
                raise RegistryError(
                    f"unit {entry.symbol!r} uses unknown dimension {symbol!r}", entry.line
                )
        unit_dimensions[entry.symbol] = entry.dimension
    system = UnitSystem(dimension_symbols, prefix_values, unit_dimensions)
    rule_map: dict[str, tuple[Fraction, Unit]] = {}
    for entry in document.rules:
        if entry.pathological and not include_pathological:
            continue
        if entry.base not in unit_dimensions:
            raise RegistryError(f"rule for unknown base unit {entry.base!r}", entry.line)
        ratio = _parse_ratio_entry(entry.ratio_text, entry.line)
        try:
            replacement = parse_unit(system, entry.unit_text)
        except UnitSyntaxError as error:
            raise RegistryError(f"bad rule expression: {error}", entry.line) from None
        rule_map[entry.base] = (ratio, replacement)
        try:
            defining_conversion(system, {entry.base: rule_map[entry.base]})
        except (RuleError, UnknownSymbolError) as error:
            raise RegistryError(str(error), entry.line) from None
    return system, defining_conversion(system, rule_map)


def load_registry(*texts: str, include_pathological: bool = True) -> tuple[UnitSystem, DefiningConversion]:
    """Load one registry text, or several merged in order."""
    if not texts:
        raise RegistryError("no registry text given")
    merged = merge_documents(parse_document(text) for text in texts)
    return build_system(merged, include_pathological=include_pathological)


def bundled_registry(name: str) -> str:
    """Text of a bundled registry (one of BUNDLED_REGISTRIES)."""
    if name not in BUNDLED_REGISTRIES:
        raise RegistryError(
            f"no bundled registry {name!r}; available: {', '.join(BUNDLED_REGISTRIES)}"
        )
    return resources.files("unical").joinpath("data", f"{name}.reg").read_text(encoding="utf-8")


def read_registry(item: str) -> str:
    """Text of a registry given as a file path or a bundled name."""
    if os.path.exists(item):
        with open(item, "r", encoding="utf-8") as handle:
            return handle.read()
    if item in BUNDLED_REGISTRIES:
        return bundled_registry(item)
    raise RegistryError(
        f"registry {item!r} is neither a readable file nor one of the bundled names "
        f"({', '.join(BUNDLED_REGISTRIES)})"
    )
