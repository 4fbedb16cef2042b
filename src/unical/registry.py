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
from fractions import Fraction
from operator import itemgetter
from typing import Any, Iterable, Mapping, NamedTuple, Optional

from .abelian import ExponentMap, em_empty
from .convert import DefiningConversion, RuleError, _check_rule, _freeze, _require_defining
from .model import (
    MAX_MEMO_IDENTIFIERS,
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
    "MAX_UNIT_EXPONENT",
    "MAX_UNIT_NESTING",
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

# Limits on expression text, checked while parsing: the parser stacks
# one entry per open parenthesis, and an exponent literal is read as an int.
MAX_UNIT_NESTING = 100
MAX_UNIT_EXPONENT = 10**9

# A system's memo of resolved identifiers keeps identifiers of at most
# this many characters, and at most MAX_MEMO_IDENTIFIERS of them.
MAX_MEMO_IDENTIFIER_LEN = 32

# Largest registry file read, in bytes; the bundled si and uk take 1509.
MAX_REGISTRY_BYTES = 1 << 20

_SEGMENT = r"[^\s0-9_*/^()#\-]+"
_IDENT_RE = re.compile(rf"{_SEGMENT}(?:(?:\^-?[0-9]+)?_{_SEGMENT})*")
_NUMBER_RE = re.compile(r"-?[0-9]+")
_SYMBOL_RE = re.compile(rf"{_SEGMENT}(?:_{_SEGMENT})*\Z")
_PLAIN_SYMBOL_RE = re.compile(rf"{_SEGMENT}\Z")


# (kind, text, position); kind is "ident" | "number" | one of "*/^()" | "end".
_Token = tuple[str, str, int]
_TOKEN_RE = re.compile(rf"([*/^()])|({_NUMBER_RE.pattern})|({_IDENT_RE.pattern})|\s+")
_TOKEN_KINDS = (None, None, "number", "ident")  # by group of _TOKEN_RE; an operator is its own kind; whitespace has none


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise UnitSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if match.lastindex:  # not whitespace
            tokens.append((_TOKEN_KINDS[match.lastindex] or match.group(), match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


_EXPONENT_DIGITS = len(str(MAX_UNIT_EXPONENT))  # an exponent literal with more is refused unread

# Cuts text into terms at the operators between them, keeping the operators.
_OPERATOR_RE = re.compile(r"([*/()])")
_NONZERO = itemgetter(1)  # filters (generator, exponent) pairs to those with an exponent
_SHORT_EXPONENTS = {str(z): z for z in range(-9, 10)}  # exponent literals the memo walk reads


def _exponent(text: str, position: int) -> int:
    """An exponent literal's value, refused past MAX_UNIT_EXPONENT before `int` reads it."""
    digits = text.lstrip("-0")
    if len(digits) > _EXPONENT_DIGITS or int(digits or "0") > MAX_UNIT_EXPONENT:
        raise UnitSyntaxError(f"exponent magnitude is over MAX_UNIT_EXPONENT = {MAX_UNIT_EXPONENT}", position)
    return int(text)


def _preunit_order(item: tuple[PreUnit, int]) -> tuple[str, Prefix]:
    return item[0].base, item[0].prefix  # PreUnit's order, compared without `PreUnit.__lt__`


def _read_known(memo: Mapping[str, PreUnit], text: str) -> Optional[list[tuple[PreUnit, int]]]:
    """The (generator, exponent) pairs of text made of memo keys only, else None.

    The text is cut at '*', '/', '(' and ')' into terms, each a memo key,
    blanks aside, or a key with '^' and an exponent in `_SHORT_EXPONENTS`;
    a blank term opens a '(', and after a ')' a term is blank or '^' and
    a short exponent. Any other text is left to `_read_tokens`: this walk
    resolves nothing and raises nothing.
    """
    parts = _OPERATOR_RE.split(text)
    parts.append("")  # the operator after the last term: the end of input
    terms = iter(parts)
    pairs: list[tuple[PreUnit, int]] = []
    open_terms: list[tuple[int, int]] = []  # (start, sign) of each term opened by '('
    start, sign, closed = 0, 1, False  # `closed`: the term follows a ')'
    for term, operator in zip(terms, terms):
        word = term.strip()
        if closed:
            if word:
                if word[0] != "^" or (power := _SHORT_EXPONENTS.get(word[1:])) is None:
                    return None
                sign *= power
            if sign != 1:
                pairs[start:] = [(g, z * sign) for g, z in pairs[start:]]
        elif (generator := memo.get(word)) is not None:
            pairs.append((generator, sign))
        else:
            head, _, tail = word.rpartition("^")
            if (power := _SHORT_EXPONENTS.get(tail)) is not None and (generator := memo.get(head)) is not None:
                pairs.append((generator, sign * power))
            elif word or operator != "(" or len(open_terms) == MAX_UNIT_NESTING:
                return None
            else:
                open_terms.append((start, sign))
                start, sign = len(pairs), 1
                continue
        if operator == "*" or operator == "/":
            start, sign, closed = len(pairs), 1 if operator == "*" else -1, False
        elif operator == ")" and open_terms:
            (start, sign), closed = open_terms.pop(), True
        elif operator or open_terms:
            return None
    return pairs


def _read_tokens(tokens: list[_Token], system: Optional[UnitSystem]) -> list[tuple[Any, int]]:
    """The (generator, exponent) pairs of tokenized text, in one loop that raises every grammar fault.

    An identifier resolves through `_resolve_identifier`, or without a
    `system` stands for itself. A term's pairs are the slice of one list
    from where it starts, scaled by its `^n` and negated after a `/` when
    it ends; each `(` stacks the start and sign of the term it opens.
    """
    pairs: list[tuple[Any, int]] = []
    open_terms: list[tuple[int, int]] = []  # (start, sign) of each term opened by '('
    start, sign, index = 0, 1, 0
    while True:
        kind, text, position = tokens[index]
        index += 1
        if kind == "(":
            if len(open_terms) == MAX_UNIT_NESTING:
                raise UnitSyntaxError(f"parentheses nest deeper than MAX_UNIT_NESTING = {MAX_UNIT_NESTING}", position)
            open_terms.append((start, sign))
            start, sign = len(pairs), 1
            continue
        if kind == "ident":
            pairs.append((text if system is None else _resolve_identifier(system, text, position), 1))
        elif kind != "number" or text != "1":
            raise UnitSyntaxError(f"expected a symbol, '(' or 1, found {text or 'end of input'!r}", position)
        # An atom is complete: end its term, and each term that a ')' then closes.
        while True:
            kind, text, position = tokens[index]
            index += 1
            if kind == "^":
                kind, text, position = tokens[index]
                if kind != "number":
                    raise UnitSyntaxError(f"expected 'number', found {text or 'end of input'!r}", position)
                sign *= _exponent(text, position)
                kind, text, position = tokens[index + 1]
                index += 2
            if sign != 1:
                pairs[start:] = [(g, z * sign) for g, z in pairs[start:]]
            if kind == "*" or kind == "/":
                start, sign = len(pairs), 1 if kind == "*" else -1
                break
            if not open_terms:
                if kind != "end":
                    raise UnitSyntaxError(f"unexpected trailing input {text!r}", position)
                return pairs
            if kind != ")":
                raise UnitSyntaxError(f"expected ')', found {text or 'end of input'!r}", position)
            start, sign = open_terms.pop()


def _parse_expression(expression: str, system: Optional[UnitSystem] = None) -> ExponentMap:
    """Parse expression text over the grammar above into a canonical map, in time linear in the text.

    Text that `_read_known` does not take from the system's memo, and a
    dimension column (no `system`), is read by `_read_tokens`. A repeated
    generator's exponents are summed in one dict at the end.
    """
    text = _normalize(expression)
    pairs = None if system is None else _read_known(system._resolved, text)
    if pairs is None:
        pairs = _read_tokens(_tokenize(text), system)
    if len(pairs) == 1:  # one identifier: nothing to sum or sort
        return ExponentMap._canonical(tuple(pairs) if pairs[0][1] else ())
    if len(dict(pairs)) < len(pairs):  # a generator repeats: sum its exponents
        totals: dict[Any, int] = {}
        for g, z in pairs:
            totals[g] = totals.get(g, 0) + z
        pairs = list(totals.items())
    items = sorted(filter(_NONZERO, pairs), key=None if system is None else _preunit_order)
    return ExponentMap._canonical(tuple(items))  # from a list: a tuple made from an iterator raised peak RSS


# ---------------------------------------------------------------------------
# Identifier resolution against a unit system


def _prefix_chain(system: UnitSystem, head: str) -> Optional[list[str]]:
    """Greedy longest-match factorization of `head` into prefix symbols.

    At a given offset at most one registered symbol has a given length,
    so looking up the candidate slices longest first finds the longest
    match; no slice longer than the longest symbol is tried.
    """
    prefixes = system.base_prefixes
    longest = system.max_prefix_len
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


def _resolve_explicit(system: UnitSystem, text: str, position: int) -> Optional[PreUnit]:
    """Resolve an underscore-joined identifier: prefix segments, then base.

    The base unit is the longest underscore-joined tail that names a
    registered base unit (base symbols may themselves contain
    underscores); every leading segment must be `prefix` or
    `prefix^exponent`, the exponent bounded as in `^` terms. `position`
    is the identifier's offset in the text, for errors.
    """
    segments = text.split("_")
    longest = system.max_unit_len
    start = 0
    for split in range(1, len(segments)):
        start += len(segments[split - 1]) + 1
        if len(text) - start > longest:
            continue
        tail = text[start:]
        if "^" in tail or tail not in system.base_units:
            continue
        pairs: list[tuple[str, int]] = []
        offset = position
        for segment in segments[:split]:
            symbol, caret, exponent_text = segment.partition("^")
            if caret and not _NUMBER_RE.fullmatch(exponent_text):
                pairs = []
                break
            exponent = _exponent(exponent_text, offset + len(symbol) + 1) if caret else 1
            if symbol not in system.base_prefixes:
                pairs = []
                break
            pairs.append((symbol, exponent))
            offset += len(segment) + 1
        else:
            return PreUnit(ExponentMap(pairs), tail)
    return None


def _resolve_greedy(system: UnitSystem, text: str) -> Optional[PreUnit]:
    """Resolve `text` as prefix chain + base unit, longest base suffix first."""
    units = system.base_units
    longest = system.max_unit_len
    for start in range(max(1, len(text) - longest), len(text)):
        base = text[start:]
        if base in units:
            chain = _prefix_chain(system, text[:start])
            if chain is not None:
                return PreUnit(ExponentMap((symbol, 1) for symbol in chain), base)
    return None


def _resolve_identifier(system: UnitSystem, text: str, position: int = 0) -> PreUnit:
    """The prefixed base unit an identifier names, through the system's memo.

    Only successful resolutions of identifiers up to
    MAX_MEMO_IDENTIFIER_LEN characters are kept, so an unknown
    identifier raises with its own position each time it occurs; and
    only text the grammar reads as one identifier, so that the memo walk
    may take any key from the memo unchecked.
    """
    memo = system._resolved
    preunit = memo.get(text)
    if preunit is None:
        if text in system.base_units:
            preunit = PreUnit(em_empty(), text)
        elif "_" in text:
            preunit = _resolve_explicit(system, text, position)
        else:
            preunit = _resolve_greedy(system, text)
        if preunit is None:
            raise UnknownIdentifierError(f"unknown unit identifier {text!r}", position)
        if len(text) <= MAX_MEMO_IDENTIFIER_LEN and _IDENT_RE.fullmatch(text):
            if len(memo) >= MAX_MEMO_IDENTIFIERS:
                memo.clear()
            memo[text] = preunit
    return preunit


def parse_unit(system: UnitSystem, text: str) -> Unit:
    """Parse a unit expression over the system's symbols.

    Identifier resolution tries, in order: an exact base-unit match; a
    split into a greedy longest-first prefix chain plus the longest
    base-unit suffix; and the explicit underscore form (`µ_k_g`,
    `d^3_m`), which bypasses greedy splitting entirely. Input is
    NFKC-normalized first, so e.g. the micro sign and the ohm sign match
    their Greek-letter registry spellings.
    """
    return _parse_expression(text, system)


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
        return _resolve_identifier(system, text) == preunit
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
    return _print_factors((_print_preunit(system, preunit), z) for preunit, z in unit.items())


def print_normalized(system: UnitSystem, normalized: NormalizedUnit) -> str:
    """Paired rendering "(prefix, root)"; `system` kept for signature symmetry."""
    del system
    return f"({print_prefix(normalized.prefix)}, {print_root(normalized.root)})"


def print_evaluated(system: UnitSystem, evaluated: EvaluatedUnit) -> str:
    del system
    return f"({ratio_text(evaluated.factor)}, {print_root(evaluated.root)})"


# ---------------------------------------------------------------------------
# Registry documents


class _PrefixEntry(NamedTuple):
    symbol: str
    value_text: str
    line: int


class _UnitEntry(NamedTuple):
    symbol: str
    dimension: Dimension  # over dimension symbols, unvalidated until build
    line: int


class _RuleEntry(NamedTuple):
    base: str
    ratio_text: str
    unit_text: str
    pathological: bool
    line: int


class RegistryDocument(NamedTuple):
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
                dimension = _parse_expression(expression)
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
    """Validate a document and produce the system with its rules, each checked once, in document order."""
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
    checked = {}
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
        try:
            checked[entry.base] = _check_rule(system, entry.base, (ratio, replacement))
            _require_defining(entry.base, checked[entry.base][1])
        except (RuleError, UnknownSymbolError) as error:
            raise RegistryError(str(error), entry.line) from None
    return system, _freeze(system, checked)


def load_registry(*texts: str, include_pathological: bool = True) -> tuple[UnitSystem, DefiningConversion]:
    """Load one registry text, or several merged in order."""
    if not texts:
        raise RegistryError("no registry text given")
    merged = merge_documents(parse_document(text) for text in texts)
    return build_system(merged, include_pathological=include_pathological)


def _read_text(path: str, name: str) -> str:
    """Text of the registry `name` stored at `path`: UTF-8, less one leading byte-order mark.

    At most MAX_REGISTRY_BYTES are read; a longer file is refused.
    """
    with open(path, "rb") as handle:
        data = handle.read(MAX_REGISTRY_BYTES + 1)
    if len(data) > MAX_REGISTRY_BYTES:
        raise RegistryError(f"registry {name!r} is over MAX_REGISTRY_BYTES = {MAX_REGISTRY_BYTES} bytes")
    try:
        # Decoded as plain UTF-8 so that the offset counts the mark too.
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as error:
        raise RegistryError(
            f"registry {name!r} is not UTF-8: {error.reason} at byte offset {error.start}"
        ) from None


def bundled_registry(name: str) -> str:
    """Text of a bundled registry (one of BUNDLED_REGISTRIES)."""
    if name not in BUNDLED_REGISTRIES:
        raise RegistryError(
            f"no bundled registry {name!r}; available: {', '.join(BUNDLED_REGISTRIES)}"
        )
    return _read_text(os.path.join(os.path.dirname(__file__), "data", f"{name}.reg"), name)


def read_registry(item: str) -> str:
    """Text of a registry given as a bundled name or a file path.

    A bundled name wins over a file of the same name in the working
    directory; such a file is still reachable as `./si`.
    """
    if item in BUNDLED_REGISTRIES:
        return bundled_registry(item)
    if os.path.exists(item):
        return _read_text(item, item)
    raise RegistryError(
        f"registry {item!r} is neither a readable file nor one of the bundled names "
        f"({', '.join(BUNDLED_REGISTRIES)})"
    )
