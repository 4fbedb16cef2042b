"""Command-line interface.

One-shot queries against one or more registries: convert between units,
normalize or evaluate a unit expression, query its dimension, classify
the loaded rule set, trace the rewriting steps, report rule depths, or
count a unit's prefixed spellings. Structured output mode prints a
single JSON object per invocation for scripting.

Exit codes: 0 success, 1 not convertible, 2 parse or registry error,
3 rules not well-defining.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from .abelian import em_inv, em_mul
from .convert import (
    DefiningConversion,
    NotWellDefiningError,
    RuleError,
    analyze,
    classify,
    rwr_eval,
    rwr_star,
)
from .model import UnitSystem, UnknownSymbolError, dim, evaluate, norm, root as root_of
from .numeric import MAX_DECIMAL_DIGITS, RatioError, ratio_text, ratio_to_decimal
from .registry import (
    RegistryError,
    UnitSyntaxError,
    build_system,
    merge_documents,
    parse_document,
    parse_unit,
    print_dimension,
    print_evaluated,
    print_normalized,
    print_prefix,
    print_root,
    print_unit,
    read_registry,
)

__all__ = ["main"]

SCHEMA = "unical-cli/1"

EXIT_OK = 0
EXIT_NOT_CONVERTIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_WELL_DEFINING = 3

REGISTRY_ENV_VAR = "UNICAL_REGISTRY"

_INPUT_ERRORS = (RegistryError, UnitSyntaxError, UnknownSymbolError, RatioError, RuleError)

# The census counts apart the spellings whose prefixes all lie within the
# range before ronna and quetta (2022). Its tables hold at most
# MAX_CENSUS_SUMS partial sums, and it lists at most CENSUS_SHOWN spellings.
CENSUS_LEGACY_EXPONENT = 24
MAX_CENSUS_SUMS = 100_000
CENSUS_SHOWN = 20

# A command body takes the loaded system, its rules and the parsed
# arguments, and returns (exit code, structured fields, plain lines).
Outcome = tuple[int, dict, list[str]]


def _ratio(name: str, ratio: Fraction, digits: int) -> tuple[dict, list[str]]:
    """A ratio's fields (`name`, its numerator and denominator, and its decimal) and plain lines."""
    decimal, exact = ratio_to_decimal(ratio, digits)
    text = ratio_text(ratio)
    fields = {
        name: text,
        f"{name}_num": ratio.numerator,
        f"{name}_den": ratio.denominator,
        "decimal": decimal,
        "decimal_exact": exact,
    }
    return fields, [f"{name}: {text}", f"decimal: {decimal}", f"exact: {'yes' if exact else 'no'}"]


def _convert(system: UnitSystem, rules: DefiningConversion, args: argparse.Namespace) -> Outcome:
    # Both units are parsed before either is rewritten, so a syntax error
    # wins over cyclic rules.
    source = parse_unit(system, args.source)
    target = parse_unit(system, args.target)
    expanded_source = rwr_star(system, rules, source)
    expanded_target = rwr_star(system, rules, target)
    root = print_root(expanded_source.root)
    if expanded_source.root != expanded_target.root:
        target_root = print_root(expanded_target.root)
        difference = print_root(em_mul(expanded_source.root, em_inv(expanded_target.root)))
        fields = {"source_root": root, "target_root": target_root, "difference": difference}
        lines = [f"source root: {root}", f"target root: {target_root}", f"difference: {difference}"]
        return EXIT_NOT_CONVERTIBLE, {"convertible": False, **fields}, ["not convertible", *lines]
    fields, lines = _ratio("ratio", expanded_source.factor / expanded_target.factor, args.digits)
    source_text = print_evaluated(system, expanded_source)
    target_text = print_evaluated(system, expanded_target)
    fields.update(convertible=True, root=root, source=source_text, target=target_text)
    return EXIT_OK, fields, [*lines, f"source: {source_text}", f"target: {target_text}"]


def _norm(system: UnitSystem, rules: DefiningConversion, args: argparse.Namespace) -> Outcome:
    normalized = norm(system, parse_unit(system, args.unit))
    prefix = print_prefix(normalized.prefix)
    root = print_root(normalized.root)
    paired = print_normalized(system, normalized)
    return (
        EXIT_OK,
        {"prefix": prefix, "root": root, "normalized": paired},
        [f"prefix: {prefix}", f"root: {root}", f"normalized: {paired}"],
    )


def _eval(system: UnitSystem, rules: DefiningConversion, args: argparse.Namespace) -> Outcome:
    evaluated = evaluate(system, parse_unit(system, args.unit))
    fields, lines = _ratio("factor", evaluated.factor, args.digits)
    root = print_root(evaluated.root)
    fields.update(root=root, evaluated=print_evaluated(system, evaluated))
    return EXIT_OK, fields, [*lines, f"root: {root}"]


def _dim(system: UnitSystem, rules: DefiningConversion, args: argparse.Namespace) -> Outcome:
    dimension = print_dimension(dim(system, parse_unit(system, args.unit)))
    return EXIT_OK, {"dimension": dimension}, [f"dimension: {dimension}"]


def _classify(system: UnitSystem, rules: DefiningConversion, args: argparse.Namespace) -> Outcome:
    report = classify(system, rules)
    fields = {
        "defining": report.is_defining,
        "well_defining": report.is_well_defining,
        "regular": report.is_regular,
        "consistency": report.consistency,
    }
    lines = [
        f"defining: {'yes' if report.is_defining else 'no'}",
        f"well-defining: {'yes' if report.is_well_defining else 'no'}",
        f"regular: {'yes' if report.is_regular else 'no'}",
        f"consistency: {report.consistency}",
    ]
    if report.iteration_bound is not None:
        fields["iteration_bound"] = report.iteration_bound
        lines.append(f"iteration bound: {report.iteration_bound}")
    if report.cycle_witness is not None:
        cycle = " > ".join(report.cycle_witness)
        fields["cycle"] = cycle
        lines.append(f"cycle: {cycle}")
    if report.witness is not None:
        witness = (
            f"{print_unit(system, report.witness.source)} = "
            f"{ratio_text(report.witness.ratio)} * {print_unit(system, report.witness.target)}"
        )
        fields["witness"] = witness
        lines.append(f"witness: {witness}")
    return EXIT_OK, fields, lines


def _explain(system: UnitSystem, rules: DefiningConversion, args: argparse.Namespace) -> Outcome:
    unit = parse_unit(system, args.unit)
    report = analyze(system, rules)
    if not report.well_founded:
        raise NotWellDefiningError(report.cycle_witness)
    state = evaluate(system, unit)
    start = print_evaluated(system, state)
    steps = []
    for _ in range(report.iteration_bound):
        try:
            advanced = rwr_eval(system, rules, state)
        except RatioError:
            # When the unit reaches a ruled symbol whose normal form is
            # too large, rwr_star raises the error that names it; else
            # this pass's own error stands.
            rwr_star(system, rules, unit)
            raise
        if advanced == state:
            break
        state = advanced
        steps.append(print_evaluated(system, state))
    fixpoint = print_evaluated(system, state)
    lines = [f"eval: {start}"]
    lines.extend(f"step {index}: {text}" for index, text in enumerate(steps, start=1))
    lines.append(f"fixpoint: {fixpoint}")
    return EXIT_OK, {"eval": start, "steps": steps, "fixpoint": fixpoint}, lines


def _depth(system: UnitSystem, rules: DefiningConversion, args: argparse.Namespace) -> Outcome:
    report = analyze(system, rules)
    if not report.well_founded:
        raise NotWellDefiningError(report.cycle_witness)
    depth = {symbol: report.depth[symbol] for symbol in sorted(rules.rules, key=lambda s: (report.depth[s], s))}
    uses = {symbol: list(root_of(rules.rules[symbol][1]).support()) for symbol in depth}
    width = max(map(len, depth), default=1)
    lines = [f"{symbol:<{width}}  depth {d}  uses: {', '.join(uses[symbol]) or '-'}" for symbol, d in depth.items()]
    lines.append(f"pass bound for any conversion: {report.iteration_bound}")
    return EXIT_OK, {"depth": depth, "uses": uses, "iteration_bound": report.iteration_bound}, lines


def _decimal_exponent(value: Fraction) -> Optional[int]:
    """The integer e with value == 10^e, or None."""
    power = max(value.numerator, value.denominator)
    exponent = round(math.log10(power))
    if min(value.numerator, value.denominator) != 1 or 10**exponent != power:
        return None
    return exponent if value.numerator == power else -exponent


def _census(system: UnitSystem, rules: DefiningConversion, args: argparse.Namespace) -> Outcome:
    # A spelling gives each slot, symbol^z, of the unit's expanded root a prefix worth
    # 10^e, or none (e = 0). It matches when the target's factor is 10^(sum of e*z).
    target = rwr_star(system, rules, parse_unit(system, args.unit))
    slots = target.root.items()
    decimal = {_decimal_exponent(value): symbol for symbol, value in sorted(system.base_prefixes.items())}
    prefixes = {**{exponent: symbol for exponent, symbol in decimal.items() if exponent}, 0: ""}
    exponents = sorted(prefixes)
    # tables[i] maps each sum the slots from i on reach to the number of
    # assignments that reach it, and of those within the legacy range.
    tables, size = [{0: (1, 1)}], 1
    for _, power in reversed(slots):
        table: dict[int, tuple[int, int]] = {}
        for exponent in exponents:
            legacy = abs(exponent) <= CENSUS_LEGACY_EXPONENT
            for total, (count, within) in tables[-1].items():
                before, before_within = table.get(total + exponent * power, (0, 0))
                table[total + exponent * power] = (before + count, before_within + within * legacy)
            if size + len(table) > MAX_CENSUS_SUMS:
                raise UnitSyntaxError(f"census of {args.unit!r} is over MAX_CENSUS_SUMS = {MAX_CENSUS_SUMS} partial sums")
        size += len(table)
        tables.append(table)
    tables.reverse()
    goal = _decimal_exponent(target.factor)
    matching, within = (0, 0) if goal is None else tables[0].get(goal, (0, 0))

    # The spellings outside the legacy range, in itertools.product order over `exponents`, each
    # found by its rank: the tables count how many of them each choice of prefix leads to.
    listed = []
    for rank in range(min(matching - within, CENSUS_SHOWN)):
        rest, extended, parts = goal, False, []
        for index, (symbol, power) in enumerate(slots):
            for exponent in exponents:
                count, legacy = tables[index + 1].get(rest - exponent * power, (0, 0))
                wider = extended or abs(exponent) > CENSUS_LEGACY_EXPONENT
                if rank < count - legacy * (not wider):
                    break
                rank -= count - legacy * (not wider)
            rest, extended = rest - exponent * power, wider
            parts.append(f"{prefixes[exponent]}{symbol}" + (f"^{power}" if power != 1 else ""))
        listed.append("*".join(parts))

    unlisted = matching - within - len(listed)
    evaluated, slot_text = print_evaluated(system, target), ", ".join(f"{symbol}^{power}" for symbol, power in slots)
    lines = [
        f"target: {args.unit} = {evaluated}",
        f"slots: {slot_text}",
        f"decimal prefix exponents available: {len(exponents)} (incl. bare)",
        f"matching spellings: {matching}",
        f"within |exponent| <= {CENSUS_LEGACY_EXPONENT}: {within}",
        *(["needing the extended prefix range:"] if listed else []),
        *(f"  {spelling}" for spelling in listed),
        *([f"… and {unlisted} more"] if unlisted else []),
    ]
    fields = {"target": evaluated, "slots": slot_text, "exponents": len(exponents), "matching": matching}
    fields.update(within_legacy=within, extended=listed, extended_unlisted=unlisted)
    return EXIT_OK, fields, lines


def _list(system: UnitSystem, rules: DefiningConversion, args: argparse.Namespace) -> Outcome:
    if args.kind == "units":
        entries = [
            f"{symbol} {print_dimension(dimension)}"
            for symbol, dimension in sorted(system.base_units.items())
        ]
    elif args.kind == "prefixes":
        entries = [
            f"{symbol} {ratio_text(value)}" for symbol, value in sorted(system.base_prefixes.items())
        ]
    else:
        entries = sorted(system.base_dimensions)
    return EXIT_OK, {"kind": args.kind, "entries": entries}, entries


# Each command, in help order: its body; whether it reads the rules (the
# others run without building them, so a bad rule cannot fail them); its
# positional arguments, each with its choices or None for free text; and
# its help text.
_COMMANDS = {
    "convert": (_convert, True, {"source": None, "target": None}, "conversion factor between two units"),
    "norm": (_norm, False, {"unit": None}, "prefix word and root of a unit"),
    "eval": (_eval, False, {"unit": None}, "exact scale factor and root of a unit"),
    "dim": (_dim, False, {"unit": None}, "dimension of a unit"),
    "explain": (_explain, True, {"unit": None}, "trace rewriting steps to the fixpoint"),
    "classify": (_classify, True, {}, "classify the loaded rule set"),
    "depth": (_depth, True, {}, "expansion depth and direct dependencies of each rule"),
    "census": (_census, True, {"unit": None}, "count the prefixed spellings of a unit's value"),
    "list": (_list, False, {"kind": ("units", "prefixes", "dimensions")}, "list registered symbols"),
}


def _build_parser() -> argparse.ArgumentParser:
    # The shared options are read before the command and after it. They are
    # suppressed where not given, so a value after the command wins over one
    # before it; their defaults are the namespace `main` starts from.
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument(
        "--registry",
        action="append",
        metavar="PATH",
        help="registry file or bundled name (si, uk); a bundled name wins over a file of that "
        "name, which ./si still reaches; repeatable, later files extend earlier "
        f"(default: ${REGISTRY_ENV_VAR} or si)",
    )
    shared.add_argument(
        "--format",
        choices=("plain", "structured"),
        help="output mode (structured prints one JSON object)",
    )
    shared.add_argument("--digits", type=int, metavar="N", help="decimal places for renderings")
    shared.add_argument(
        "--no-pathological-rules",
        action="store_true",
        help="skip rules flagged !pathological (rad, sr)",
    )

    parser = argparse.ArgumentParser(
        prog="unical", description="Exact unit conversion calculus.", parents=[shared]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, (_, _, positionals, help_text) in _COMMANDS.items():
        command = commands.add_parser(name, parents=[shared], help=help_text)
        for positional, choices in positionals.items():
            command.add_argument(positional, choices=choices)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    defaults = argparse.Namespace(registry=None, format="plain", digits=15, no_pathological_rules=False)
    args = _build_parser().parse_args(argv, defaults)
    registries = args.registry
    if not registries:
        env = os.environ.get(REGISTRY_ENV_VAR, "")
        registries = [item for item in env.split(os.pathsep) if item] or ["si"]
    if not 0 <= args.digits <= MAX_DECIMAL_DIGITS:
        print(f"error: --digits must be between 0 and {MAX_DECIMAL_DIGITS}", file=sys.stderr)
        return EXIT_BAD_INPUT
    body, reads_rules, _, _ = _COMMANDS[args.command]
    try:
        texts = [read_registry(item) for item in registries]
        document = merge_documents(parse_document(text) for text in texts)
        if not reads_rules:
            document = document._replace(rules=())
        system, rules = build_system(document, include_pathological=not args.no_pathological_rules)
        code, fields, lines = body(system, rules, args)
    except _INPUT_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NotWellDefiningError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_NOT_WELL_DEFINING
    if args.format == "structured":
        import json  # imported here, so that plain output does not pay for it in a cold start

        text = json.dumps({"schema": SCHEMA, "command": args.command, **fields}, sort_keys=True, ensure_ascii=False)
    elif lines:
        text = "\n".join(lines)
    else:
        return code
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early. What stdout still holds goes to the null device, so the
        # flush at exit raises nothing, and the exit code stays the command's own.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
