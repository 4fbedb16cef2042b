"""Command-line interface.

One-shot queries against one or more registries: convert between units,
normalize or evaluate a unit expression, query its dimension, classify
the loaded rule set, or trace the rewriting steps. Structured output
mode prints a single JSON object per invocation for scripting.

Exit codes: 0 success, 1 not convertible, 2 parse or registry error,
3 rules not well-defining.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .abelian import em_inv, em_mul
from .convert import (
    DefiningConversion,
    NotWellDefiningError,
    analyze,
    classify,
    rwr_eval,
    rwr_star,
)
from .model import UnitSystem, UnknownSymbolError, dim, evaluate, norm
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

__all__ = [
    "CliConfig",
    "cmd_classify",
    "cmd_convert",
    "cmd_dim",
    "cmd_eval",
    "cmd_explain",
    "cmd_list",
    "cmd_norm",
    "main",
]

SCHEMA = "unical-cli/1"

EXIT_OK = 0
EXIT_NOT_CONVERTIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_WELL_DEFINING = 3

REGISTRY_ENV_VAR = "UNICAL_REGISTRY"


@dataclass
class CliConfig:
    """Settings shared by every command."""

    registries: tuple[str, ...] = ("si",)
    output: str = "plain"  # "plain" | "structured"
    digits: int = 15
    include_pathological: bool = True


def _load(config: CliConfig) -> tuple[UnitSystem, DefiningConversion]:
    documents = [parse_document(read_registry(item)) for item in config.registries]
    return build_system(
        merge_documents(documents), include_pathological=config.include_pathological
    )


def _emit(config: CliConfig, fields: dict, lines: list[str]) -> None:
    if config.output == "structured":
        print(json.dumps({"schema": SCHEMA, **fields}, sort_keys=True, ensure_ascii=False))
    else:
        print("\n".join(lines))


def _fail(error: Exception, code: int) -> int:
    print(f"error: {error}", file=sys.stderr)
    return code


_INPUT_ERRORS = (RegistryError, UnitSyntaxError, UnknownSymbolError, RatioError, OSError)


def cmd_convert(u_text: str, v_text: str, config: CliConfig) -> int:
    try:
        system, rules = _load(config)
        source = parse_unit(system, u_text)
        target = parse_unit(system, v_text)
        expanded_source = rwr_star(system, rules, source)
        expanded_target = rwr_star(system, rules, target)
    except _INPUT_ERRORS as error:
        return _fail(error, EXIT_BAD_INPUT)
    except NotWellDefiningError as error:
        return _fail(error, EXIT_NOT_WELL_DEFINING)
    if expanded_source.root != expanded_target.root:
        difference = em_mul(expanded_source.root, em_inv(expanded_target.root))
        _emit(
            config,
            {
                "command": "convert",
                "convertible": False,
                "source_root": print_root(expanded_source.root),
                "target_root": print_root(expanded_target.root),
                "difference": print_root(difference),
            },
            [
                "not convertible",
                f"source root: {print_root(expanded_source.root)}",
                f"target root: {print_root(expanded_target.root)}",
                f"difference: {print_root(difference)}",
            ],
        )
        return EXIT_NOT_CONVERTIBLE
    ratio = expanded_source.factor / expanded_target.factor
    decimal, exact = ratio_to_decimal(ratio, config.digits)
    _emit(
        config,
        {
            "command": "convert",
            "convertible": True,
            "ratio": ratio_text(ratio),
            "ratio_num": ratio.numerator,
            "ratio_den": ratio.denominator,
            "decimal": decimal,
            "decimal_exact": exact,
            "root": print_root(expanded_source.root),
            "source": print_evaluated(system, expanded_source),
            "target": print_evaluated(system, expanded_target),
        },
        [
            f"ratio: {ratio_text(ratio)}",
            f"decimal: {decimal}",
            f"exact: {'yes' if exact else 'no'}",
            f"source: {print_evaluated(system, expanded_source)}",
            f"target: {print_evaluated(system, expanded_target)}",
        ],
    )
    return EXIT_OK


def cmd_norm(u_text: str, config: CliConfig) -> int:
    try:
        system, _ = _load(config)
        normalized = norm(system, parse_unit(system, u_text))
    except _INPUT_ERRORS as error:
        return _fail(error, EXIT_BAD_INPUT)
    _emit(
        config,
        {
            "command": "norm",
            "prefix": print_prefix(normalized.prefix),
            "root": print_root(normalized.root),
            "normalized": print_normalized(system, normalized),
        },
        [
            f"prefix: {print_prefix(normalized.prefix)}",
            f"root: {print_root(normalized.root)}",
            f"normalized: {print_normalized(system, normalized)}",
        ],
    )
    return EXIT_OK


def cmd_eval(u_text: str, config: CliConfig) -> int:
    try:
        system, _ = _load(config)
        evaluated = evaluate(system, parse_unit(system, u_text))
        decimal, exact = ratio_to_decimal(evaluated.factor, config.digits)
    except _INPUT_ERRORS as error:
        return _fail(error, EXIT_BAD_INPUT)
    _emit(
        config,
        {
            "command": "eval",
            "factor": ratio_text(evaluated.factor),
            "factor_num": evaluated.factor.numerator,
            "factor_den": evaluated.factor.denominator,
            "decimal": decimal,
            "decimal_exact": exact,
            "root": print_root(evaluated.root),
            "evaluated": print_evaluated(system, evaluated),
        },
        [
            f"factor: {ratio_text(evaluated.factor)}",
            f"decimal: {decimal}",
            f"exact: {'yes' if exact else 'no'}",
            f"root: {print_root(evaluated.root)}",
        ],
    )
    return EXIT_OK


def cmd_dim(u_text: str, config: CliConfig) -> int:
    try:
        system, _ = _load(config)
        dimension = dim(system, parse_unit(system, u_text))
    except _INPUT_ERRORS as error:
        return _fail(error, EXIT_BAD_INPUT)
    _emit(
        config,
        {"command": "dim", "dimension": print_dimension(dimension)},
        [f"dimension: {print_dimension(dimension)}"],
    )
    return EXIT_OK


def cmd_classify(config: CliConfig) -> int:
    try:
        system, rules = _load(config)
        report = classify(system, rules)
    except _INPUT_ERRORS as error:
        return _fail(error, EXIT_BAD_INPUT)
    flags = {
        "command": "classify",
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
        flags["iteration_bound"] = report.iteration_bound
        lines.append(f"iteration bound: {report.iteration_bound}")
    if report.cycle_witness is not None:
        cycle = " > ".join(report.cycle_witness)
        flags["cycle"] = cycle
        lines.append(f"cycle: {cycle}")
    if report.witness is not None:
        witness = (
            f"{print_unit(system, report.witness.source)} = "
            f"{ratio_text(report.witness.ratio)} * {print_unit(system, report.witness.target)}"
        )
        flags["witness"] = witness
        lines.append(f"witness: {witness}")
    _emit(config, flags, lines)
    return EXIT_OK


def cmd_explain(u_text: str, config: CliConfig) -> int:
    try:
        system, rules = _load(config)
        unit = parse_unit(system, u_text)
    except _INPUT_ERRORS as error:
        return _fail(error, EXIT_BAD_INPUT)
    report = analyze(system, rules)
    if not report.well_founded:
        return _fail(NotWellDefiningError(report.cycle_witness), EXIT_NOT_WELL_DEFINING)
    state = evaluate(system, unit)
    steps = []
    for _ in range(report.iteration_bound):
        advanced = rwr_eval(system, rules, state)
        if advanced == state:
            break
        state = advanced
        steps.append(print_evaluated(system, state))
    start = print_evaluated(system, evaluate(system, unit))
    lines = [f"eval: {start}"]
    lines.extend(f"step {index}: {text}" for index, text in enumerate(steps, start=1))
    lines.append(f"fixpoint: {print_evaluated(system, state)}")
    _emit(
        config,
        {
            "command": "explain",
            "eval": start,
            "steps": steps,
            "fixpoint": print_evaluated(system, state),
        },
        lines,
    )
    return EXIT_OK


def cmd_list(kind: str, config: CliConfig) -> int:
    try:
        system, _ = _load(config)
    except _INPUT_ERRORS as error:
        return _fail(error, EXIT_BAD_INPUT)
    if kind == "units":
        entries = [
            f"{symbol} {print_dimension(dimension)}"
            for symbol, dimension in sorted(system.base_units.items())
        ]
    elif kind == "prefixes":
        entries = [
            f"{symbol} {ratio_text(value)}" for symbol, value in sorted(system.base_prefixes.items())
        ]
    else:
        entries = sorted(system.base_dimensions)
    _emit(config, {"command": "list", "kind": kind, "entries": entries}, entries)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--registry",
        action="append",
        metavar="PATH",
        help="registry file or bundled name (si, uk); repeatable, later files extend earlier "
        f"(default: ${REGISTRY_ENV_VAR} or si)",
    )
    shared.add_argument(
        "--format",
        choices=("plain", "structured"),
        default="plain",
        help="output mode (structured prints one JSON object)",
    )
    shared.add_argument(
        "--digits", type=int, default=15, metavar="N", help="decimal places for renderings"
    )
    shared.add_argument(
        "--no-pathological-rules",
        action="store_true",
        help="skip rules flagged !pathological (rad, sr)",
    )

    parser = argparse.ArgumentParser(
        prog="unical", description="Exact unit conversion calculus."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    convert = commands.add_parser("convert", parents=[shared], help="conversion factor between two units")
    convert.add_argument("source")
    convert.add_argument("target")
    for name, help_text in (
        ("norm", "prefix word and root of a unit"),
        ("eval", "exact scale factor and root of a unit"),
        ("dim", "dimension of a unit"),
        ("explain", "trace rewriting steps to the fixpoint"),
    ):
        sub = commands.add_parser(name, parents=[shared], help=help_text)
        sub.add_argument("unit")
    commands.add_parser("classify", parents=[shared], help="classify the loaded rule set")
    listing = commands.add_parser("list", parents=[shared], help="list registered symbols")
    listing.add_argument("kind", choices=("units", "prefixes", "dimensions"))
    return parser


def _config_from(args: argparse.Namespace) -> CliConfig:
    registries = args.registry
    if not registries:
        env = os.environ.get(REGISTRY_ENV_VAR, "")
        registries = [item for item in env.split(os.pathsep) if item] or ["si"]
    return CliConfig(
        registries=tuple(registries),
        output=args.format,
        digits=args.digits,
        include_pathological=not args.no_pathological_rules,
    )


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from(args)
    if not 0 <= config.digits <= MAX_DECIMAL_DIGITS:
        print(
            f"error: --digits must be between 0 and {MAX_DECIMAL_DIGITS}", file=sys.stderr
        )
        return EXIT_BAD_INPUT
    if args.command == "convert":
        return cmd_convert(args.source, args.target, config)
    if args.command == "norm":
        return cmd_norm(args.unit, config)
    if args.command == "eval":
        return cmd_eval(args.unit, config)
    if args.command == "dim":
        return cmd_dim(args.unit, config)
    if args.command == "classify":
        return cmd_classify(config)
    if args.command == "explain":
        return cmd_explain(args.unit, config)
    return cmd_list(args.kind, config)


if __name__ == "__main__":
    sys.exit(main())
