#!/usr/bin/env python3
"""Count the distinct prefixed spellings of one unit value.

A value like the hectowatt can be written as (prefixed gram) *
(prefixed metre)^2 * (prefixed second)^-3 in many ways, one decimal
prefix per factor. This script fully expands the target unit, then
enumerates every assignment of decimal prefixes (or no prefix) to the
symbols of its root and counts the assignments whose exact value equals
the target. The count is sensitive to which prefixes the registry
carries: the exponent range grew to +/-30 when ronna and quetta were
adopted, and the difference shows up here.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import product

from unical import (
    NotWellDefiningError,
    RatioError,
    RegistryError,
    UnitSyntaxError,
    em_empty,
    em_delta,
    em_mul,
    em_pow,
    evaluate,
    load_registry,
    parse_unit,
    prefix_unit,
    print_evaluated,
    read_registry,
    rwr_star,
)


def decimal_prefix_exponents(system) -> dict[int, str | None]:
    """Exponent -> symbol for every power-of-ten prefix, plus 0 -> None."""
    table: dict[int, str | None] = {0: None}
    for symbol, value in sorted(system.base_prefixes.items()):
        for exponent in range(-30, 31):
            if exponent and value == Fraction(10) ** exponent:
                table[exponent] = symbol
    return table


def run(registries: list[str], unit: str, legacy_max: int) -> None:
    system, rules = load_registry(*(read_registry(item) for item in registries))
    target = rwr_star(system, rules, parse_unit(system, unit))
    slots = target.root.items()
    table = decimal_prefix_exponents(system)
    exponents = sorted(table)

    print(f"target: {unit} = {print_evaluated(system, target)}")
    print(f"slots: {', '.join(f'{sym}^{z}' for sym, z in slots)}")
    print(f"decimal prefix exponents available: {len(exponents)} (incl. bare)")

    matches = []
    for assignment in product(exponents, repeat=len(slots)):
        candidate = em_empty()
        for (symbol, power), exponent in zip(slots, assignment):
            prefix = table[exponent]
            word = em_empty() if prefix is None else em_delta(prefix)
            candidate = em_mul(candidate, em_pow(prefix_unit(word, symbol), power))
        if evaluate(system, candidate) == target:
            matches.append(assignment)

    legacy = [m for m in matches if all(abs(e) <= legacy_max for e in m)]
    print(f"matching spellings: {len(matches)}")
    print(f"within |exponent| <= {legacy_max}: {len(legacy)}")
    beyond = [m for m in matches if m not in legacy]
    if beyond:
        print("needing the extended prefix range:")
        for assignment in beyond:
            parts = []
            for (symbol, power), exponent in zip(slots, assignment):
                prefix = table[exponent] or ""
                parts.append(f"{prefix}{symbol}^{power}" if power != 1 else f"{prefix}{symbol}")
            print("  " + "*".join(parts))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registry", action="append", help="registry file or bundled name (default: si)")
    parser.add_argument("--unit", default="hW", help="target unit expression (default: hW)")
    parser.add_argument(
        "--legacy-max",
        type=int,
        default=24,
        help="largest |exponent| in the prefix table before ronna and quetta (default: 24)",
    )
    args = parser.parse_args()
    try:
        run(args.registry or ["si"], args.unit, args.legacy_max)
    except (RegistryError, OSError, UnitSyntaxError, RatioError) as error:
        # Reported as the CLI reports bad input, with its exit status.
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
    except NotWellDefiningError as error:
        # Reported as the CLI reports a rule cycle, with its exit status.
        print(f"error: {error}", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
