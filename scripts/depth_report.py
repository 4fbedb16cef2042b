#!/usr/bin/env python3
"""Print the rewriting dependency structure of a registry.

For every base unit with a rule, shows its expansion depth (how many
parallel rewriting passes until it is fully reduced) and the base units
it transitively depends on. The maximum depth is the number of one-step
`rwr_eval` passes that reach every unit's normal form; conversions reach
the same normal forms through a table compiled once, in depth order.
`analyze` reports only depths; the transitive dependencies are built
here, by `transitive_dependencies`, in the same depth order.
"""

from __future__ import annotations

import argparse
import sys

from unical import RegistryError, analyze, load_registry, read_registry, root


def transitive_dependencies(rules, depth) -> dict[str, frozenset[str]]:
    """Every base unit each ruled symbol depends on, directly or not.

    A rule depends directly on the symbols of its replacement's root,
    after cancellation. Visiting the ruled symbols in depth order makes
    each set the union of its direct dependencies and their sets; the
    result keeps that order.
    """
    found: dict[str, frozenset[str]] = {}
    for symbol in sorted(rules.rules, key=lambda s: (depth[s], s)):
        direct = root(rules.rules[symbol][1]).support()
        found[symbol] = frozenset(direct).union(*(found.get(s, ()) for s in direct))
    return found


def run(registries: list[str], include_pathological: bool = True) -> None:
    texts = [read_registry(item) for item in registries]
    system, rules = load_registry(*texts, include_pathological=include_pathological)
    report = analyze(system, rules)
    if not report.well_founded:
        print("rules are not well-founded")
        print("cycle: " + " > ".join(report.cycle_witness))
        return
    dependencies = transitive_dependencies(rules, report.depth)
    width = max((len(s) for s in dependencies), default=1)
    for symbol in dependencies:
        depends = ", ".join(sorted(dependencies[symbol])) or "-"
        print(f"{symbol:<{width}}  depth {report.depth[symbol]}  depends on: {depends}")
    print(f"pass bound for any conversion: {report.iteration_bound}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--registry", action="append", help="registry file or bundled name (default: si)"
    )
    parser.add_argument(
        "--no-pathological-rules",
        action="store_true",
        help="skip rules flagged !pathological",
    )
    args = parser.parse_args()
    try:
        run(args.registry or ["si"], include_pathological=not args.no_pathological_rules)
    except (RegistryError, OSError) as error:
        # Reported as the CLI reports a bad registry, with its exit status.
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
