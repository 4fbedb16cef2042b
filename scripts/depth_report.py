#!/usr/bin/env python3
"""Print the rewriting dependency structure of a registry.

For every base unit with a rule, shows its expansion depth (how many
parallel rewriting passes until it is fully reduced) and the base units
it transitively depends on. The maximum depth is the pass bound the
rewriter uses for every conversion.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from unical import analyze, load_registry, read_registry


@dataclass
class ReportConfig:
    registries: tuple[str, ...] = ("si",)
    include_pathological: bool = True


def run(config: ReportConfig) -> None:
    texts = [read_registry(item) for item in config.registries]
    system, rules = load_registry(*texts, include_pathological=config.include_pathological)
    report = analyze(system, rules)
    if not report.well_founded:
        print("rules are not well-founded")
        print("cycle: " + " > ".join(report.cycle_witness))
        return
    ruled = sorted(rules.rules, key=lambda s: (report.depth[s], s))
    width = max((len(s) for s in ruled), default=1)
    for symbol in ruled:
        depends = ", ".join(sorted(report.edges[symbol])) or "-"
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
    run(
        ReportConfig(
            registries=tuple(args.registry or ("si",)),
            include_pathological=not args.no_pathological_rules,
        )
    )


if __name__ == "__main__":
    main()
