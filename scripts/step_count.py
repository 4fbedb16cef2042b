#!/usr/bin/env python3
"""Count the interpreter steps per case of the benchmark's library workloads.

Each case of `convert_mix` is one query over si+uk loaded once: both
texts parsed with `parse_unit`, converted with `convert`, and the factor
written out with `ratio_to_decimal`. Each case of `classify_cycles` is one
registry text loaded with `load_registry` and classified with `classify`
at the benchmark's closure-search bounds. The inputs are the seeded pools
of `bench/gen.py`, which is only read. Every case is run once untraced,
so that memos and regex caches are warm, and then once under
`sys.settrace`, which counts each bytecode executed (an "opcode" event)
and each Python frame entered (a "call" event, also raised when a
generator resumes). The script prints one JSON line with, per workload,
the number of cases and the bytecodes and calls per case.

A count does not depend on the host's speed or load, so it shows a
change to the interpreter work that a timed run cannot resolve from its
noise. It can move a little with the string-hash seed, which orders
sets; set PYTHONHASHSEED to compare two versions.

    PYTHONPATH=src python3 scripts/step_count.py [--seed N] [--cases N]
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys
from pathlib import Path

from unical import bundled_registry, classify, convert, load_registry, parse_unit, ratio_to_decimal

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
# The closure-search bounds the benchmark's classify worker passes.
CLASSIFY_STEPS = 3
CLASSIFY_WORD = 5


def count_steps(cases) -> tuple[int, int]:
    """Run each case, a no-argument callable, under `sys.settrace`; (bytecodes, calls) over all of them."""
    counts = [0, 0]

    def on_opcode(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return on_opcode

    def on_call(frame, event, arg):
        counts[1] += 1
        frame.f_trace_opcodes = True
        return on_opcode

    sys.settrace(on_call)
    try:
        for case in cases:
            case()
    finally:
        sys.settrace(None)
    return counts[0], counts[1]


def convert_cases(seed: int, count: int) -> list:
    system, rules = load_registry(bundled_registry("si"), bundled_registry("uk"))

    def case(source: str, target: str):
        def run():
            factor = convert(system, rules, parse_unit(system, source), parse_unit(system, target))
            if factor is not None:
                ratio_to_decimal(factor)

        return run

    pool = runpy.run_path(str(GEN))["convert_pool"](seed, count)
    return [case(query["source"], query["target"]) for query in pool]


def classify_cases(seed: int, count: int) -> list:
    def case(registry: str):
        def run():
            classify(*load_registry(registry), max_steps=CLASSIFY_STEPS, max_word=CLASSIFY_WORD)

        return run

    blocks = runpy.run_path(str(GEN))["cycle_blocks"](seed)
    return [case(query["registry"]) for block in blocks for query in block][:count]


def per_case(cases: list) -> dict:
    for case in cases:  # warm: memos filled, regexes compiled
        case()
    bytecodes, calls = count_steps(cases)
    return {
        "cases": len(cases),
        "bytecodes_per_case": round(bytecodes / len(cases), 1),
        "calls_per_case": round(calls / len(cases), 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the benchmark's input pools")
    parser.add_argument("--cases", type=int, default=600, help="cases counted per workload")
    args = parser.parse_args()
    if args.cases < 1:
        parser.error("--cases must be at least 1")
    result = {
        "convert_mix": per_case(convert_cases(args.seed, args.cases)),
        "classify_cycles": per_case(classify_cases(args.seed, args.cases)),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
