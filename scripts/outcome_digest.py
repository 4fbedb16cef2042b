#!/usr/bin/env python3
"""Digest every outcome of unit text through parse_unit, rwr_star and convert.

Each case is unit text parsed with `parse_unit` and fully expanded with
`rwr_star`, or a pair of texts parsed and converted with `convert`. Its
outcome is the result, or the exception's type and message, whichever
step raised it. The script prints the number of outcomes and the SHA-256
of all of them, in order, so two versions of the library that print the
same digest gave the same answer, or the same refusal, in every case.

The cases are the benchmark's `convert_mix` query pools (from
`bench/gen.py`, seeds 1-3) over si+uk; texts at the documented bounds;
malformed texts; texts reaching a normal form too large to compile; and
seeded random texts over si and over si+uk.

    PYTHONPATH=src python3 scripts/outcome_digest.py [--pool-size N] [--random N]
"""

from __future__ import annotations

import argparse
import hashlib
import random
import runpy
from fractions import Fraction
from pathlib import Path

from unical import EvaluatedUnit, bundled_registry, convert, load_registry, parse_unit, rwr_star

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"

BOUNDARY_TEXTS = [
    ("lb^538", "g^538"), ("lb^539", "g^539"), ("Ym^175", "m^175"), ("Ym^176", "m^176"),
    ("Ym^176*lb^539", "m^176*g^539"), ("km^4000/m^4000", "1"), ("Hz^20000", "s^-20000"),
    ("k_g^1000000000", "g^1000000000"), ("m^1000000001", "m"), ("(" * 100 + "m" + ")" * 100, "m"),
    ("(" * 101 + "m" + ")" * 101, "m"), ("", "m"), ("m*", "m"), ("qq", "m"), ("k_qq", "m"), ("m#", "m"),
]

# `y` has a normal form past MAX_RATIO_BITS, so only units that reach it are refused.
OVERSIZED = "[units]\nx L\ny L\n[rules]\nx 2 m\ny 1 x^20000*m^-19999\n"
OVERSIZED_TEXTS = [("y", "m"), ("x*y", "m^2"), ("k_y*y^-1", "1"), ("x^3", "m^3"), ("y^0*x", "m")]

SYMBOLS = ["m", "g", "s", "A", "K", "N", "J", "W", "Hz", "Ω", "lb", "lbf", "pt", "g_n", "qq"]
PREFIXES = ["", "", "", "k", "m", "µ", "Y", "Gi", "k_", "d^3_", "h^-2_", "kk"]
EXPONENTS = ["", "", "", "^2", "^-1", "^-3", "^0", "^600"]
STRAYS = ["(", ")", "*", "^", "1", "#", " ", "2"]


def describe(result) -> str:
    """A result as text; ratios in hexadecimal, which has no digit limit."""
    if isinstance(result, EvaluatedUnit):
        return f"{describe(result.factor)} {result.root!r}"
    if isinstance(result, Fraction):
        return f"{result.numerator:x}/{result.denominator:x}"
    return repr(result)


def outcome(step) -> str:
    try:
        return describe(step())
    except Exception as error:  # every refusal is an outcome to compare
        return f"{type(error).__name__}: {error}"


def random_text(rng: random.Random, factors: list[tuple[str, str]]) -> str:
    """The (symbol, exponent) factors, prefixed at random; a tenth get a parenthesis and a stray piece."""
    words = [rng.choice(PREFIXES) + symbol + exponent for symbol, exponent in factors]
    text = words[0] + "".join(rng.choice("**/") + word for word in words[1:])
    if rng.random() < 0.1:
        text = f"({text}){rng.choice(EXPONENTS)}"
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(STRAYS) + text[cut:]
    return text


def random_texts(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """Pairs of texts; in half of them the second has the first's symbols, reordered."""
    pairs = []
    for _ in range(count):
        source, target = (
            [(rng.choice(SYMBOLS), rng.choice(EXPONENTS)) for _ in range(rng.randint(1, 4))] for _ in range(2)
        )
        if rng.random() < 0.5:
            target = rng.sample(source, len(source))
        pairs.append((random_text(rng, source), random_text(rng, target)))
    return pairs


def outcomes(system, rules, pairs):
    """The outcomes of each distinct text through rwr_star, then of each pair through convert."""
    for text in dict.fromkeys(text for pair in pairs for text in pair):
        yield f"rwr_star {text!r}: " + outcome(lambda: rwr_star(system, rules, parse_unit(system, text)))
    for source, target in pairs:
        yield f"convert {source!r} {target!r}: " + outcome(
            lambda: convert(system, rules, parse_unit(system, source), parse_unit(system, target))
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pool-size", type=int, default=4096, help="queries per convert_mix pool")
    parser.add_argument("--random", type=int, default=4000, help="random text pairs per registry set")
    args = parser.parse_args()
    convert_pool = runpy.run_path(str(GEN))["convert_pool"]
    si = bundled_registry("si")
    siuk = load_registry(si, bundled_registry("uk"))
    pools = [
        (query["source"], query["target"]) for seed in (1, 2, 3) for query in convert_pool(seed, args.pool_size)
    ]
    rng = random.Random(0)
    cases = [
        (siuk, pools + BOUNDARY_TEXTS + random_texts(rng, args.random)),
        (load_registry(si), random_texts(rng, args.random)),
        (load_registry(si, OVERSIZED), OVERSIZED_TEXTS + BOUNDARY_TEXTS),
    ]
    digest = hashlib.sha256()
    count = 0
    for (system, rules), pairs in cases:
        for line in outcomes(system, rules, pairs):
            digest.update(line.encode("utf-8") + b"\n")
            count += 1
    print(f"outcomes: {count}")
    print(f"sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
