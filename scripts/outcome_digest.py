#!/usr/bin/env python3
"""Digest every outcome of unit text through rwr_star and convert, of rule sets through classify, and of the CLI.

Each case is unit text parsed with `parse_unit` and fully expanded with
`rwr_star`; a pair of texts parsed and converted with `convert`; or a
rule set, loaded from registry text or given as a mapping, classified
with `classify`. Its outcome is the result (every field of a
classification report), or the exception's type and message, whichever
step raised it. The script prints the number of outcomes and the
SHA-256 of all of them, in order, so two versions of the library that
print the same digest gave the same answer, or the same refusal, in
every case.

The unit cases are the benchmark's `convert_mix` query pools (from
`bench/gen.py`, seeds 1-3) over si+uk; texts at the documented bounds;
malformed texts; texts reaching a normal form too large to compile;
texts whose prefixes cancel, over si+uk with a second prefix worth `k`;
and seeded random texts over si and over si+uk. The boundary, oversized
and prefix-cancelling pairs are also each converted under fresh rules,
so that `convert` walks them with an empty factor memo rather than one
warmed by `rwr_star` on the same texts. The rule-set cases are the
benchmark's `classify_cycles` registries (seeds 1-3); the bundled and
boundary registries; a ring of 1000 rules; and seeded random cyclic
mappings from `tests/support.py`, consistent, inconsistent and changing dimension,
each classified as a mapping and as a DefiningConversion. The CLI cases
are argument lists run through `unical.cli.main` in this process, each
outcome its exit code, stdout and stderr: every command in both formats,
every help page, usage errors, and each exit code. They run with
COLUMNS=80, from a temporary directory holding their registry files, so
help text and error messages do not depend on the terminal or the path.

With `--dump PATH` each hashed line is also written to PATH, one per
line and in order, so two dumps can be compared line by line to see
which outcomes moved.

    PYTHONPATH=src python3 scripts/outcome_digest.py [--pool-size N] [--random N] [--dump PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import random
import runpy
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from unical import (
    ClassificationReport,
    ConvTriple,
    DefiningConversion,
    EvaluatedUnit,
    bundled_registry,
    classify,
    cli,
    convert,
    load_registry,
    parse_unit,
    rwr_star,
)

ROOT = Path(__file__).resolve().parents[1]
GEN = ROOT / "bench" / "gen.py"
SUPPORT = ROOT / "tests" / "support.py"

BOUNDARY_TEXTS = [
    ("lb^538", "g^538"), ("lb^539", "g^539"), ("Ym^175", "m^175"), ("Ym^176", "m^176"),
    ("Ym^176*lb^539", "m^176*g^539"), ("km^4000/m^4000", "1"), ("Hz^20000", "s^-20000"),
    ("k_g^1000000000", "g^1000000000"), ("m^1000000001", "m"), ("(" * 100 + "m" + ")" * 100, "m"),
    ("(" * 101 + "m" + ")" * 101, "m"), ("", "m"), ("m*", "m"), ("qq", "m"), ("k_qq", "m"), ("m#", "m"),
    # A character that starts no token is reported first, wherever it stands; a '^' is
    # part of an identifier only before `-?[0-9]+_` and a symbol; and the parser's
    # other faults: a missing or wrong atom, exponent or operator, and a second token.
    ("k m#", "m"), ("qq*#", "m"), ("m^99999999999*#", "m"), ("(" * 101 + "m#", "m"), ("m**_", "m"),
    ("m^x-", "m"), ("m)#", "m"), ("m*\ufb00#", "m"), ("m^2_", "m"), ("^2_m", "m"), ("m^2_*s", "m"),
    ("(m)^2_s", "m"), ("k_d^3_m", "m^3"), ("d^3_m^2", "m^6"), ("d^-3_m", "m^-3"), ("m ^ -2 / s", "Hz/m^2"),
    ("1^2", "1"), ("m^-0*s", "s"), ("k m", "m"), ("qq m", "m"), ("2*m", "m"), ("m**s", "m"), ("m^", "m"),
    ("m^x", "m"), ("m^2 s", "m"), ("m^99999999999 s", "m"), ("m^99999999999", "m"), ("m(", "m"), ("(m", "m"),
    ("m)", "m"), ("(m) s", "m"), ("(m)2", "m"), ("(m^2^3)", "m"), ("m/(s", "m"),
    # Known identifiers with whitespace around them, and exponents next to the short
    # literals: padded, signed, with a leading zero, past one digit, or not ASCII.
    (" km ", "m"), ("km * s", "m*s"), ("( km )^2", "m^2"), ("\tk_g\t/ s", "g/s"), ("\u3000km\u3000", "m"),
    ("km s", "m"), ("m^02", "m^2"), ("m^-0", "1"), ("m^+2", "m"), ("m^ -2", "m^-2"), ("m^²", "m^2"), ("m^٣", "m"),
    ("m^9", "m^9"), ("m^-9", "m^-9"), ("m^10", "m^10"), ("m^-10", "m^-10"), ("m ^ 2 /s", "m^2/s"), ("m^2 _s", "m"),
    ("m^-2_s", "s"), ("1^-9", "1"),
    # Equal integers cancel before the size rule: 10^-600 and 1, each past it summed per value.
    ("h^-2_N^600", "g^600*m^600*s^-1200"), ("k_m^5000*m_g^5000", "m^5000*g^5000"),
    # Each unit is bounded alone, so the quotient, 10^8400, passes the limit.
    ("Ym^175", "ym^175"),
    # Terms read with two lookups or a piece at a time: a zero, negative or spaced exponent,
    # an identifier holding a '^', a second '^', and the term after a ')'.
    ("J^0", "1"), ("km^0*s", "s"), ("(km)^-2", "m^-2"), ("( km ) ^ 2", "m^2"), ("d^3_m^-2", "m^-2"),
    ("km^2^3", "m"), ("km^ 2", "m^2"), ("m/s^2/s^-2", "m"), ("k_m^-9*s^9", "m^-9*s^9"), ("(m)^", "m"),
    ("m^2(", "m"), ("km^-10", "m^-10"),
]

# `y` has a normal form past MAX_RATIO_BITS, so only units that reach it are refused.
OVERSIZED = "[units]\nx L\ny L\n[rules]\nx 2 m\ny 1 x^20000*m^-19999\n"
OVERSIZED_TEXTS = [("y", "m"), ("x*y", "m^2"), ("k_y*y^-1", "1"), ("x^3", "m^3"), ("y^0*x", "m")]

# `kilo` is worth what `k` is, so `k_kilo^-1_m` has prefix value one: summed per
# value its bits are 0, summed per symbol 20. Each text is met by the exact walk
# first and then read from the factor memo, with and without `lb^538` (13 684 bits)
# before it. The boundary texts that follow read there as they do over si+uk.
TWIN_PREFIX = "[prefixes]\nkilo 1000\n"
TWIN_PREFIX_TEXTS = [
    pair for n in (700, 1400, 20000) for pair in (
        (f"k_kilo^-1_m^{n}", f"m^{n}"), (f"k_kilo^-1_m^{n}*lb^538", f"m^{n}*g^538")
    )
]

# `x`'s replacement has a prefix value past MAX_RATIO_BITS: it loads, and
# is refused only where its value is needed, as in a cycle through it.
DEFERRED = "[units]\nx L^600\n[rules]\nx 1 Ym^600\n"
# Extra registry texts loaded over si, then classified.
REGISTRY_EXTRAS = [
    (), ("uk",), (OVERSIZED,), (DEFERRED,), ("[rules]\ns 2 Hz^-1\n",), ("[rules]\ns 1 Hz^-1\n",),
    ("[rules]\nm 1 s\nA 1 m\n",), ("[units]\nx L^600\n[rules]\nx 1 Ym^600\nm 1 x\n",),
]

# Registry files for the CLI cases, written into the directory they run from.
CLI_REGISTRIES = {
    "litre.reg": b"[units]\nL L^3\n[rules]\nL 1 dm^3\n",
    "cyclic.reg": b"[dimensions]\nD\n[units]\na D\nb D\n[rules]\na 2 b\nb 3 a\n",
    "steep.reg": b"[units]\nx L\ny L\nz L\n[rules]\nx 2^6000 y\ny 2^-6000 z\n",
    "latin1.reg": "[units]\nx L\n# caf\u00e9\n".encode("latin-1"),
    "malformed.reg": b"[units]\nx\n",
    "unknown.reg": b"[rules]\nqq 1 m\n",
    "empty.reg": b"",
    # Dimension columns: ones that name dimensions declared after them, and exponents past one digit.
    "forward.reg": b"[units]\nx D\ny (D*E)^-1\n[dimensions]\nD E\n",
    "power.reg": b"[units]\nx L^10\ny (L*M)^-1/T^-9\n",
    "selfloop.reg": b"[dimensions]\nD\n[units]\na D\nb D\n[rules]\na 2 a\nb 3 a\n",
}
SIUK = ("--registry", "si", "--registry", "uk")
STEEP = ("--registry", "si", "--registry", "steep.reg")
# Each case is an argument list and the value of UNICAL_REGISTRY, or None to leave it unset.
CLI_CASES = [
    *(
        (argv + form, None)
        for argv in (
            ["convert", "lb*g_n", "N", *SIUK], ["convert", "m", "s"], ["norm", "k_g*ms^-1"], ["eval", "Mi_m/k_s"],
            ["eval", "L", "--registry", "si", "--registry", "litre.reg"], ["dim", "J/s"], ["explain", "kJ/s"],
            ["classify"], ["classify", "--registry", "cyclic.reg"], ["depth"], ["census", "hW"],
            ["list", "units", *SIUK], ["list", "prefixes"], ["list", "dimensions"],
        )
        for form in ([], ["--format", "plain"], ["--format", "structured"])
    ),
    *(
        ([*command, "--help"], None)
        for command in (
            [], ["convert"], ["norm"], ["eval"], ["dim"], ["explain"], ["classify"], ["depth"], ["census"], ["list"]
        )
    ),
    (["-h"], None), (["list", "-h"], None),
    ([], None), (["convert"], None), (["convert", "m"], None), (["convert", "m", "km", "s"], None),
    (["norm"], None), (["eval"], None), (["dim"], None), (["explain"], None), (["list"], None),
    (["norm", "m", "s"], None), (["classify", "m"], None), (["list", "units", "prefixes"], None),
    (["frobnicate", "m"], None), (["--registry", "si"], None), (["list", "things"], None),
    (["convert", "m", "km", "--format", "xml"], None), (["convert", "m", "km", "--digits", "many"], None),
    *(
        ([command, unit, *target, "--digits", digits], None)
        for digits in ("-1", "0", "50", "51")
        for command, unit, *target in (("convert", "m", "km"), ("eval", "Mi_m/k_s"))
    ),
    (["explain", "rad"], None), (["explain", "rad", "--no-pathological-rules"], None),
    (["classify", "--no-pathological-rules"], None),
    (["convert", "lb", "g"], f"si{os.pathsep}uk"), (["convert", "lb", "g"], None), (["convert", "lb", "g"], ""),
    (["convert", "lb", "g", "--registry", "si"], f"si{os.pathsep}uk"), (["eval", "L"], f"si{os.pathsep}litre.reg"),
    (["convert", "a", "b", "--registry", "cyclic.reg"], None), (["explain", "a", "--registry", "cyclic.reg"], None),
    (["convert", "m*", "m"], None), (["norm", "(m"], None), (["dim", "qq"], None), (["eval", "Ym^176"], None),
    (["convert", "lb^539", "g^539", *SIUK], None),
    (["convert", "m*", "a", "--registry", "cyclic.reg"], None),
    (["list", "units", "--registry", "missing.reg"], None), (["dim", "m", "--registry", "latin1.reg"], None),
    (["classify", "--registry", "malformed.reg"], None), (["classify", "--registry", "unknown.reg"], None),
    (["list", "units", "--registry", "unknown.reg"], None),
    (["explain", "x^3", *STEEP], None), (["convert", "x^3", "z^3", *STEEP], None),
    # Dimension columns the memo walk declines, and a self-loop's cycle witness.
    (["list", "units", "--registry", "forward.reg"], None),
    (["dim", "x/y", "--registry", "si", "--registry", "power.reg"], None),
    (["classify", "--registry", "selfloop.reg"], None),
    # Rule depths over cyclic rules; spellings of a factor that is no power of ten, spellings
    # past the listing cap, and a unit past the census limit; a registry that is a directory.
    (["depth", "--registry", "cyclic.reg"], None), (["depth", "--registry", "selfloop.reg"], None),
    (["census", "lb", *SIUK], None), (["census", "W*A"], None),
    (["census", "m^1000003*s^61*g^3721*A^226981*K^7"], None), (["list", "units", "--registry", "."], None),
    # An empty listing, and the shared options before the command, after it, and on both sides.
    (["list", "units", "--registry", "empty.reg"], None), (["--format", "structured", "convert", "m", "km"], None),
    (["--registry", "uk", "convert", "lb", "g", "--registry", "si", "--registry", "uk"], None),
    (["--digits", "2", "--no-pathological-rules", "eval", "Mi_m/k_s", "--digits", "3"], None),
]

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
    if isinstance(result, ConvTriple):
        return f"{result.source!r} {describe(result.ratio)} {result.target!r}"
    if isinstance(result, ClassificationReport):
        return ", ".join(f"{name}={describe(getattr(result, name))}" for name in result._fields)
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


def cold_outcomes(system, rules, pairs):
    """The outcome of each pair through convert, each under a fresh copy of the rules and so an empty memo."""
    for source, target in pairs:
        yield f"convert cold {source!r} {target!r}: " + outcome(
            lambda: convert(
                system, DefiningConversion(dict(rules.rules)), parse_unit(system, source), parse_unit(system, target)
            )
        )


def classify_outcomes(registries, mappings):
    """The outcomes of loading and classifying each registry text, then of classifying each mapping two ways."""
    for index, texts in enumerate(registries):
        yield f"classify registry {index}: " + outcome(lambda: classify(*load_registry(*texts)))
    for index, (system, rules) in enumerate(mappings):
        yield f"classify mapping {index}: " + outcome(lambda: classify(system, rules))
        yield f"classify conversion {index}: " + outcome(lambda: classify(system, DefiningConversion(rules)))


def cli_outcome(argv: list[str]) -> str:
    """One argument list through the CLI: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse's usage errors and help pages
            code = stop.code
    return f"exit {code!r} stdout {out.getvalue()!r} stderr {err.getvalue()!r}"


def cli_outcomes(cases):
    """The outcome of each (argument list, UNICAL_REGISTRY) case, run from a directory of CLI_REGISTRIES."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(directory)
        try:
            for name, data in CLI_REGISTRIES.items():
                Path(name).write_bytes(data)
            for argv, registries in cases:
                if registries is None:
                    os.environ.pop(cli.REGISTRY_ENV_VAR, None)
                else:
                    os.environ[cli.REGISTRY_ENV_VAR] = registries
                yield f"cli {argv!r} {registries!r}: " + cli_outcome(argv)
        finally:
            os.chdir(home)


def rule_mappings(rng: random.Random, count: int) -> list:
    """A cycle through DEFERRED's `x`, then `count` seeded random cyclic mappings."""
    system, rules = load_registry(bundled_registry("si"), DEFERRED)
    mappings = [(system, {**rules.rules, "m": (Fraction(1), parse_unit(system, "x"))})]
    random_cyclic_rules = runpy.run_path(str(SUPPORT))["random_cyclic_rules"]
    for index in range(count):
        consistent, changing_dimension = index % 3 == 0, index % 3 == 2
        system, rules, _ = random_cyclic_rules(rng, consistent, 0.5, changing_dimension)
        mappings.append((system, rules))
    return mappings


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pool-size", type=int, default=4096, help="queries per convert_mix pool")
    parser.add_argument(
        "--random", type=int, default=4000, help="random text pairs per registry set, and random rule mappings"
    )
    parser.add_argument("--dump", metavar="PATH", help="also write each hashed line to PATH, in order")
    args = parser.parse_args()
    gen = runpy.run_path(str(GEN))
    convert_pool, cycle_blocks = gen["convert_pool"], gen["cycle_blocks"]
    si = bundled_registry("si")
    siuk = load_registry(si, bundled_registry("uk"))
    pools = [
        (query["source"], query["target"]) for seed in (1, 2, 3) for query in convert_pool(seed, args.pool_size)
    ]
    rng = random.Random(0)
    oversized, twin = load_registry(si, OVERSIZED), load_registry(si, bundled_registry("uk"), TWIN_PREFIX)
    cases = [
        (siuk, pools + BOUNDARY_TEXTS + random_texts(rng, args.random)),
        (load_registry(si), random_texts(rng, args.random)),
        (oversized, OVERSIZED_TEXTS + BOUNDARY_TEXTS),
        (twin, TWIN_PREFIX_TEXTS + BOUNDARY_TEXTS),
    ]
    registries = [(si, *(bundled_registry(t) if t == "uk" else t for t in extra)) for extra in REGISTRY_EXTRAS]
    registries += [(case["registry"],) for seed in (1, 2, 3) for block in cycle_blocks(seed) for case in block]
    registries.append((runpy.run_path(str(SUPPORT))["ring_registry_text"](1000),))
    streams = [outcomes(system, rules, pairs) for (system, rules), pairs in cases]
    cold = [(siuk, BOUNDARY_TEXTS), (oversized, OVERSIZED_TEXTS), (twin, TWIN_PREFIX_TEXTS)]
    streams += [cold_outcomes(system, rules, pairs) for (system, rules), pairs in cold]
    streams.append(classify_outcomes(registries, rule_mappings(random.Random(1), args.random)))
    streams.append(cli_outcomes(CLI_CASES))
    digest = hashlib.sha256()
    count = 0
    with open(args.dump or os.devnull, "w", encoding="utf-8") as dump:
        for line in itertools.chain.from_iterable(streams):
            digest.update(line.encode("utf-8") + b"\n")
            dump.write(line + "\n")
            count += 1
    print(f"outcomes: {count}")
    print(f"sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
