"""Seeded inputs for the benchmark workloads, with their expected answers.

Nothing here imports unical. Expected answers come from hand-written
tables that restate the bundled registry rows (prefix values, rule
ratios) expanded down to the seven SI base units, and from a small
anchor table of hand-checked factors. The program under test only ever
sees the generated text.
"""

from __future__ import annotations

import hashlib
import json
import random
import unicodedata
from fractions import Fraction

BASE_DIMENSION = {"g": "M", "m": "L", "s": "T", "A": "I", "K": "Θ", "mol": "N", "cd": "J"}

PREFIXES = {
    **{
        symbol: Fraction(10) ** exponent
        for symbol, exponent in (
            ("q", -30), ("r", -27), ("y", -24), ("z", -21), ("a", -18), ("f", -15),
            ("p", -12), ("n", -9), ("µ", -6), ("m", -3), ("c", -2), ("d", -1),
            ("da", 1), ("h", 2), ("k", 3), ("M", 6), ("G", 9), ("T", 12),
            ("P", 15), ("E", 18), ("Z", 21), ("Y", 24), ("R", 27), ("Q", 30),
        )
    },
    **{f"{head}i": Fraction(2) ** (10 * rank) for rank, head in enumerate("kMGTPEZY", start=1)},
}

_KILO = Fraction(1000)

# symbol -> (factor, root over BASE_DIMENSION symbols), the registry rule
# chains followed by hand. rad and sr use their !pathological rules.
SI_UNITS = {
    "m": (1, {"m": 1}),
    "s": (1, {"s": 1}),
    "g": (1, {"g": 1}),
    "A": (1, {"A": 1}),
    "K": (1, {"K": 1}),
    "mol": (1, {"mol": 1}),
    "cd": (1, {"cd": 1}),
    "rad": (1, {}),
    "sr": (1, {}),
    "Hz": (1, {"s": -1}),
    "N": (_KILO, {"g": 1, "m": 1, "s": -2}),
    "Pa": (_KILO, {"g": 1, "m": -1, "s": -2}),
    "J": (_KILO, {"g": 1, "m": 2, "s": -2}),
    "W": (_KILO, {"g": 1, "m": 2, "s": -3}),
    "C": (1, {"A": 1, "s": 1}),
    "V": (_KILO, {"g": 1, "m": 2, "s": -3, "A": -1}),
    "F": (1 / _KILO, {"g": -1, "m": -2, "s": 4, "A": 2}),
    "Ω": (_KILO, {"g": 1, "m": 2, "s": -3, "A": -2}),
    "S": (1 / _KILO, {"g": -1, "m": -2, "s": 3, "A": 2}),
    "Wb": (_KILO, {"g": 1, "m": 2, "s": -2, "A": -1}),
    "T": (_KILO, {"g": 1, "s": -2, "A": -1}),
    "H": (_KILO, {"g": 1, "m": 2, "s": -2, "A": -2}),
    "°C": (1, {"K": 1}),
    "lm": (1, {"cd": 1}),
    "lx": (1, {"cd": 1, "m": -2}),
    "Bq": (1, {"s": -1}),
    "Gy": (1, {"m": 2, "s": -2}),
    "Sv": (1, {"m": 2, "s": -2}),
    "kat": (1, {"mol": 1, "s": -1}),
}

_POUND = Fraction("453.59237")
_GRAVITY = Fraction("9.80665")
UK_UNITS = {
    "lb": (_POUND, {"g": 1}),
    "pt": (Fraction("568.26125") / 10**6, {"m": 3}),
    "g_n": (_GRAVITY, {"m": 1, "s": -2}),
    "lbf": (_POUND * _GRAVITY, {"g": 1, "m": 1, "s": -2}),
}

# Hand-checked factors, independent of the tables above, with the
# registries each holds under. No bundled registry has an hour, so the
# last one is checked with si plus HOUR_REGISTRY.
ANCHORS = {
    ("lb*g_n", "N"): (Fraction(8896443230521, 2000000000000), ("si", "uk")),
    ("W/V", "A"): (Fraction(1), ("si", "uk")),
    ("kW*h", "MJ"): (Fraction(18, 5), ("si", "hour")),
}
HOUR_UNITS = {"h": (3600, {"s": 1})}
HOUR_REGISTRY = "[units]\nh T\n\n[rules]\nh 3600 s\n"


def _nfkc(text: str) -> str:
    return unicodedata.normalize("NFKC", text)


PREFIXES = {_nfkc(symbol): value for symbol, value in PREFIXES.items()}
SI_UNITS = {_nfkc(symbol): (Fraction(f), root) for symbol, (f, root) in SI_UNITS.items()}
UK_UNITS = {symbol: (Fraction(f), root) for symbol, (f, root) in UK_UNITS.items()}
HOUR_UNITS = {symbol: (Fraction(f), root) for symbol, (f, root) in HOUR_UNITS.items()}


def units_for(registries: tuple[str, ...]) -> dict:
    """The oracle's unit table for a list of registry names."""
    table = dict(SI_UNITS)
    if "uk" in registries:
        table.update(UK_UNITS)
    if "hour" in registries:
        table.update(HOUR_UNITS)
    return table


# ---------------------------------------------------------------------------
# Unit expressions: lists of (prefix or "", symbol, exponent)


def _merge(into: dict, root: dict, times: int) -> None:
    for symbol, exponent in root.items():
        total = into.get(symbol, 0) + exponent * times
        if total:
            into[symbol] = total
        else:
            into.pop(symbol, None)


def expand(units: dict, factors) -> tuple[Fraction, dict]:
    """Factor and root over the SI base units, by construction."""
    factor = Fraction(1)
    root: dict = {}
    for prefix, symbol, exponent in factors:
        unit_factor, unit_root = units[symbol]
        factor *= (PREFIXES.get(prefix, 1) * unit_factor) ** exponent
        _merge(root, unit_root, exponent)
    return factor, root


def expected_factor(units: dict, source, target):
    """Exact source/target factor, or None when the roots differ."""
    source_factor, source_root = expand(units, source)
    target_factor, target_root = expand(units, target)
    if source_root != target_root:
        return None
    return source_factor / target_factor


def _greedy_resolution(units: dict, text: str):
    """How the parser reads an identifier without underscores.

    Exact base-unit match first, then the longest base-unit suffix whose
    head splits into a greedy longest-first prefix chain.
    """
    if text in units:
        return ((), text)
    ordered = sorted(PREFIXES, key=lambda s: (-len(s), s))
    for base in sorted((b for b in units if text.endswith(b) and b != text), key=lambda s: (-len(s), s)):
        rest, chain = text[: -len(base)], []
        while rest:
            head = next((p for p in ordered if rest.startswith(p)), None)
            if head is None:
                break
            chain.append(head)
            rest = rest[len(head):]
        else:
            return (tuple(chain), base)
    return None


def spell(units: dict, prefix: str, symbol: str) -> str:
    """Canonical spelling: compact `kWb` when it reads back, else `G_g_n`."""
    if not prefix:
        return symbol
    compact = prefix + symbol
    if "_" not in compact and _greedy_resolution(units, compact) == ((prefix,), symbol):
        return compact
    return f"{prefix}_{symbol}"


def render(units: dict, factors) -> str:
    parts = []
    for prefix, symbol, exponent in factors:
        text = spell(units, prefix, symbol)
        parts.append(text if exponent == 1 else f"{text}^{exponent}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# Random expressions

# The traffic mix below is assumed: the repository holds no usage data.
# Each choice and its reason is listed in bench/README.md.
NOT_CONVERTIBLE_SHARE = 0.15  # pairs built so that they must not convert
_COMMON_PREFIXES = ("", "", "", "k", "m", "µ", "M", "G", "c", "n", "da", "h", "ki")
_EXPONENTS = (1, 1, 1, 1, 2, -1, -1, -2)


def _pick_prefix(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return rng.choice(sorted(PREFIXES))
    return _nfkc(rng.choice(_COMMON_PREFIXES))


def _random_factors(rng: random.Random, units: dict, count: int):
    symbols = sorted(units)
    return [(_pick_prefix(rng), rng.choice(symbols), rng.choice(_EXPONENTS)) for _ in range(count)]


def _root_classes(units: dict) -> dict:
    classes: dict = {}
    for symbol, (_, root) in units.items():
        classes.setdefault(tuple(sorted(root.items())), []).append(symbol)
    return classes


def _reexpress(rng: random.Random, units: dict, factors):
    """Another expression with the same root: new prefixes, siblings, expansions."""
    classes = _root_classes(units)
    out = []
    for _, symbol, exponent in factors:
        roll = rng.random()
        root = units[symbol][1]
        if roll < 0.35 and root:
            out.extend((_pick_prefix(rng), base, z * exponent) for base, z in sorted(root.items()))
        elif roll < 0.7:
            siblings = classes[tuple(sorted(root.items()))]
            out.append((_pick_prefix(rng), rng.choice(siblings), exponent))
        else:
            out.append((_pick_prefix(rng), symbol, exponent))
    rng.shuffle(out)
    return out


def _query_pair(rng: random.Random, units: dict):
    """A source and target; with NOT_CONVERTIBLE_SHARE odds the target gets
    an extra factor so that the pair must not convert."""
    convertible = rng.random() >= NOT_CONVERTIBLE_SHARE
    source = _random_factors(rng, units, rng.choice((1, 1, 2, 2, 3)))
    target = _reexpress(rng, units, source)
    if not convertible:
        extra = rng.choice(sorted(s for s, (_, root) in units.items() if root))
        target.append((_pick_prefix(rng), extra, rng.choice((1, -1))))
    return source, target


def convert_pool(seed: int, size: int = 4096) -> list[dict]:
    """Query pool for the library workload over si+uk.

    Each entry holds the two unit texts and the expected factor as
    [numerator, denominator], or None for a pair that must not convert.
    The first entries are the si+uk anchors.
    """
    rng = random.Random(f"convert_mix/{seed}")
    units = units_for(("si", "uk"))
    pool = [
        {"source": s, "target": t, "expected": [f.numerator, f.denominator]}
        for (s, t), (f, registries) in ANCHORS.items()
        if registries == ("si", "uk")
    ]
    while len(pool) < size:
        source, target = _query_pair(rng, units)
        factor = expected_factor(units, source, target)
        pool.append(
            {
                "source": render(units, source),
                "target": render(units, target),
                "expected": None if factor is None else [factor.numerator, factor.denominator],
            }
        )
    return pool


# ---------------------------------------------------------------------------
# CLI queries

CLI_BLOCK = ("convert",) * 6 + ("norm", "eval", "dim", "explain")


def _parse_product(text: str) -> dict:
    """Read printer output such as `g*m*s^-2` or `1` into a dict."""
    out: dict = {}
    if text == "1":
        return out
    for part in text.split("*"):
        symbol, _, exponent = part.partition("^")
        out[_nfkc(symbol)] = int(exponent) if exponent else 1
    return out


def cli_queries(seed: int, count: int = 400) -> list[dict]:
    """Command lines for the cold-CLI workload, each with its expectation.

    The first query is the si+uk anchor `lb*g_n` -> `N`; the rest come in
    shuffled blocks of CLI_BLOCK so every seed has the same command mix.
    Each query draws si or si+uk as its registries.
    """
    rng = random.Random(f"cli_oneshot/{seed}")
    anchor, _ = ANCHORS[("lb*g_n", "N")]
    queries = [{
        "argv": ["convert", "lb*g_n", "N", "--registry", "si", "--registry", "uk", "--format", "structured"],
        "expect": {"exit": 0, "ratio_num": anchor.numerator, "ratio_den": anchor.denominator},
    }]
    while len(queries) < count:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for command in block:
            registries = ("si", "uk") if rng.random() < 0.5 else ("si",)
            units = units_for(registries)
            if command == "convert":
                source, target = _query_pair(rng, units)
                factor = expected_factor(units, source, target)
                args = [render(units, source), render(units, target)]
                expect = {"exit": 1} if factor is None else {
                    "exit": 0, "ratio_num": factor.numerator, "ratio_den": factor.denominator
                }
            else:
                factors = _random_factors(rng, units, rng.choice((1, 2, 3)))
                args = [render(units, factors)]
                expect = _cli_expectation(command, units, factors)
            argv = [command, *args]
            for name in registries:
                argv += ["--registry", name]
            queries.append({"argv": argv + ["--format", "structured"], "expect": expect})
    return queries[:count]


def _cli_expectation(command: str, units: dict, factors) -> dict:
    prefix_word: dict = {}
    bare_root: dict = {}
    prefix_value = Fraction(1)
    for prefix, symbol, exponent in factors:
        if prefix:
            _merge(prefix_word, {prefix: 1}, exponent)
            prefix_value *= PREFIXES[prefix] ** exponent
        _merge(bare_root, {symbol: 1}, exponent)
    factor, root = expand(units, factors)
    if command == "norm":
        return {"exit": 0, "prefix": prefix_word, "root": bare_root}
    if command == "eval":
        return {"exit": 0, "factor": [prefix_value.numerator, prefix_value.denominator], "root": bare_root}
    if command == "dim":
        dimension: dict = {}
        for base, z in root.items():
            _merge(dimension, {BASE_DIMENSION[base]: 1}, z)
        return {"exit": 0, "dimension": dimension}
    return {"exit": 0, "fixpoint": [factor.numerator, factor.denominator], "root": root}


def check_cli(expect: dict, code: int, stdout: str) -> bool:
    """Compare one CLI result against its expectation."""
    if code != expect["exit"]:
        return False
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    if "ratio_num" in expect:
        return (payload.get("ratio_num"), payload.get("ratio_den")) == (expect["ratio_num"], expect["ratio_den"])
    if "prefix" in expect:
        return _parse_product(payload["prefix"]) == expect["prefix"] and _parse_product(payload["root"]) == expect["root"]
    if "factor" in expect:
        return [payload["factor_num"], payload["factor_den"]] == expect["factor"] and _parse_product(payload["root"]) == expect["root"]
    if "dimension" in expect:
        return _parse_product(payload["dimension"]) == expect["dimension"]
    if "fixpoint" in expect:
        factor_text, _, root_text = payload["fixpoint"][1:-1].partition(", ")
        factor = Fraction(factor_text)
        return [factor.numerator, factor.denominator] == expect["fixpoint"] and _parse_product(root_text) == expect["root"]
    return payload.get("convertible") is False


# ---------------------------------------------------------------------------
# Cyclic registries

# (units, rules on the cycle, extra rules feeding into it, prefix in a rule)
CYCLE_SHAPES = (
    (2, 2, 0, False),
    (2, 2, 0, True),
    (3, 2, 1, False),
    (2, 2, 0, False),
    (3, 3, 0, False),
    (4, 2, 1, False),
)
CYCLE_PREFIX = ("k", Fraction(1000))


def _small_ratio(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def cycle_case(rng: random.Random, shape, consistent: bool) -> dict:
    """A one-dimension registry whose rules contain one cycle.

    The ratio product around the cycle, prefix values included, is 1
    exactly when `consistent`; otherwise it is off by a factor in
    {2, 3, 3/2, 5/4, 1/2, 2/3}.
    """
    unit_count, cycle_length, feeders, prefixed = shape
    names = rng.sample(["ft", "yd", "ch", "fur", "rd", "li", "ell", "pace"], unit_count)
    cycle = names[:cycle_length]
    rules = []
    product = Fraction(1)
    for index, base in enumerate(cycle):
        target = cycle[(index + 1) % cycle_length]
        ratio = _small_ratio(rng)
        prefix = ""
        if prefixed and index == 0:
            prefix, value = CYCLE_PREFIX
            product *= value
        if index == cycle_length - 1:
            ratio = 1 / product
            if not consistent:
                ratio *= rng.choice((Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 4), Fraction(1, 2), Fraction(2, 3)))
        product *= ratio
        rules.append((base, ratio, prefix + target))
    for base in names[cycle_length:cycle_length + feeders]:
        rules.append((base, _small_ratio(rng), rng.choice(cycle)))
    lines = ["[dimensions]", "L", ""]
    if prefixed:
        lines += ["[prefixes]", f"{CYCLE_PREFIX[0]} {CYCLE_PREFIX[1]}", ""]
    lines += ["[units]", *(f"{name} L" for name in names), "", "[rules]"]
    lines += [f"{base} {ratio.numerator}/{ratio.denominator} {target}" for base, ratio, target in rules]
    return {"registry": "\n".join(lines) + "\n", "consistent": consistent}


def cycle_blocks(seed: int, blocks: int = 200) -> list[list[dict]]:
    """Blocks of cases: every shape once consistent and once not, shuffled.

    The very first case is always the first shape, consistent, so the
    first answer (which setup_s waits for) costs the same for every seed.
    """
    rng = random.Random(f"classify_cycles/{seed}")
    out = []
    for index in range(blocks):
        block = [cycle_case(rng, shape, flag) for shape in CYCLE_SHAPES for flag in (True, False)]
        head, tail = (block[:1], block[1:]) if index == 0 else ([], block)
        rng.shuffle(tail)
        out.append(head + tail)
    return out


def check_convert(expected, answer: dict) -> bool:
    """Compare one library answer ({"factor": [n, d] or None, "decimal":
    [text, exact]}) with the expected [numerator, denominator] or None.

    The decimal must be within half a unit of the 15th place of the
    factor, and flagged exact only when the factor has at most 15 places.
    """
    if expected is None or answer["factor"] is None:
        return expected is None and answer["factor"] is None
    want = Fraction(*expected)
    if Fraction(*answer["factor"]) != want:
        return False
    text, exact = answer["decimal"]
    return abs(Fraction(text) - want) <= Fraction(1, 2 * 10**15) and exact == ((want * 10**15).denominator == 1)


def check_verdict(consistent: bool, verdict: str) -> bool:
    """A verdict is wrong only when it contradicts the construction."""
    if verdict == "unknown":
        return True
    return verdict == ("guaranteed" if consistent else "witness_found")


def inputs_digest(inputs) -> str:
    """SHA-256 of the generated inputs, as canonical JSON."""
    text = json.dumps(inputs, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
