"""How the interpreter work of a CLI command grows with the size of its input.

Each family is a function of a size n that returns registry text and the
CLI arguments to run over it. The work of one run is the number of
bytecodes executed, counted with `sys.settrace` as
`scripts/step_count.py` counts them, so it does not depend on the host's
speed or load. Each family runs at n, 2n and 4n. The work added from 2n
to 4n over the work added from n to 2n is about 2 for a linear family
and 4 for a quadratic one; a fixed cost, such as building the parser,
cancels out. Each ratio must stay under its growth class's bound.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

from unical.cli import main
from support import chain_registry_text, ring_registry_text, unit_symbols

ROOT = Path(__file__).resolve().parents[1]
count_steps = runpy.run_path(str(ROOT / "scripts" / "step_count.py"))["count_steps"]

LINEAR = 2.3
QUADRATIC = 4.6


def depth_family(n):
    """`depth` over a chain of n rules."""
    return chain_registry_text(n)[0], ["depth"]


def product_registry_text(n):
    """A registry of n distinct units of one dimension, and the text of their product."""
    names = unit_symbols(n)
    return "[dimensions]\nD\n\n[units]\n" + "".join(f"{name} D\n" for name in names), "*".join(names)


def census_family(n):
    """`census` of a product of n distinct units, over si: each slot's table holds at most 60*n+1 sums."""
    text, product = product_registry_text(n)
    return text, ["census", product, "--registry", "si"]


def convert_chain_family(n):
    """`convert` from the first unit of a chain of n rules to the last."""
    text, first, last = chain_registry_text(n)
    return text, ["convert", first, last]


def convert_product_family(n):
    """`convert` of a product of n distinct units to itself, over si."""
    text, product = product_registry_text(n)
    return text, ["convert", product, product, "--registry", "si"]


def ring_family(n):
    """`classify` over a ring of n rules of one dimension: one cycle, solved with a unit pivot per rule."""
    return ring_registry_text(n), ["classify"]


def bytecodes(family, n, path):
    """Bytecodes executed by one CLI run of the family at size n, which must exit 0."""
    text, argv = family(n)
    path.write_text(text, encoding="utf-8")
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        steps, _ = count_steps([lambda: codes.append(main([*argv, "--registry", str(path)]))])
    assert codes == [0]
    return steps


@pytest.mark.parametrize(
    "family, n, bound",
    [
        (depth_family, 200, LINEAR),
        (census_family, 4, QUADRATIC),
        (ring_family, 200, LINEAR),
        (convert_chain_family, 200, LINEAR),
        (convert_product_family, 50, LINEAR),
    ],
    ids=["depth", "census", "ring", "convert-chain", "convert-product"],
)
def test_work_grows_within_its_class(tmp_path, family, n, bound):
    small, middle, large = (bytecodes(family, size, tmp_path / "family.reg") for size in (n, 2 * n, 4 * n))
    assert middle > small
    assert (large - middle) / (middle - small) < bound
