import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unical
from unical.cli import main
from unical.registry import MAX_REGISTRY_BYTES
from support import chain_registry_text, dense_cycle_registry_text

LITRE_TEXT = """\
[units]
L L^3

[rules]
L 1 dm^3
"""

CYCLIC_TEXT = """\
[dimensions]
D

[units]
a D
b D

[rules]
a 2 b
b 3 a
"""


# Each term of the first rule is one base unit, but cancelling round the
# cycle takes the second rule 10^8 times, so the witness ratio would be
# 3 * 2^(10^8).
HUGE_CYCLE_TEXT = """\
[dimensions]
D

[units]
a D
b D
c D

[rules]
a 3 b^100000000*c^-99999999
b 2 c
c 1 a
"""


# y's normal form is 2^20000 * z, past MAX_RATIO_BITS; w depends on y.
OVERSIZED_TEXT = """\
[units]
x L
y L
z L
w L^2

[rules]
x 2 z
y 1 x^20000*z^-19999
w 3 y*m
"""


@pytest.fixture
def litre_path(tmp_path):
    path = tmp_path / "litre.reg"
    path.write_text(LITRE_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def cyclic_path(tmp_path):
    path = tmp_path / "cyclic.reg"
    path.write_text(CYCLIC_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out), err


def test_convert_plain_output(capsys):
    code, out, _ = run(capsys, "convert", "lb*g_n", "N", "--registry", "si", "--registry", "uk")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ratio: 8896443230521/2000000000000"
    assert lines[1] == "decimal: 4.4482216152605"
    assert lines[2] == "exact: yes"
    assert lines[3].startswith("source: (") and lines[4].startswith("target: (")


def test_convert_structured_fields(capsys):
    code, payload, _ = run_json(capsys, "convert", "mm", "m")
    assert code == 0
    assert payload["schema"] == "unical-cli/1"
    assert payload["convertible"] is True
    assert (payload["ratio_num"], payload["ratio_den"]) == (1, 1000)
    assert payload["decimal"] == "0.001"
    assert payload["root"] == "m"


def test_convert_directions_multiply_to_one(capsys):
    _, forward, _ = run_json(capsys, "convert", "J", "kg*m^2/s^2")
    _, backward, _ = run_json(capsys, "convert", "kg*m^2/s^2", "J")
    product = Fraction(forward["ratio_num"], forward["ratio_den"]) * Fraction(
        backward["ratio_num"], backward["ratio_den"]
    )
    assert product == 1


def test_convert_reports_root_difference(capsys):
    code, out, _ = run(capsys, "convert", "m", "s")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not convertible"
    assert "source root: m" in lines[1]
    assert "target root: s" in lines[2]
    assert "difference: m*s^-1" in lines[3]


def test_parse_errors_exit_two(capsys):
    code, out, err = run(capsys, "convert", "m", "bogus")
    assert code == 2 and not out and "bogus" in err


def test_registry_errors_exit_two(capsys, tmp_path):
    broken = tmp_path / "broken.reg"
    broken.write_text("[units]\nx NOPE\n", encoding="utf-8")
    code, _, err = run(capsys, "convert", "m", "m", "--registry", str(broken))
    assert code == 2 and "line" in err
    code, _, err = run(capsys, "norm", "m", "--registry", "missing-name")
    assert code == 2 and "missing-name" in err


def test_cyclic_rules_exit_three(capsys, cyclic_path):
    code, _, err = run(capsys, "convert", "a", "b", "--registry", cyclic_path)
    assert code == 3 and "cycle" in err
    code, _, err = run(capsys, "explain", "a", "--registry", cyclic_path)
    assert code == 3


def test_parse_errors_come_before_the_cycle_check(capsys, cyclic_path):
    for argv in (("convert", "a", "zz"), ("explain", "zz")):
        code, out, err = run(capsys, *argv, "--registry", cyclic_path)
        assert code == 2 and not out and "zz" in err


def test_classify_reports_cycle_without_failing(capsys, cyclic_path):
    code, payload, _ = run_json(capsys, "classify", "--registry", cyclic_path)
    assert code == 0
    assert payload["well_defining"] is False
    assert payload["consistency"] == "witness_found"
    assert payload["cycle"] == "a > b"
    assert payload["witness"] == "1 = 6 * 1"


def test_only_convert_classify_and_explain_build_the_rules(capsys, tmp_path):
    broken = tmp_path / "bad-rule.reg"
    broken.write_text("[rules]\nm 1 bogus\n", encoding="utf-8")
    registries = ("--registry", "si", "--registry", str(broken))
    for argv in (("norm", "km"), ("eval", "km"), ("dim", "km"), ("list", "units")):
        code, out, _ = run(capsys, *argv, *registries)
        assert code == 0 and out, argv
    for argv in (("convert", "m", "m"), ("classify",), ("explain", "m")):
        code, out, err = run(capsys, *argv, *registries)
        assert code == 2 and not out and "line 2" in err, argv


def run_within_a_second(capsys, *argv):
    start = time.perf_counter()
    outcome = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    return outcome


def test_classify_decides_si_with_one_cyclic_rule(capsys, tmp_path):
    extra = tmp_path / "cyclic-second.reg"
    extra.write_text("[rules]\ns 2 Hz^-1\n", encoding="utf-8")
    code, out, _ = run_within_a_second(capsys, "classify", "--registry", "si", "--registry", str(extra))
    assert code == 0
    assert "consistency: witness_found" in out.splitlines()
    assert "witness: 1 = 2 * 1" in out.splitlines()


def test_classify_refuses_a_witness_past_the_ratio_limit(capsys, tmp_path):
    registry = tmp_path / "huge-cycle.reg"
    registry.write_text(HUGE_CYCLE_TEXT, encoding="utf-8")
    code, out, err = run_within_a_second(capsys, "classify", "--registry", str(registry))
    assert code == 2 and not out and "MAX_RATIO_BITS" in err


def test_classify_refuses_a_dense_cycle_past_the_work_limit(capsys, tmp_path):
    registry = tmp_path / "dense-cycle.reg"
    registry.write_text(dense_cycle_registry_text(800), encoding="utf-8")
    code, out, err = run_within_a_second(capsys, "classify", "--registry", str(registry))
    assert code == 2 and not out and "MAX_RELATION_WORK" in err


@pytest.mark.parametrize(
    "argv, code", [(["census", "W*A"], 0), (["depth", "--format", "structured"], 0), (["convert", "m", "s"], 1)]
)
def test_a_reader_that_closes_early_gets_no_traceback(argv, code):
    source_dir = str(Path(unical.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        result = subprocess.run(
            [sys.executable, "-m", "unical.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": source_dir},
            timeout=60,
        )
    finally:
        os.close(write)
    assert result.returncode == code and result.stderr == ""


def test_ratios_past_the_limit_exit_two(capsys):
    # The prefix value is refused before the power is taken.
    for text in ("Ym^200", "Ym^100000", "k^1000000000_m"):
        code, out, err = run_within_a_second(capsys, "eval", text)
        assert code == 2 and not out and "MAX_RATIO_BITS" in err
    code, out, err = run_within_a_second(capsys, "convert", "Ym^200", "m^200", "--format", "structured")
    assert code == 2 and not out and "MAX_RATIO_BITS" in err
    # So is a rule factor, in rewriting.
    for argv in (("convert", "lb^100000", "kg^100000"), ("explain", "lb^100000")):
        code, out, err = run_within_a_second(capsys, *argv, "--registry", "si", "--registry", "uk")
        assert code == 2 and not out and "MAX_RATIO_BITS" in err


def test_the_documented_bound_boundaries_hold(capsys):
    registries = ("--registry", "si", "--registry", "uk")
    for source, target in (("lb^538", "g^538"), ("Ym^175", "m^175")):
        code, out, _ = run_within_a_second(capsys, "convert", source, target, *registries)
        assert code == 0 and out.startswith("ratio: ")
    # One rule bounds the whole factor: 539 * 26 bits of lb's numerator,
    # 176 * 80 bits of 10^24, and 1000^1800 from the prefix and N's factor.
    refused = (
        ("lb^539", "g^539", "rewritten factor"),
        ("Ym^176", "m^176", "rewritten factor"),
        ("kkN^600", "g^600*m^600*s^-1200", "rewritten factor"),
    )
    for source, target, bound in refused:
        code, out, err = run_within_a_second(capsys, "convert", source, target, *registries)
        assert code == 2 and not out
        assert err == f"error: {bound} is too large: over MAX_RATIO_BITS = 14000 bits\n"


def test_a_conversion_past_the_ratio_limit_exits_two(capsys):
    # Each unit is within the limit, 10^4200 and 10^-4200; the quotient 10^8400
    # is not, and the CLI refuses to print it.
    code, out, err = run_within_a_second(capsys, "convert", "Ym^175", "ym^175")
    assert code == 2 and not out
    assert err == "error: ratio is too large: over MAX_RATIO_BITS = 14000 bits\n"


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
def test_a_registry_past_the_byte_limit_exits_two(capsys, tmp_path):
    over = tmp_path / "over.reg"
    over.write_bytes(b"#" * (MAX_REGISTRY_BYTES + 1))
    for path in ("/dev/zero", str(over)):
        code, out, err = run_within_a_second(capsys, "convert", "m", "m", "--registry", path)
        assert code == 2 and not out
        assert err == f"error: registry {path!r} is over MAX_REGISTRY_BYTES = {MAX_REGISTRY_BYTES} bytes\n"


def test_an_oversized_normal_form_refuses_only_the_conversions_that_reach_it(capsys, tmp_path):
    registry = tmp_path / "oversized.reg"
    registry.write_text(OVERSIZED_TEXT, encoding="utf-8")
    registries = ("--registry", "si", "--registry", str(registry))
    code, out, _ = run_within_a_second(capsys, "convert", "km", "m", *registries)
    assert code == 0 and out.splitlines()[0] == "ratio: 1000"
    for source in ("y", "w"):
        for argv in (("convert", source, "m"), ("explain", source)):
            code, out, err = run_within_a_second(capsys, *argv, *registries)
            assert code == 2 and not out and "normal form of 'y' is too large" in err
            assert "MAX_RATIO_BITS" in err
    code, out, _ = run_within_a_second(capsys, "explain", "x", *registries)
    assert code == 0 and out.splitlines()[-1] == "fixpoint: (2, z)"


def test_explain_reports_its_own_pass_past_the_ratio_limit(capsys, tmp_path):
    # x's normal form is 1 * z, but one pass raises x^3 to 2^18000 * y^3.
    registry = tmp_path / "steep.reg"
    registry.write_text("[units]\nx L\ny L\nz L\n[rules]\nx 2^6000 y\ny 2^-6000 z\n", encoding="utf-8")
    registries = ("--registry", "si", "--registry", str(registry))
    code, out, err = run_within_a_second(capsys, "explain", "x^3", *registries)
    assert code == 2 and not out
    assert err == "error: rewritten factor is too large: over MAX_RATIO_BITS = 14000 bits\n"
    code, out, _ = run_within_a_second(capsys, "convert", "x^3", "z^3", *registries)
    assert code == 0 and out.splitlines()[0] == "ratio: 1"


def test_importing_the_cli_loads_no_dataclass_machinery():
    # -S keeps site hooks out, so only what the probe imports, and what a
    # command that reads a bundled registry loads, is counted. Only
    # structured output loads `json`. A bare `import unical` loads none
    # of the CLI either.
    unwanted = {"dataclasses", "inspect", "importlib.resources"}
    source_dir = str(Path(unical.__file__).resolve().parents[1])
    for module, command, names in (
        ("unical.cli", "", unwanted | {"json"}),
        ("unical.cli", "unical.cli.main(['convert', 'km', 'm']); ", unwanted | {"json"}),
        ("unical", "", unwanted | {"unical.cli", "argparse", "json"}),
    ):
        probe = f"import sys, {module}; {command}print(sorted({names!r} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": source_dir},
            timeout=60,
            check=True,
        )
        assert result.stdout.splitlines()[-1] == "[]"
        assert ("ratio: 1000" in result.stdout) == bool(command)


def test_classify_bundled_registry(capsys):
    code, out, _ = run(capsys, "classify")
    assert code == 0
    assert "defining: yes" in out
    assert "well-defining: yes" in out
    assert "regular: no" in out
    assert "consistency: guaranteed" in out
    assert "iteration bound: 6" in out


def test_norm_output(capsys):
    code, out, _ = run(capsys, "norm", "dm^3/m^2")
    assert code == 0
    assert "prefix: d^3" in out and "root: m" in out and "normalized: (d^3, m)" in out


def test_eval_is_rule_free(capsys, litre_path):
    code, out, _ = run(capsys, "eval", "dm^3/m^2")
    assert code == 0
    assert "factor: 1/1000" in out and "root: m" in out
    code, out, _ = run(capsys, "eval", "L/m^2", "--registry", "si", "--registry", litre_path)
    assert code == 0
    assert out.splitlines()[0] == "factor: 1"
    assert "root: L*m^-2" in out


def test_dim_output(capsys):
    code, out, _ = run(capsys, "dim", "N")
    assert code == 0 and out.strip() == "dimension: L*M*T^-2"


def test_explain_traces_to_fixpoint(capsys, litre_path):
    code, payload, _ = run_json(
        capsys, "explain", "L/m^2", "--registry", "si", "--registry", litre_path
    )
    assert code == 0
    assert payload["eval"] == "(1, L*m^-2)"
    assert payload["steps"] == ["(1/1000, m)"]
    assert payload["fixpoint"] == "(1/1000, m)"


def test_explain_counts_parallel_passes(capsys):
    code, payload, _ = run_json(capsys, "explain", "W/V")
    assert code == 0
    assert len(payload["steps"]) == 4
    assert payload["fixpoint"] == "(1, A)"


def test_litre_extension_convert(capsys, litre_path):
    code, out, _ = run(
        capsys, "convert", "cL", "m^3", "--registry", "si", "--registry", litre_path
    )
    assert code == 0 and "ratio: 1/100000" in out


def test_env_var_supplies_registries(capsys, monkeypatch, litre_path):
    import os

    monkeypatch.setenv("UNICAL_REGISTRY", os.pathsep.join(["si", litre_path]))
    code, out, _ = run(capsys, "convert", "cL", "m^3")
    assert code == 0 and "ratio: 1/100000" in out
    code, _, _ = run(capsys, "convert", "cL", "m^3", "--registry", "si")
    assert code == 2  # flags override the environment, and bare si lacks L


def test_digits_flag(capsys):
    code, out, _ = run(capsys, "convert", "m", "km", "--digits", "2")
    assert code == 0 and "decimal: 0" in out and "exact: no" in out
    code, _, err = run(capsys, "convert", "m", "km", "--digits", "99")
    assert code == 2 and err


def test_no_pathological_rules_flag(capsys):
    code, payload, _ = run_json(capsys, "explain", "rad")
    assert payload["fixpoint"] == "(1, 1)"
    code, payload, _ = run_json(capsys, "explain", "rad", "--no-pathological-rules")
    assert payload["fixpoint"] == "(1, rad)"


def test_an_empty_listing_prints_nothing(capsys, tmp_path):
    empty = tmp_path / "empty.reg"
    empty.write_bytes(b"")
    assert run(capsys, "list", "units", "--registry", str(empty)) == (0, "", "")
    code, payload, _ = run_json(capsys, "list", "units", "--registry", str(empty))
    assert code == 0 and payload["entries"] == []


@pytest.mark.parametrize(
    "options, argv",
    [
        (("--registry", "si", "--registry", "uk"), ("convert", "lb", "g")),
        (("--format", "structured"), ("convert", "m", "km")),
        (("--digits", "2"), ("eval", "Mi_m/k_s")),
        (("--no-pathological-rules",), ("explain", "rad")),
    ],
)
def test_a_shared_option_reads_the_same_before_and_after_the_command(capsys, options, argv):
    after = run(capsys, *argv, *options)
    assert run(capsys, *options, *argv) == after
    assert after != run(capsys, *argv)


def test_a_shared_option_after_the_command_wins(capsys):
    assert run(capsys, "--format", "plain", "convert", "m", "km", "--format", "structured") == run(
        capsys, "convert", "m", "km", "--format", "structured"
    )
    # Registries after the command replace those before it.
    code, _, err = run(capsys, "--registry", "si", "--registry", "uk", "convert", "lb", "g", "--registry", "si")
    assert code == 2 and err == "error: unknown unit identifier 'lb' (at position 0)\n"


def test_list_commands(capsys):
    code, out, _ = run(capsys, "list", "dimensions")
    assert code == 0 and out.split() == ["I", "J", "L", "M", "N", "T", "Θ"]
    code, payload, _ = run_json(capsys, "list", "units")
    assert code == 0 and len(payload["entries"]) == 29
    assert "N L*M*T^-2" in payload["entries"]
    code, out, _ = run(capsys, "list", "prefixes")
    assert "k 1000" in out.splitlines()


def test_argparse_rejects_missing_command():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def run_exiting(capsys, *argv):
    """Run argv through main, which argparse ends by SystemExit."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


# Only these parts of argparse's pages are pinned: their layout differs between Python versions.
def test_help_lists_the_commands_in_order(capsys):
    code, out, _ = run_exiting(capsys, "--help")
    assert code == 0 and "{convert,norm,eval,dim,explain,classify,depth,census,list}" in out
    assert "--format {plain,structured}" in out


@pytest.mark.parametrize(
    "command, positionals", [("convert", "source target"), ("list", "{units,prefixes,dimensions}")]
)
def test_a_command_usage_ends_in_its_positional_arguments(capsys, command, positionals):
    code, out, _ = run_exiting(capsys, command, "--help")
    usage = " ".join(out.split("\n\n")[0].split())
    assert code == 0 and usage.startswith(f"usage: unical {command} ") and usage.endswith(positionals)


@pytest.mark.parametrize("command, missing", [("convert", "source, target"), ("norm", "unit"), ("list", "kind")])
def test_a_command_without_its_arguments_exits_two_naming_them(capsys, command, missing):
    code, out, err = run_exiting(capsys, command)
    assert code == 2 and not out and err.splitlines()[-1].endswith(f": {missing}")


@pytest.mark.parametrize(
    "text, limit",
    [
        ("(" * 400 + "m" + ")" * 400, "MAX_UNIT_NESTING"),
        ("m^" + "9" * 5000, "MAX_UNIT_EXPONENT"),
        ("km^999999999999", "MAX_UNIT_EXPONENT"),
        ("k^1000000001_m", "MAX_UNIT_EXPONENT"),
        ("k^" + "9" * 5000 + "_m", "MAX_UNIT_EXPONENT"),
    ],
    ids=["nesting", "digits", "magnitude", "explicit-magnitude", "explicit-digits"],
)
def test_expressions_past_a_limit_exit_two(capsys, tmp_path, text, limit):
    code, out, err = run_within_a_second(capsys, "dim", text)
    assert code == 2 and not out and limit in err
    registry = tmp_path / "limit.reg"
    registry.write_text(f"[units]\nx L\n[rules]\nx 1 {text}\n", encoding="utf-8")
    code, out, err = run_within_a_second(capsys, "classify", "--registry", "si", "--registry", str(registry))
    assert code == 2 and not out and "line 4" in err and limit in err


def test_a_chain_of_a_thousand_rules(capsys, tmp_path):
    text, first, last = chain_registry_text(1000)
    registry = tmp_path / "chain.reg"
    registry.write_text(text, encoding="utf-8")
    code, out, _ = run_within_a_second(capsys, "convert", first, last, "--registry", str(registry))
    assert code == 0 and out.splitlines()[0] == f"ratio: {2 ** 999}"
    code, out, _ = run_within_a_second(capsys, "classify", "--registry", str(registry))
    assert code == 0 and "iteration bound: 999" in out.splitlines()
    code, out, _ = run_within_a_second(capsys, "explain", first, "--registry", str(registry))
    assert code == 0 and out.splitlines()[-1] == f"fixpoint: ({2 ** 999}, {last})"


def test_depth_on_si(capsys):
    code, out, _ = run(capsys, "depth", "--registry", "si")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "pass bound for any conversion: 6"
    assert any(line.startswith("T ") and "depth 6" in line for line in lines)


def test_depth_on_a_chain_of_a_thousand_rules(capsys, tmp_path):
    text, first, last = chain_registry_text(1000)
    registry = tmp_path / "chain.reg"
    registry.write_text(text, encoding="utf-8")
    code, out, _ = run_within_a_second(capsys, "depth", "--registry", str(registry))
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "pass bound for any conversion: 999"
    assert lines[-2] == f"{first}  depth 999  uses: {lines[-3].split()[0]}"
    assert lines[0] == f"{last[:-1]}{chr(ord(last[-1]) - 1)}  depth 1  uses: {last}"


def test_depth_reports_a_bad_registry_as_classify_does(capsys, tmp_path):
    prose = tmp_path / "prose.md"
    prose.write_text("# unical\n\nExact calculus for units of measure.\n", encoding="utf-8")
    not_utf8 = tmp_path / "f.reg"
    not_utf8.write_bytes(b"\xff\xfe")
    for path, message in (
        (prose, "line 3: content before any section header"),
        (not_utf8, f"registry {str(not_utf8)!r} is not UTF-8: invalid start byte at byte offset 0"),
    ):
        code, out, err = run(capsys, "depth", "--registry", str(path))
        assert code == 2 and not out and err == f"error: {message}\n"
        assert run(capsys, "classify", "--registry", str(path)) == (2, "", err)


def test_depth_on_cyclic_rules_exits_three_as_explain_does(capsys, cyclic_path):
    code, out, err = run(capsys, "depth", "--registry", cyclic_path)
    assert code == 3 and not out and err == "error: rules are not well-defining; dependency cycle: a > b > a\n"
    assert run(capsys, "explain", "a", "--registry", cyclic_path) == (3, "", err)


def test_depth_structured_lists_direct_dependencies(capsys):
    code, payload, _ = run_json(capsys, "depth", "--registry", "si")
    assert code == 0 and payload["iteration_bound"] == 6
    assert payload["uses"]["V"] == ["A", "W"] and payload["depth"]["V"] == 4
    assert payload["uses"]["rad"] == []
    assert "V" not in payload["uses"]["W"]


def test_depth_ignores_cancelled_replacement_symbols(capsys, tmp_path):
    registry = tmp_path / "cancelled.reg"
    registry.write_text("[units]\nx 1\ny 1\n[rules]\nx 2 y*y^-1\n", encoding="utf-8")
    code, payload, _ = run_json(capsys, "depth", "--registry", str(registry))
    assert code == 0 and payload["uses"] == {"x": []} and payload["depth"] == {"x": 1}
    code, out, _ = run(capsys, "depth", "--registry", str(registry))
    assert out == "x  depth 1  uses: -\npass bound for any conversion: 1\n"


HECTOWATT_CENSUS = """\
target: hW = (100000, g*m^2*s^-3)
slots: g^1, m^2, s^-3
decimal prefix exponents available: 25 (incl. bare)
matching spellings: 44
within |exponent| <= 24: 39
needing the extended prefix range:
  rg*cm^2*ps^-3
  dg*Qm^2*Es^-3
  hg*qm^2*zs^-3
  Rg*cm^2*Ms^-3
  Qg*dam^2*Gs^-3
"""


def test_census_of_the_hectowatt(capsys):
    assert run(capsys, "census", "hW") == (0, HECTOWATT_CENSUS, "")


@pytest.mark.parametrize(
    "unit, matching, within",
    [("kN", 242, 166), ("J", 204, 139), ("Pa", 244, 168), ("W*A", 4166, 2411), ("Ω*cd*mol*K", 41815533, 14250775)],
)
def test_census_counts(capsys, unit, matching, within):
    code, payload, _ = run_json(capsys, "census", unit)
    assert code == 0 and (payload["matching"], payload["within_legacy"]) == (matching, within)
    assert len(payload["extended"]) == 20
    assert payload["extended_unlisted"] == matching - within - 20


def test_census_lists_twenty_spellings_then_the_rest_as_a_count(capsys):
    code, out, _ = run_within_a_second(capsys, "census", "W*A")
    lines = out.splitlines()
    assert code == 0 and lines[5:8] == ["needing the extended prefix range:", "  qA*qg*nm^2*rs^-3", "  qA*qg*m^2*zs^-3"]
    assert len(lines) == 27 and lines[-1] == "… and 1735 more"


def test_census_refuses_a_unit_past_its_table_limit(capsys):
    code, out, err = run_within_a_second(capsys, "census", "m^1000003*s^61*g^3721*A^226981*K^7")
    assert code == 2 and not out
    assert err == (
        "error: census of 'm^1000003*s^61*g^3721*A^226981*K^7' is over MAX_CENSUS_SUMS = 100000 partial sums\n"
    )


def test_census_reports_bad_input_exiting_two(capsys, tmp_path):
    missing = tmp_path / "missing.reg"
    prose = tmp_path / "prose.md"
    prose.write_text("# unical\n\nExact calculus for units of measure.\n", encoding="utf-8")
    for argv, message in (
        (
            ["hW", "--registry", str(missing)],
            f"registry {str(missing)!r} is neither a readable file nor one of the bundled names (si, uk)",
        ),
        (["hW", "--registry", str(prose)], "line 3: content before any section header"),
        (["k("], "unknown unit identifier 'k' (at position 0)"),
    ):
        assert run(capsys, "census", *argv) == (2, "", f"error: {message}\n")


def test_census_reports_a_rule_cycle_as_convert_does(capsys, cyclic_path):
    code, out, err = run(capsys, "census", "a", "--registry", cyclic_path)
    assert code == 3 and not out
    assert err == "error: rules are not well-defining; dependency cycle: a > b > a\n"
    assert run(capsys, "convert", "a", "b", "--registry", cyclic_path) == (3, "", err)


def test_census_reads_a_registry_file(capsys, litre_path):
    code, out, _ = run(capsys, "census", "L", "--registry", "si", "--registry", litre_path)
    lines = out.splitlines()
    assert code == 0 and lines[0] == "target: L = (1/1000, m^3)" and "matching spellings: 1" in lines


def test_depth_and_census_build_the_rules(capsys, tmp_path):
    broken = tmp_path / "bad-rule.reg"
    broken.write_text("[rules]\nm 1 bogus\n", encoding="utf-8")
    for argv in (("depth",), ("census", "m")):
        code, out, err = run(capsys, *argv, "--registry", "si", "--registry", str(broken))
        assert code == 2 and not out and "line 2" in err, argv


def test_a_registry_that_cannot_be_read_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "list", "units", "--registry", str(tmp_path))
    assert code == 2 and not out
    assert err == f"error: registry {str(tmp_path)!r} cannot be read: Is a directory\n"


# Each factor here is one of si's irreducible units, or over si+uk also
# a uk unit that expands to one of them, at an exponent in -3..3.
CENSUS_SYMBOLS = ["m", "g", "s", "A", "K", "mol", "cd", "km"]
CENSUS_UK_SYMBOLS = ["lb", "pt"]


def census_units(with_uk):
    symbols = CENSUS_SYMBOLS + CENSUS_UK_SYMBOLS * with_uk
    factors = st.tuples(st.sampled_from(symbols), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return st.tuples(st.just(with_uk), st.lists(factors, min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(st.booleans().flatmap(census_units))
@example(unit=(True, [("lb", 1)]))  # a factor that is no power of ten
@example(unit=(False, [("km", 1), ("m", -1)]))  # no slot, worth 10^3: nothing matches
@example(unit=(False, [("m", 1), ("m", -1)]))  # no slot, worth 1: the bare spelling
def test_census_agrees_with_a_brute_force_count(si_pair, siuk_pair, unit):
    with_uk, factors = unit
    system, rules = siuk_pair if with_uk else si_pair
    text = "*".join(f"{symbol}^{power}" for symbol, power in factors)
    target = unical.rwr_star(system, rules, unical.parse_unit(system, text))
    slots = target.root.items()
    by_exponent = {0: None}
    for symbol, value in sorted(system.base_prefixes.items()):
        for exponent in range(-30, 31):
            if exponent and value == Fraction(10) ** exponent:
                by_exponent[exponent] = symbol
    # Each slot's prefixed factor evaluated alone; a spelling is worth their product.
    evaluated = [
        {
            exponent: unical.evaluate(
                system,
                unical.em_pow(
                    unical.prefix_unit(unical.em_empty() if prefix is None else unical.em_delta(prefix), symbol), power
                ),
            ).factor
            for exponent, prefix in by_exponent.items()
        }
        for symbol, power in slots
    ]
    matches = []
    for assignment in itertools.product(sorted(by_exponent), repeat=len(slots)):
        factor = Fraction(1)
        for slot, exponent in zip(evaluated, assignment):
            factor *= slot[exponent]
        if factor == target.factor:
            matches.append(assignment)
    beyond = [match for match in matches if any(abs(exponent) > 24 for exponent in match)]
    listed = [
        "*".join(
            f"{by_exponent[exponent] or ''}{symbol}" + (f"^{power}" if power != 1 else "")
            for (symbol, power), exponent in zip(slots, assignment)
        )
        for assignment in beyond[:20]
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["census", text, "--format", "structured", "--registry", "si", *["--registry", "uk"] * with_uk])
    payload = json.loads(out.getvalue())
    assert code == 0 and payload["exponents"] == len(by_exponent) == 25
    assert payload["matching"] == len(matches) and payload["within_legacy"] == len(matches) - len(beyond)
    assert payload["extended"] == listed and payload["extended_unlisted"] == len(beyond) - len(listed)
