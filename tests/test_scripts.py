import hashlib
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from unical import analyze, bundled_registry, classify, defining_conversion, em_mul, em_pow, load_registry
from unical.cli import main as cli_main
from support import bare, chain_registry_text, dimensionless_system

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
SI, SI_RULES = load_registry(bundled_registry("si"))
transitive_dependencies = runpy.run_path(str(SCRIPTS / "depth_report.py"))["transitive_dependencies"]


def test_depth_report_on_si(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["depth_report.py", "--registry", "si"])
    runpy.run_path(str(SCRIPTS / "depth_report.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "pass bound for any conversion: 6"
    assert any(line.startswith("T ") and "depth 6" in line for line in lines)


def test_depth_report_on_a_chain_of_a_thousand_rules(capsys, monkeypatch, tmp_path):
    text, first, _ = chain_registry_text(1000)
    registry = tmp_path / "chain.reg"
    registry.write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["depth_report.py", "--registry", str(registry)])
    runpy.run_path(str(SCRIPTS / "depth_report.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "pass bound for any conversion: 999"
    assert lines[-2].startswith(f"{first}  depth 999  depends on: ")


def test_depth_report_reports_a_bad_registry_as_the_cli_does(capsys, monkeypatch, tmp_path):
    prose = tmp_path / "prose.md"
    prose.write_text("# unical\n\nExact calculus for units of measure.\n", encoding="utf-8")
    not_utf8 = tmp_path / "f.reg"
    not_utf8.write_bytes(b"\xff\xfe")
    for path, message in (
        (prose, "line 3: content before any section header"),
        (not_utf8, f"registry {str(not_utf8)!r} is not UTF-8: invalid start byte at byte offset 0"),
    ):
        monkeypatch.setattr(sys, "argv", ["depth_report.py", "--registry", str(path)])
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(SCRIPTS / "depth_report.py"), run_name="__main__")
        captured = capsys.readouterr()
        assert exited.value.code == 2 and not captured.out
        assert captured.err == f"error: {message}\n"
        assert cli_main(["classify", "--registry", str(path)]) == 2
        assert capsys.readouterr().err == captured.err


def test_prefix_census_default_run(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["prefix_census.py"])
    runpy.run_path(str(SCRIPTS / "prefix_census.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert "matching spellings: 44" in lines
    assert "within |exponent| <= 24: 39" in lines


def test_prefix_census_reports_bad_input_as_the_cli_does(capsys, monkeypatch, tmp_path):
    missing = tmp_path / "missing.reg"
    prose = tmp_path / "prose.md"
    prose.write_text("# unical\n\nExact calculus for units of measure.\n", encoding="utf-8")
    for argv, message in (
        (
            ["--registry", str(missing)],
            f"registry {str(missing)!r} is neither a readable file nor one of the bundled names (si, uk)",
        ),
        (["--registry", str(prose)], "line 3: content before any section header"),
        (["--unit", "k("], "unknown unit identifier 'k' (at position 0)"),
    ):
        monkeypatch.setattr(sys, "argv", ["prefix_census.py", *argv])
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(SCRIPTS / "prefix_census.py"), run_name="__main__")
        captured = capsys.readouterr()
        assert exited.value.code == 2 and not captured.out
        assert captured.err == f"error: {message}\n"


def test_prefix_census_reports_a_rule_cycle_as_the_cli_does(capsys, monkeypatch, tmp_path):
    registry = tmp_path / "cyclic.reg"
    registry.write_text("[dimensions]\nD\n[units]\na D\nb D\n[rules]\na 2 b\nb 3 a\n", encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["prefix_census.py", "--registry", str(registry), "--unit", "a"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(SCRIPTS / "prefix_census.py"), run_name="__main__")
    captured = capsys.readouterr()
    assert exited.value.code == 3 and not captured.out
    assert captured.err == "error: rules are not well-defining; dependency cycle: a > b > a\n"
    assert cli_main(["convert", "a", "b", "--registry", str(registry)]) == 3
    assert capsys.readouterr().err == captured.err


def test_prefix_census_reads_a_registry_file(capsys, monkeypatch, tmp_path):
    registry = tmp_path / "litre.reg"
    registry.write_text("[units]\nL L^3\n[rules]\nL 1 dm^3\n", encoding="utf-8")
    argv = ["prefix_census.py", "--registry", "si", "--registry", str(registry), "--unit", "L"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / "prefix_census.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "target: L = (1/1000, m^3)" and "matching spellings: 1" in lines


def test_transitive_dependencies_are_transitive():
    report = analyze(SI, SI_RULES)
    edges = transitive_dependencies(SI_RULES, report.depth)
    assert {"g", "m", "s", "A"} <= edges["V"]
    assert edges["rad"] == frozenset()
    assert "V" not in edges["W"]


def test_transitive_dependencies_ignore_cancelled_replacement_symbols():
    system = dimensionless_system(["x", "y"])
    cancelled = em_mul(bare("y"), em_pow(bare("y"), -1))
    rules = defining_conversion(system, {"x": (Fraction(2), cancelled)})
    edges = transitive_dependencies(rules, analyze(system, rules).depth)
    assert edges["x"] == frozenset()


def test_benchmark_hooks_still_resolve():
    traced = runpy.run_path(str(ROOT / "bench" / "spans.py"))["TRACED"]
    for module, attribute, _ in traced:
        assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)
    # The benchmark's classify worker passes these keywords.
    assert classify(SI, SI_RULES, max_steps=3, max_word=5).consistency == "guaranteed"


def test_outcome_digest_prints_the_same_digest_twice():
    command = [sys.executable, str(SCRIPTS / "outcome_digest.py"), "--pool-size", "200", "--random", "300"]
    # Two processes, each with its own string-hash seed.
    runs = [
        subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    assert runs[0].stdout == runs[1].stdout and not runs[0].stderr
    assert re.fullmatch(r"outcomes: [1-9][0-9]*\nsha256: [0-9a-f]{64}\n", runs[0].stdout)


def test_outcome_digest_dumps_the_lines_it_hashes(tmp_path):
    dump = tmp_path / "outcomes.txt"
    command = [sys.executable, str(SCRIPTS / "outcome_digest.py"), "--pool-size", "20", "--random", "20"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    plain, dumped = (
        subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True, env=env)
        for argv in (command, [*command, "--dump", str(dump)])
    )
    assert plain.stdout == dumped.stdout
    lines = dump.read_bytes().splitlines(keepends=True)
    digest = hashlib.sha256(b"".join(lines)).hexdigest()
    assert dumped.stdout == f"outcomes: {len(lines)}\nsha256: {digest}\n"


def test_step_count_prints_one_json_line_of_counts_per_case():
    command = [sys.executable, str(SCRIPTS / "step_count.py"), "--cases", "5"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True, env=env)
    assert not run.stderr and run.stdout.count("\n") == 1
    counts = json.loads(run.stdout)
    assert list(counts) == ["convert_mix", "classify_cycles"]
    for workload in counts.values():
        assert workload["cases"] == 5
        assert workload["bytecodes_per_case"] > workload["calls_per_case"] > 0
