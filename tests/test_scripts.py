import runpy
import sys
from pathlib import Path

from support import chain_registry_text

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
