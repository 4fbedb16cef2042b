import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_depth_report_on_si(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["depth_report.py", "--registry", "si"])
    runpy.run_path(str(SCRIPTS / "depth_report.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "pass bound for any conversion: 6"
    assert any(line.startswith("T ") and "depth 6" in line for line in lines)
