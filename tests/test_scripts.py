import hashlib
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

from unical import bundled_registry, classify, load_registry

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
SI, SI_RULES = load_registry(bundled_registry("si"))


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
