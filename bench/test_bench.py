"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from procs import LineWorker, run_child  # noqa: E402

# SHA-256 of each generator's output for seed 1. A change here changes
# the benchmark's inputs, and with them every baseline.
PINNED_DIGESTS = {
    "convert_mix": "ee65634d36f807b963486947b1e1864105fe3b3924a2987501a54f1e1c2cb729",
    "cli_oneshot": "fd53ad5b600b48fbc0a2022f2e7343a2741d532f7bf91f807f0539a7218b0c3d",
    "classify_cycles": "081d170446a6b40b1ab9d905792cfdd57fd6cc9d09231c1b2df0285ffa5986b4",
}

DIGEST_SCRIPT = """
import sys, json
sys.path.insert(0, sys.argv[1])
import gen
seed = int(sys.argv[2])
print(json.dumps({
    "convert_mix": gen.inputs_digest(gen.convert_pool(seed)),
    "cli_oneshot": gen.inputs_digest(gen.cli_queries(seed)),
    "classify_cycles": gen.inputs_digest(gen.cycle_blocks(seed)),
}))
"""


def _digests(seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT, str(BENCH), str(seed)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_generators_are_deterministic_across_processes():
    first = _digests(1, "1")
    assert first == _digests(1, "2") == PINNED_DIGESTS
    other = _digests(2, "1")
    assert all(other[name] != first[name] for name in first)


# The anchors as factor lists: (prefix, unit, exponent).
ANCHOR_FACTORS = {
    ("lb*g_n", "N"): ([("", "lb", 1), ("", "g_n", 1)], [("", "N", 1)]),
    ("W/V", "A"): ([("", "W", 1), ("", "V", -1)], [("", "A", 1)]),
    ("kW*h", "MJ"): ([("k", "W", 1), ("", "h", 1)], [("M", "J", 1)]),
}


def test_oracle_reproduces_anchor_table():
    assert set(ANCHOR_FACTORS) == set(gen.ANCHORS)
    for key, (source, target) in ANCHOR_FACTORS.items():
        factor, registries = gen.ANCHORS[key]
        assert gen.expected_factor(gen.units_for(registries), source, target) == factor, key


def test_program_reproduces_anchor_table():
    from unical import bundled_registry, convert, load_registry, parse_unit

    texts = {"si": bundled_registry("si"), "uk": bundled_registry("uk"), "hour": gen.HOUR_REGISTRY}
    for (source, target), (factor, registries) in gen.ANCHORS.items():
        system, rules = load_registry(*(texts[name] for name in registries))
        assert convert(system, rules, parse_unit(system, source), parse_unit(system, target)) == factor


def test_oracle_agrees_with_program_on_generated_pairs():
    from unical import bundled_registry, convert, load_registry, parse_unit

    system, rules = load_registry(bundled_registry("si"), bundled_registry("uk"))
    pool = gen.convert_pool(5, size=300)
    assert any(q["expected"] is None for q in pool) and any("_" in q["source"] + q["target"] for q in pool)
    for query in pool:
        got = convert(system, rules, parse_unit(system, query["source"]), parse_unit(system, query["target"]))
        want = None if query["expected"] is None else Fraction(*query["expected"])
        assert got == want, query


def test_checks_reject_wrong_answers():
    expect = {"exit": 0, "ratio_num": 18, "ratio_den": 5}
    assert gen.check_cli(expect, 0, json.dumps({"ratio_num": 18, "ratio_den": 5}))
    assert not gen.check_cli(expect, 0, json.dumps({"ratio_num": 18, "ratio_den": 7}))
    assert not gen.check_cli(expect, 2, "")
    assert gen.check_verdict(True, "unknown") and gen.check_verdict(False, "unknown")
    assert gen.check_verdict(True, "guaranteed") and gen.check_verdict(False, "witness_found")
    assert not gen.check_verdict(True, "witness_found") and not gen.check_verdict(False, "guaranteed")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_case_past_its_limit_fails_and_leaves_no_child():
    block = gen.cycle_blocks(3, blocks=1)[0]
    worker = LineWorker([sys.executable, run.WORKER, "classify"])
    try:
        worker.start()
        pid = worker.pid
        out = run.Measurement(run.LIBRARY_REFERENCE_S)
        run.classify_cases(worker, block[:1], out, limit_s=0.0001)
        assert (out.failed, len(out.latencies)) == (1, 1)
        assert worker.pid is None and not _alive(pid)
        run.classify_cases(worker, block[1:3], out, limit_s=run.CASE_LIMIT_S)
        assert (out.failed, len(out.latencies)) == (1, 3)
    finally:
        worker.stop()
    assert worker.pid is None


def test_child_peak_rss_leaves_out_the_parents_memory():
    ballast = bytearray(48 * 1024 * 1024)  # touched, so it is resident in this process
    ballast[::4096] = b"x" * len(ballast[::4096])
    done = run_child([sys.executable, "-c", "import worker; print(worker.peak_rss_kb())"], timeout=60)
    assert done.code == 0, done.stderr
    assert 0 < int(done.stdout) < 40 * 1024


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_metric_the_run_prints():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in config["workloads"]] == list(run.MEASURE)


@pytest.mark.parametrize("workload", list(run.MEASURE))
def test_short_run_prints_every_end_to_end_metric(workload):
    done = _run("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_library_query_runs_one_analyze_and_twelve_passes():
    done = _run("--workload", "convert_mix", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["convert.analyze.per_query"]["value"] == 1
    assert metrics["convert.rwr_eval.per_query"]["value"] == 12


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "convert_mix", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
