"""unical benchmark: one workload, one seed, one measurement.

    python3 bench/run.py --workload convert_mix --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop with one client; see bench/README.md):
  convert_mix      library parse_unit + convert + ratio_to_decimal over si+uk
  cli_oneshot      one fresh CLI process (`--format structured`) per query
  classify_cycles  classify on tiny cyclic registries, one worker child with a
                   per-case time limit

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries per-layer metrics from a traced run, plus the
tracing overhead against an untraced run of the same length. The line
before it holds raw values, probe times, sample counts and the inputs'
hash. Every answer is checked against the generator's expectations.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import random
import statistics
import sys
import time

from procs import BENCH, SRC, LineWorker, run_child
import gen
from probe import LIBRARY_REFERENCE_S, START_REFERENCE_S, start_probe
from worker import CLI_CHILD, PEAK_MARKER, TRACE_MARKER

WORKER = str(BENCH / "worker.py")
SETUP_SAMPLES = 15
QUERY_LIMIT_S = 1.0  # a library query slower than this counts as failed
# Library queries per request to the worker. A worker that waits between
# short batches runs the first queries after each wait several times
# slower on a VM, so batches are long: about half a second of work.
CONVERT_BATCH = 256
CONVERT_BATCH_LIMIT_S = 60.0  # a batch with no answer by then fails whole
CLI_QUERY_LIMIT_S = 30.0
CASE_LIMIT_S = 5.0
WORKER_SLACK_S = 90.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_share": "share",
}

PER_LAYER_UNITS = {
    "abelian.ExponentMap.per_query": "count",
    "model.evaluate.per_query": "count",
    "model.evaluate.self_ms": "ms",
    "convert.analyze.per_query": "count",
    "convert.analyze.self_ms": "ms",
    "convert.rwr_eval.per_query": "count",
    "convert.rwr_eval.self_ms": "ms",
    "convert.convert.self_ms": "ms",
    "convert.classify.self_ms": "ms",
    "convert.explore_closure.self_ms": "ms",
    "convert.closure.triples": "count",
    "convert.closure.truncated_share": "share",
    "registry.parse_document.self_ms": "ms",
    "registry.build_system.self_ms": "ms",
    "numeric.ratio_parse.calls": "count",
    "registry.parse_unit.per_query": "count",
    "registry.parse_unit.self_ms": "ms",
    "registry.print.self_ms": "ms",
    "numeric.ratio_to_decimal.self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Measurement:
    """What one pass over a workload produced.

    `probes[i]` is the host-speed probe time that `latencies[i]` is
    scaled by; `reference_s` is that probe's reference time.
    """

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failed = 0
        self.failures: list = []
        self.decided = 0
        self.peak_rss_kb = 0
        self.summaries: list[dict] = []  # trace summaries from the children
        self.cli_times: list[tuple[float, float, float]] = []  # interpreter, import, main
        self.extra: dict = {}

    def fail(self, what) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def scaled(self) -> list[float]:
        return [t * self.reference_s / p for t, p in zip(self.latencies, self.probes)]


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _worker(mode: str, trace: bool) -> list[str]:
    return _python(WORKER, mode, *(["--trace"] if trace else []))


# ---------------------------------------------------------------------------
# Workloads


def ask_cases(worker: LineWorker, cases, out: Measurement, limit_s: float, request, judge) -> None:
    """Send the cases to the worker as one batch and judge each answer.

    `request(case)` is what the worker gets; `judge(case, answer)` is True
    for a right, definite answer, None for a right but undecided one and
    False for a wrong one. Each case is timed, and probed, inside the
    worker. A batch with no answer within `limit_s` fails all its cases,
    each counting its share of the round trip at the last probe seen.
    """
    reply, round_trip = worker.ask({"batch": [request(case) for case in cases]}, limit_s)
    if reply is None:
        for case in cases:
            out.latencies.append(round_trip / len(cases))
            out.probes.append(out.probes[-1] if out.probes else out.reference_s)
            out.fail({"case": case, "answer": None, "seconds": round_trip})
        return
    for case, answer in zip(cases, reply["answers"]):
        out.latencies.append(answer["seconds"])
        out.probes.append(answer["probe"])
        verdict = False if "error" in answer else judge(case, answer)
        if verdict is False:
            out.fail({"case": case, "answer": answer})
        elif verdict:
            out.decided += 1


def _convert_request(query: dict) -> dict:
    return {"source": query["source"], "target": query["target"]}


def _judge_convert(query: dict, answer: dict) -> bool:
    return answer["seconds"] <= QUERY_LIMIT_S and gen.check_convert(query["expected"], answer)


def measure_convert_mix(seed: int, seconds: float, trace: bool) -> Measurement:
    """Library queries drawn with replacement from the seeded pool, sent in batches.

    A batch keeps the worker busy from query to query, as a caller's own
    loop would; the worker holds only the batch, not the pool and its
    expected answers.
    """
    pool = gen.convert_pool(seed)
    draw = random.Random(f"convert_mix/draw/{seed}")
    out = Measurement(LIBRARY_REFERENCE_S)
    drawn: list[int] = []
    worker = LineWorker(_worker("convert", trace))
    try:
        worker.start()
        out.extra["load_s"] = worker.ready["load_s"]
        out.extra["harness_rss_kb"] = worker.ready["harness_rss_kb"]
        deadline = time.perf_counter() + seconds
        while not drawn or time.perf_counter() < deadline:
            batch = [draw.randrange(len(pool)) for _ in range(CONVERT_BATCH)]
            drawn += batch
            ask_cases(worker, [pool[i] for i in batch], out, CONVERT_BATCH_LIMIT_S, _convert_request, _judge_convert)
        _finish(worker, out)
    finally:
        worker.stop()
    out.extra.update({
        "repeat_share": 1 - len(set(drawn)) / len(drawn),
        "not_convertible_share": sum(pool[i]["expected"] is None for i in drawn) / len(drawn),
        "inputs_sha256": gen.inputs_digest(pool),
    })
    return out


def _finish(worker: LineWorker, out: Measurement) -> None:
    """Take the worker's peak RSS and trace summary."""
    end, _ = worker.ask({"end": True}, WORKER_SLACK_S)
    if end is None:
        raise RuntimeError("worker gave no peak RSS at the end of the run")
    out.peak_rss_kb = end["peak_rss_kb"]
    if end["trace"] is not None:
        out.summaries.append(end["trace"])


def _marked(stderr: str, marker: str):
    """The text after `marker` on the last stderr line that starts with it."""
    lines = [line for line in stderr.splitlines() if line.startswith(marker)]
    return lines[-1][len(marker):] if lines else None


def measure_cli_oneshot(seed: int, seconds: float, trace: bool) -> Measurement:
    """One CLI process per query, each timed against the bare starts on either side."""
    queries = gen.cli_queries(seed)
    out = Measurement(START_REFERENCE_S)
    out.extra = {"inputs_sha256": gen.inputs_digest(queries)}
    command = _python("-c", CLI_CHILD, str(int(trace)))
    deadline = time.perf_counter() + seconds
    before = start_probe()
    for index in itertools.count():
        if index and time.perf_counter() >= deadline:
            break
        query = queries[index % len(queries)]
        result = run_child(command + query["argv"], timeout=CLI_QUERY_LIMIT_S)
        after = start_probe()
        out.latencies.append(result.seconds)
        out.probes.append((before + after) / 2)
        before = after
        peak = _marked(result.stderr, PEAK_MARKER)
        if peak is not None:
            out.peak_rss_kb = max(out.peak_rss_kb, int(peak))
        if result.timed_out or peak is None or not gen.check_cli(query["expect"], result.code, result.stdout):
            out.fail({"argv": query["argv"], "exit": result.code, "stdout": result.stdout[-300:],
                      "stderr": result.stderr[-300:], "timed_out": result.timed_out})
        else:
            out.decided += 1
        if trace:
            line = _marked(result.stderr, TRACE_MARKER)
            if line is not None:
                summary = json.loads(line)
                out.summaries.append(summary)
                out.cli_times.append((summary["started"] - result.started, summary["import_s"], summary["main_s"]))
    run = [queries[i % len(queries)] for i in range(len(out.latencies))]
    out.extra["not_convertible_share"] = sum(q["expect"]["exit"] == 1 for q in run) / len(run)
    return out


def _classify_request(case: dict) -> dict:
    return {"registry": case["registry"]}


def _judge_verdict(case: dict, answer: dict):
    if not gen.check_verdict(case["consistent"], answer["consistency"]) or answer["well_defining"]:
        return False
    return None if answer["consistency"] == "unknown" else True


def classify_cases(worker: LineWorker, cases, out: Measurement, limit_s: float) -> None:
    """One case per batch, so that the limit holds for each case."""
    for case in cases:
        ask_cases(worker, [case], out, limit_s, _classify_request, _judge_verdict)


def measure_classify_cycles(seed: int, seconds: float, trace: bool) -> Measurement:
    blocks = gen.cycle_blocks(seed)
    out = Measurement(LIBRARY_REFERENCE_S)
    out.extra = {"inputs_sha256": gen.inputs_digest(blocks)}
    worker = LineWorker(_worker("classify", trace))
    try:
        worker.start()
        out.extra["harness_rss_kb"] = worker.ready["harness_rss_kb"]
        deadline = time.perf_counter() + seconds
        # Whole blocks only: each holds every shape once consistent and
        # once not, so the mix is the same in every run.
        for block in itertools.cycle(blocks):
            if out.latencies and time.perf_counter() >= deadline:
                break
            classify_cases(worker, block, out, CASE_LIMIT_S)
        _finish(worker, out)
    finally:
        worker.stop()
    return out


MEASURE = {
    "convert_mix": measure_convert_mix,
    "cli_oneshot": measure_cli_oneshot,
    "classify_cycles": measure_classify_cycles,
}


def setup_args(workload: str, seed: int) -> list[str]:
    """`worker.py setup` arguments for the workload's first query."""
    if workload == "convert_mix":
        first = gen.convert_pool(seed, size=1)[0]
        return ["library", first["source"], first["target"]]
    if workload == "cli_oneshot":
        return ["cli", *gen.cli_queries(seed, count=1)[0]["argv"]]
    return ["classify", gen.cycle_blocks(seed, blocks=1)[0][0]["registry"]]


def measure_setup(workload: str, seed: int) -> Measurement:
    """Import-to-first-answer seconds in fresh processes, each with its own probe."""
    argv = _python(WORKER, "setup", *setup_args(workload, seed))
    out = Measurement(LIBRARY_REFERENCE_S)
    for _ in range(SETUP_SAMPLES):
        result = run_child(argv, timeout=WORKER_SLACK_S)
        if result.code != 0:
            raise RuntimeError(f"setup child failed ({result.code}): {result.stderr.strip()[-2000:]}")
        sample = json.loads(result.stdout)
        out.latencies.append(sample["seconds"])
        out.probes.append(sample["probe"])
        out.extra["preloaded_modules"] = sample["preloaded"]
    return out


# ---------------------------------------------------------------------------
# Metrics


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Measurement, dict]:
    setup = measure_setup(workload, seed)
    run = MEASURE[workload](seed, seconds, trace=False)
    count = len(run.latencies)
    scaled = run.scaled()
    values = {
        # Median time over median probe: within a run the host drifts far
        # less than a single setup's probe varies.
        "setup_s": statistics.median(setup.latencies) * setup.reference_s / statistics.median(setup.probes),
        "throughput_qps": count / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1000,
        "latency_p90_ms": _p90(scaled) * 1000,
        "peak_rss_mb": run.peak_rss_kb / 1024,
        "decided_share": run.decided / count,
    }
    raw_p90 = _p90(run.latencies)
    detail = {
        "raw": {
            "setup_s": statistics.median(setup.latencies),
            "throughput_qps": count / sum(run.latencies),
            "latency_p50_ms": statistics.median(run.latencies) * 1000,
            "latency_p90_ms": raw_p90 * 1000,
        },
        "samples": {"queries": count, "beyond_p90": sum(1 for t in run.latencies if t > raw_p90),
                    "setup": len(setup.latencies)},
        "probe": {"kind": "bare interpreter start" if workload == "cli_oneshot" else "library Fraction/dict loop",
                  "reference_s": run.reference_s, "median_s": statistics.median(run.probes)},
        "setup_probe": {"kind": "library Fraction/dict loop", "reference_s": setup.reference_s,
                        "median_s": statistics.median(setup.probes)},
        "setup_samples_s": setup.latencies,
        "setup_preloaded_modules": setup.extra["preloaded_modules"],
        "failed_share": run.failed / count,
    }
    return values, run, detail


def _merge_summaries(summaries: list[dict]) -> dict:
    layers: dict = {}
    for summary in summaries:
        for name, entry in summary["layers"].items():
            total = layers.setdefault(name, [0, 0.0, 0, 0.0])
            for i, value in enumerate(entry):
                total[i] += value
    return {
        "layers": layers,
        "exponent_maps": sum(s["exponent_maps"] for s in summaries),
        "closures": [c for s in summaries for c in s["closures"]],
    }


def per_layer(traced: Measurement, untraced: Measurement) -> dict:
    """Per-layer figures from a traced pass.

    `per_query` counts and `self_ms` times are per query, over the spans
    a query caused; the registry-load figures are per registry load;
    `cli.*` times are per CLI process.
    """
    merged = _merge_summaries(traced.summaries)
    queries = len(traced.latencies)

    def total(name: str, field: int) -> float:
        """[calls, self s, calls in queries, self s in queries] of a layer."""
        return merged["layers"].get(name, (0, 0.0, 0, 0.0))[field]

    loads = total("registry.build_system", 0) or 1

    def per_query(name: str) -> float:
        return total(name, 2) / queries

    def self_ms(name: str) -> float:
        return total(name, 3) * 1000 / queries

    def load_ms(name: str) -> float:
        return total(name, 1) * 1000 / loads

    closures = merged["closures"]
    cli = traced.cli_times or [(0.0, 0.0, 0.0)]
    values = {
        "abelian.ExponentMap.per_query": merged["exponent_maps"] / queries,
        "model.evaluate.per_query": per_query("model.evaluate"),
        "model.evaluate.self_ms": self_ms("model.evaluate"),
        "convert.analyze.per_query": per_query("convert.analyze"),
        "convert.analyze.self_ms": self_ms("convert.analyze"),
        "convert.rwr_eval.per_query": per_query("convert.rwr_eval"),
        "convert.rwr_eval.self_ms": self_ms("convert.rwr_eval"),
        "convert.convert.self_ms": self_ms("convert.convert"),
        "convert.classify.self_ms": self_ms("convert.classify"),
        "convert.explore_closure.self_ms": self_ms("convert.explore_closure"),
        "convert.closure.triples": statistics.fmean(c[0] for c in closures) if closures else 0.0,
        "convert.closure.truncated_share": statistics.fmean(c[1] for c in closures) if closures else 0.0,
        "registry.parse_document.self_ms": load_ms("registry.parse_document"),
        "registry.build_system.self_ms": load_ms("registry.build_system"),
        "numeric.ratio_parse.calls": total("numeric.ratio_parse", 0) / loads,
        "registry.parse_unit.per_query": per_query("registry.parse_unit"),
        "registry.parse_unit.self_ms": self_ms("registry.parse_unit"),
        "registry.print.self_ms": self_ms("registry.print"),
        "numeric.ratio_to_decimal.self_ms": self_ms("numeric.ratio_to_decimal"),
        "cli.interpreter_ms": statistics.fmean(t[0] for t in cli) * 1000,
        "cli.import_ms": statistics.fmean(t[1] for t in cli) * 1000,
        "cli.main_ms": statistics.fmean(t[2] for t in cli) * 1000,
        "trace.overhead_ms": (statistics.median(traced.scaled()) - statistics.median(untraced.scaled())) * 1000,
    }
    return values


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(MEASURE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "unical" / "__init__.py").is_file():
        print(f"error: no unical sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # Warm bytecode caches, as an installed package has them.
    compileall.compile_dir(str(SRC / "unical"), quiet=1)

    if args.trace:
        untraced = MEASURE[args.workload](args.seed, args.seconds / 2, trace=False)
        traced = MEASURE[args.workload](args.seed, args.seconds / 2, trace=True)
        values = per_layer(traced, untraced)
        units = PER_LAYER_UNITS
        attempted = len(untraced.latencies) + len(traced.latencies)
        failed = untraced.failed + traced.failed
        detail = {"untraced_queries": len(untraced.latencies), "traced_queries": len(traced.latencies),
                  "failures": untraced.failures + traced.failures, **traced.extra}
    else:
        values, run, detail = end_to_end(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
        attempted, failed = len(run.latencies), run.failed
        detail.update(run.extra)
        detail["failures"] = run.failures
    detail.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
