"""Child-process side of the benchmark. Only these processes import unical.

    worker.py convert [--trace]
        Loads si+uk, then answers queries {"source": text, "target": text}
        with the factor and its decimal.
    worker.py classify [--trace]
        Answers queries {"registry": text} with the classify verdict.
    worker.py setup library SOURCE TARGET | setup cli ARGS... | setup classify REGISTRY
        Prints the seconds from importing unical to the first answer, in
        this fresh process, and a probe run after it.
    python3 -c CLI_CHILD 0|1 ARGS...   (with this directory on the path)
        Runs unical's CLI main on ARGS, traced after a 1. Its peak RSS,
        and the trace summary when traced, go to stderr after markers.

In the two serving modes the first line out is a ready line. Each line
in, {"batch": [query, ...]}, gets one line out, {"answers": [...]}, with
each query's own time and the probes run next to it; {"end": true} asks
for the peak RSS and the trace summary. Nothing but sys and time is
imported at the top, so that `setup` and the CLI child start their
clocks with no module loaded that unical would otherwise load itself.
"""

import sys
import time

STARTED = time.monotonic()

# How a CLI query is started: like `python -m unical.cli ARGS`, and then
# reporting the process's peak RSS.
CLI_CHILD = "import sys, worker; sys.exit(worker.cli(sys.argv[2:], trace=sys.argv[1] == '1'))"
# Prefixes of the stderr lines where a CLI child leaves its figures.
PEAK_MARKER = "bench-peak-rss-kb: "
TRACE_MARKER = "bench-trace: "

PROBE_ROUNDS = 5  # library probe rounds around each classify case
SETUP_PROBE_ROUNDS = 20  # after each setup: a probe much shorter than setup itself only adds noise
# Closure-search budget for classify. The defaults (4 rounds, words of
# 12 letters) take 1.5-75 s per tiny cyclic registry, too few cases per
# run for a p90; these bounds keep a case near 10-80 ms and still find
# the witness of every inconsistent shape the generator makes.
CLASSIFY_STEPS = 3
CLASSIFY_WORD = 5


def peak_rss_kb() -> int:
    """This process's peak RSS since its program started (VmHWM).

    getrusage's ru_maxrss cannot give it: Linux counts the memory the
    process held before exec, which is its parent's, into ru_maxrss.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _convert_answerer(unical):
    """Load si+uk once; the answer function runs one library query."""
    load_start = time.perf_counter()
    system, rules = unical.load_registry(unical.bundled_registry("si"), unical.bundled_registry("uk"))
    load_s = time.perf_counter() - load_start
    parse_unit, convert, ratio_to_decimal = unical.parse_unit, unical.convert, unical.ratio_to_decimal

    def answer(request: dict) -> dict:
        factor = convert(system, rules, parse_unit(system, request["source"]), parse_unit(system, request["target"]))
        if factor is None:
            return {"factor": None}
        return {"factor": factor, "decimal": ratio_to_decimal(factor)}

    return answer, {"load_s": load_s}, 1


def _classify_answerer(unical):
    load_registry, classify = unical.load_registry, unical.classify

    def answer(request: dict) -> dict:
        system, rules = load_registry(request["registry"])
        report = classify(system, rules, max_steps=CLASSIFY_STEPS, max_word=CLASSIFY_WORD)
        witness = report.witness
        return {
            "consistency": report.consistency,
            "well_defining": report.is_well_defining,
            "witness_ratio": None if witness is None else str(witness.ratio),
        }

    return answer, {}, PROBE_ROUNDS


def serve(mode: str, trace: bool) -> None:
    """Answer batches of queries from stdin, each with its own time and probe.

    Probes run in this process, before and after each query, so they see
    the core the query ran on. A batch starts with a fresh probe, because
    the process was waiting for it. The ready line reports this process's
    peak RSS before unical was imported: the harness's own share of
    `peak_rss_mb`.
    """
    import json

    from probe import library_probe

    harness_rss_kb = peak_rss_kb()
    import unical

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    answerer = _convert_answerer if mode == "convert" else _classify_answerer
    answer, ready, rounds = answerer(unical)
    clock = time.perf_counter
    print(json.dumps({"ready": True, "harness_rss_kb": harness_rss_kb, **ready}), flush=True)
    query = 0
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("end"):
            summary = tracer.summary() if tracer else None
            print(json.dumps({"peak_rss_kb": peak_rss_kb(), "trace": summary}), flush=True)
            continue
        answers = []
        before = library_probe(rounds)
        for case in request["batch"]:
            if tracer:
                tracer.query_id = query
            query += 1
            start = clock()
            try:
                result = answer(case)
            except Exception as exc:  # reported to the parent as a failed query
                result = {"error": repr(exc)}
            seconds = clock() - start
            after = library_probe(rounds)
            result["seconds"] = seconds
            result["probe"] = (before + after) / 2
            before = after
            # Kept as text, which the garbage collector does not track, so
            # a long batch adds nothing to its passes while queries run.
            answers.append(json.dumps(result, default=_plain))
        print('{"answers": [' + ",".join(answers) + "]}", flush=True)


def _plain(value):
    """JSON form of a Fraction: [numerator, denominator]."""
    return [value.numerator, value.denominator]


def setup(kind: str, args: list) -> None:
    """Seconds from importing unical to the first answer, in this fresh process.

    Only sys, time and io (which every interpreter loads at start) are
    loaded by this script when the clock starts; what the interpreter's
    own start loaded is listed in the output. The probe runs after the
    answer, in this process, so that it loads nothing before the clock.
    """
    import io

    preloaded = sorted(sys.modules)
    start = time.perf_counter()
    if kind == "cli":
        import unical.cli

        sys.stdout = io.StringIO()
        try:
            unical.cli.main(args)
        finally:
            sys.stdout = sys.__stdout__
    else:
        import unical

        if kind == "classify":
            system, rules = unical.load_registry(args[0])
            unical.classify(system, rules, max_steps=CLASSIFY_STEPS, max_word=CLASSIFY_WORD)
        else:
            system, rules = unical.load_registry(unical.bundled_registry("si"), unical.bundled_registry("uk"))
            factor = unical.convert(system, rules, unical.parse_unit(system, args[0]), unical.parse_unit(system, args[1]))
            if factor is not None:
                unical.ratio_to_decimal(factor)
    seconds = time.perf_counter() - start
    import json

    from probe import library_probe

    library_probe()  # warm-up: the interpreter specialises the loop's bytecode
    print(json.dumps({"seconds": seconds, "probe": library_probe(SETUP_PROBE_ROUNDS), "preloaded": preloaded}))


def cli(argv: list, trace: bool) -> int:
    """Run unical's CLI main on `argv`, as `python -m unical.cli` would."""
    import_start = time.perf_counter()
    import unical.cli

    import_s = time.perf_counter() - import_start
    if not trace:
        try:
            return unical.cli.main(argv)
        finally:
            print(PEAK_MARKER + str(peak_rss_kb()), file=sys.stderr)
    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.query_id = 0
    tracer.install()
    main_start = time.perf_counter()
    try:
        return unical.cli.main(argv)
    finally:
        main_s = time.perf_counter() - main_start
        tracer.uninstall()
        summary = tracer.summary()
        summary["started"] = STARTED
        summary["import_s"] = import_s
        summary["main_s"] = main_s
        print(PEAK_MARKER + str(peak_rss_kb()), file=sys.stderr)
        print(TRACE_MARKER + json.dumps(summary), file=sys.stderr)


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(args[0], args[1:])
        return 0
    if mode in ("convert", "classify") and args in ([], ["--trace"]):
        serve(mode, bool(args))
        return 0
    print(f"usage: see {__file__}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
