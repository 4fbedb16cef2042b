"""Host-speed probes, run between measurements of a workload.

A timing is reported scaled to a fixed reference probe time: measured
time x reference / mean of the probes run just before and just after
it. A host running slower or faster moves the probe and the workload
together, so the scaled figure stays put. The library probe is pure
Python over Fraction and dict, like unical's inner loops, and never
imports unical. The start probe is a bare interpreter start with the
environment a CLI child gets.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# Reference probe times (seconds): about what each probe takes on a
# 2-vCPU x86-64 VM under CPython 3.11. Only their constancy matters.
LIBRARY_REFERENCE_S = 0.0007
START_REFERENCE_S = 0.060


def library_probe(rounds: int = 1) -> float:
    """Seconds per round of a fixed Fraction/dict workload.

    One round takes about as long as a library convert query, so a probe
    between every two queries sees the host as they did.
    """
    start = time.perf_counter()
    for _ in range(rounds):
        counts: dict = {}
        total = Fraction(0)
        for i in range(1, 150):
            key = ("sym", i % 13)
            counts[key] = counts.get(key, 0) + (1 if i % 3 else -1)
            total += Fraction(i % 7 + 1, i % 11 + 1)
            tuple(sorted(counts.items()))
        if total <= 0:
            raise AssertionError("probe arithmetic broke")
    return (time.perf_counter() - start) / rounds


def start_probe() -> float:
    """Seconds for a bare interpreter start and exit."""
    # Imported here: a worker running library probes never loads subprocess.
    from procs import run_child

    result = run_child([sys.executable, "-c", "pass"], timeout=60)
    if result.code != 0:
        raise RuntimeError(f"bare interpreter start failed: {result.stderr.strip()}")
    return result.seconds
