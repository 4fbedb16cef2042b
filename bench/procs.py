"""Child processes with deadlines.

A child past its deadline is killed and reaped before the call returns,
so no process outlives the call that started it. Peak memory is not
taken from wait4 here: Linux counts the parent's memory into a child's
ru_maxrss, so children report their own (see worker.peak_rss_kb).
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKER_START_LIMIT_S = 60.0  # a worker must print its ready line within this


def child_env() -> dict:
    """Environment for children: the checkout's sources, then the benchmark's, first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class ChildResult:
    started: float  # time.monotonic() just before the spawn
    code: int
    stdout: str
    stderr: str
    seconds: float
    timed_out: bool


def _reap(pid: int, grace=None) -> int:
    """Reap a child and return its exit code; with a `grace` in seconds,
    kill it once that has passed."""
    if grace is not None:
        deadline = time.perf_counter() + grace
        while True:
            reaped, status = os.waitpid(pid, os.WNOHANG)
            if reaped:
                return os.waitstatus_to_exitcode(status)
            if time.perf_counter() >= deadline:
                break
            time.sleep(0.005)
        os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def run_child(argv: list[str], timeout: float, stdin: str = "") -> ChildResult:
    """Run one child to completion or to its deadline; time it from spawn to reap."""
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=child_env(),
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = drained = False
    try:
        try:
            if stdin:
                proc.stdin.write(stdin.encode("utf-8"))
            proc.stdin.close()
        except BrokenPipeError:
            pass
        with selectors.DefaultSelector() as selector:
            for stream in chunks:
                selector.register(stream, selectors.EVENT_READ)
            while selector.get_map():
                remaining = start + timeout - time.monotonic()
                events = selector.select(max(remaining, 0)) if remaining > 0 else []
                if not events:
                    timed_out = True
                    break
                for key, _ in events:
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        selector.unregister(key.fileobj)
            drained = not timed_out
    finally:
        # Both pipes at end of file means the child is exiting: wait for it.
        code = _reap(proc.pid, grace=None if drained else 0.0)
        proc.returncode = code
        proc.stdout.close()
        proc.stderr.close()
    seconds = time.monotonic() - start
    return ChildResult(
        start, code, b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
        b"".join(chunks[proc.stderr]).decode("utf-8", "replace"), seconds, timed_out,
    )


class LineWorker:
    """A long-lived child answering one JSON line per JSON request line.

    `ask` waits at most `timeout` seconds for the answer; past that the
    child is killed and reaped, and `ask` returns None. The next `ask`
    starts a fresh child.
    """

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.proc = None
        self.ready = None  # the ready line of the latest child
        self._buffer = b""

    def start(self) -> None:
        """Start the child and wait for its ready line."""
        self.proc = subprocess.Popen(
            self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=child_env(),
        )
        self._buffer = b""
        self.ready = self._read_line(WORKER_START_LIMIT_S)
        if self.ready is None:
            raise RuntimeError(f"worker did not start: {self.argv}")

    def _read_line(self, timeout: float):
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._buffer:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    self.stop(kill=True)
                    return None
                data = os.read(fd, 65536)
                if not data:
                    self.stop(kill=True)
                    return None
                self._buffer += data
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    @property
    def pid(self):
        return None if self.proc is None else self.proc.pid

    def ask(self, request: dict, timeout: float):
        """Send one request; returns (answer or None, round-trip seconds)."""
        if self.proc is None:
            self.start()
        start = time.perf_counter()
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode("utf-8"))
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.stop(kill=True)
            return None, time.perf_counter() - start
        answer = self._read_line(timeout)
        return answer, time.perf_counter() - start

    def stop(self, kill: bool = False) -> None:
        """End the child (closing its input, or killing it) and reap it."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        proc.returncode = _reap(proc.pid, grace=0.0 if kill else 5.0)
        proc.stdout.close()

    def __enter__(self) -> "LineWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.stop(kill=exc[0] is not None)
