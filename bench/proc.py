"""Process plumbing shared by the orchestrator and the worker; imports no
ccsym code, so the orchestrator can run where the package is missing."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("symbols", "torsion", "reciprocity", "cli_batch")

# The first line every `sym batch` child answers; its reply marks the child
# as set up.
READY_LINE = "expand --ring F5 1+t"


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the kind ccsym's scalar layer
    runs: small-integer arithmetic, tuple building and dict stores."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(100000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = (acc, i)
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"      # `sym batch` flushes every reply
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, group=False) -> subprocess.Popen:
    """Start a Python child with stdin and stdout piped.  With `group` it
    leads a new process group, which `stop` kills as a whole; the children
    it starts itself stay in that group."""
    return subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            bufsize=0, start_new_session=group)


def spawn_cli(traced_spans=None, group=False) -> subprocess.Popen:
    if traced_spans is None:
        return spawn(["-m", "ccsym.cli", "batch"], group)
    return spawn([str(BENCH / "traced_cli.py"), str(traced_spans)], group)


def stop(proc: subprocess.Popen):
    """Kill the child (its whole group if it leads one) and reap it."""
    if proc.poll() is None:
        try:
            if os.getpgid(proc.pid) == proc.pid:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
        except ProcessLookupError:
            pass
    proc.wait()


class LineReader:
    """Reads lines from a child's stdout, giving up at a deadline."""

    def __init__(self, proc: subprocess.Popen):
        self.fd = proc.stdout.fileno()
        self.buf = b""

    def readline(self, deadline: float) -> str:
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("child did not answer in time")
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    raise EOFError("child closed its output")
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()


def cli_ready(proc, reader, deadline) -> str:
    proc.stdin.write((READY_LINE + "\n").encode())
    return reader.readline(deadline)


def finish_cli(proc, deadline) -> float:
    """Close the child's input, reap it and return its peak RSS in MiB."""
    proc.stdin.close()
    while time.monotonic() < deadline:
        pid, _, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = 0
            return usage.ru_maxrss / 1024.0
        time.sleep(0.01)
    stop(proc)
    raise TimeoutError("sym batch did not exit")
