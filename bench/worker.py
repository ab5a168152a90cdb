"""One benchmark process: set up a workload, run it in a closed loop with one
client, check every op, and print one JSON summary as the last line.

    python3 bench/worker.py --workload W --seed N --seconds S [--traced]
    python3 bench/worker.py --workload W --seed N --setup-only

Set-up (import, rings, generating and parsing the first rounds) ends with
the line `ready`; `--setup-only` (symbols, torsion, reciprocity) exits
there.  A warm-up round follows, and then the timed loop runs whole rounds
until `--seconds` of wall time have passed.  Only the library calls are timed;
oracles, digests, input generation and the calibration loop run between them.
The calibration loop runs between passes of PASS_S seconds of timed work, and
op times are also counted in calibration-loop runs (see `Run`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter_ns

from proc import (OUT, SRC, WORKLOADS, LineReader, calibrate, cli_ready,
                  finish_cli, spawn_cli, stop)

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (needs ccsym on the path)
from tracing import Tracer  # noqa: E402

PASS_S = 0.25
# The tail percentile of each workload is fixed, so that runs of different
# length or speed report the same percentile; a run goes on until at least
# ten samples lie beyond it.
TAIL = {"symbols": 99.0, "torsion": 95.0, "reciprocity": 95.0,
        "cli_batch": 99.0}
LINE_TIMEOUT_S = 60.0


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Run:
    """Latencies of one timed loop, split into passes of PASS_S seconds of
    timed work.  The calibration loop runs between passes; each op is also
    counted in calibration units, against the mean of the calibrations
    before and after its pass, so that the host-speed correction follows
    the host through the run."""

    def __init__(self, tail_q, quick=False):
        self.tail_q = tail_q
        self.quick = quick
        self.latencies = []     # ns per op
        self.scaled = []        # per-op latency in calibration-loop runs
        self.busy_ns = 0
        self.scaled_busy = 0.0
        self.failed = 0
        self.calib = [calibrate()]
        self.pass_ops = []
        self.digest = hashlib.sha256()
        self.extra = {}         # workload-specific counters

    def record(self, ns):
        self.latencies.append(ns)
        self.busy_ns += ns
        self.pass_ops.append(ns)
        if sum(self.pass_ops) >= PASS_S * 1e9:
            self.end_pass()

    def end_pass(self):
        if not self.pass_ops:
            return
        self.calib.append(calibrate())
        unit_ns = (self.calib[-2] + self.calib[-1]) / 2 * 1e9
        self.scaled.extend(ns / unit_ns for ns in self.pass_ops)
        self.scaled_busy += sum(self.pass_ops) / unit_ns
        self.pass_ops = []

    def enough(self) -> bool:
        """At least ten samples lie beyond the tail percentile."""
        n = len(self.latencies)
        return self.quick or n - math.ceil(self.tail_q / 100.0 * n) >= 10

    def fail(self, what):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {what}", file=sys.stderr)

    def summary(self) -> dict:
        self.end_pass()
        lat, scaled = sorted(self.latencies), sorted(self.scaled)
        ops = len(lat)
        tail_q = self.tail_q
        return {
            "ops": ops, "failed": self.failed,
            "ops_per_s": ops / (self.busy_ns / 1e9),
            "ops_per_calib": ops / self.scaled_busy,
            "latency_p50_ms": percentile(lat, 50.0) / 1e6,
            "latency_tail_ms": percentile(lat, tail_q) / 1e6,
            "latency_p50_calib": percentile(scaled, 50.0),
            "latency_tail_calib": percentile(scaled, tail_q),
            "tail_percentile": tail_q,
            "calib_ms": statistics.median(self.calib) * 1e3,
            "digest": self.digest.hexdigest(),
            **self.extra,
        }


@contextlib.contextmanager
def untraced(tracer):
    """Oracles run with the span recorders removed, so that spans come only
    from the workload's own calls and from parsing its inputs."""
    if tracer is None:
        yield
        return
    tracer.uninstall()
    try:
        yield
    finally:
        tracer.install()


def run_library(args, stream, tracer):
    """symbols, torsion and reciprocity: ops are in-process library calls."""
    prepared = [stream.next_round() for _ in range(workloads.DIGEST_ROUNDS)]
    print("ready", flush=True)
    if args.setup_only:
        return None
    warm = workloads.Stream(args.workload, args.seed)
    warm.k = -1
    ops = warm.next_round()
    results = [op.call() for op in ops]
    with untraced(tracer):
        for op, result in zip(ops, results):
            if not op.check(result):
                raise AssertionError(f"warm-up op failed: {op.label}")
    run = Run(TAIL[args.workload], args.quick)
    places, degree_max = 0, 0
    deadline = time.monotonic() + args.seconds
    k = 0
    while (k < workloads.DIGEST_ROUNDS or time.monotonic() < deadline
           or not run.enough()):
        ops = prepared[k] if k < len(prepared) else stream.next_round()
        results = []
        for op in ops:
            if tracer is not None:
                tracer.op = len(run.latencies)
            start = perf_counter_ns()
            try:
                result = op.call()
            except Exception:
                result = traceback.format_exc()
            run.record(perf_counter_ns() - start)
            results.append(result)
        if tracer is not None:
            tracer.op = -1
        with untraced(tracer):
            for op, result in zip(ops, results):
                if isinstance(result, str) or not op.check(result):
                    run.fail(f"{op.label}: {result}")
                    continue
                factors = getattr(result, "factors", ())
                places += len(factors)
                degree_max = max([degree_max] + [f.degree for f in factors])
                if k < workloads.DIGEST_ROUNDS:
                    run.digest.update(
                        f"{op.label}\t{op.canon(result)}\n".encode())
        k += 1
    run.extra = {"places": places, "place_degree_max": degree_max}
    return run


def run_cli(args, stream, tracer, spans_path):
    """cli_batch: one `sym batch` child, fed one line at a time; each reply is
    read before the next line is sent and compared with the in-process
    library result of the same line, or with the expected error exit."""
    prepared = [stream.next_round() for _ in range(workloads.DIGEST_ROUNDS)]
    spawned = time.monotonic()
    child = spawn_cli(spans_path if tracer is not None else None)
    try:
        # client and child share one CPU, so each reply hands the CPU
        # straight back instead of waking a process on the other core
        cpu = {min(os.sched_getaffinity(0))}
        os.sched_setaffinity(0, cpu)
        os.sched_setaffinity(child.pid, cpu)
        reader = LineReader(child)
        cli_ready(child, reader, spawned + LINE_TIMEOUT_S)
        startup_ms = (time.monotonic() - spawned) * 1e3
        print("ready", flush=True)
        if tracer is not None:
            tracer.uninstall()    # the oracle below runs untraced
        run = Run(TAIL[args.workload], args.quick)
        overhead, errors = [], 0
        deadline = time.monotonic() + args.seconds
        k = 0
        while (k < workloads.DIGEST_ROUNDS or time.monotonic() < deadline
               or not run.enough()):
            lines = prepared[k] if k < len(prepared) else stream.next_round()
            for line in lines:
                start = perf_counter_ns()
                child.stdin.write((line.line + "\n").encode())
                reply = reader.readline(time.monotonic() + LINE_TIMEOUT_S)
                latency = perf_counter_ns() - start
                run.record(latency)
                ok, inproc = check_reply(line, reply)
                if not ok:
                    run.fail(f"{line.line} -> {reply}")
                if inproc is not None:
                    overhead.append(latency - inproc)
                errors += bool(line.exit)
                if k < workloads.DIGEST_ROUNDS:
                    run.digest.update(f"{line.line}\t{reply}\n".encode())
            k += 1
        rss_mb = finish_cli(child, time.monotonic() + LINE_TIMEOUT_S)
    finally:
        stop(child)
    run.extra = {"rss_mb": rss_mb, "cli_startup_ms": startup_ms,
                 "cli_line_overhead_ms": statistics.median(overhead) / 1e6,
                 "cli_error_lines": errors / len(run.latencies)}
    return run


def check_reply(line, reply):
    """(reply is right, in-process ns of the same command or None)."""
    try:
        data = json.loads(reply)
    except ValueError:
        return False, None
    if line.exit:
        return data.get("exit") == line.exit and "error" in data, None
    start = perf_counter_ns()
    try:
        result = line.call()
    except Exception:
        return False, None
    inproc = perf_counter_ns() - start
    want = line.fields(result)
    ok = "exit" not in data and all(data.get(k) == v for k, v in want.items())
    return ok, inproc


def layer_metrics(tracer: Tracer, ops: int, extra: dict) -> dict:
    """Per-layer numbers from the spans.  Per-call times are means over the
    spans of workload ops where the ops made such calls, otherwise over every
    span of that name (the parser, which runs while inputs are prepared);
    0.0 for a layer the workload never calls.  Per-op counts use workload
    ops only."""
    every = tracer.self_times()
    in_ops = tracer.self_times(ops_only=True)

    def per_call(name, scale):
        calls, ns = in_ops.get(name) or every.get(name, (0, 0))
        return ns / calls / scale if calls else 0.0

    def per_op(*names):
        return sum(in_ops.get(n, (0, 0))[0] for n in names) / max(ops, 1)

    ms, us = 1e6, 1e3
    out = {
        "rings.embed_us": per_call("rings.embed", us),
        "rings.relative_norm_us": per_call("rings.relative_norm", us),
        "rings.relative_norm.calls": per_op("rings.relative_norm"),
        "laurent.laurent_inv_ms": per_call("laurent.laurent_inv", ms),
        "laurent.laurent_inv.calls": per_op("laurent.laurent_inv"),
        "laurent.unit_decompose_ms.shallow":
            per_call("laurent.unit_decompose.shallow", ms),
        "laurent.unit_decompose_ms.deep":
            per_call("laurent.unit_decompose.deep", ms),
        "poly.factor_ms": per_call("poly.factor", ms),
        "poly.roots_in_ms.first": per_call("poly.roots_in.first", ms),
        "poly.roots_in_ms.repeat": per_call("poly.roots_in.repeat", ms),
        "poly.roots_in.calls": per_op("poly.roots_in.first",
                                      "poly.roots_in.repeat"),
        "geometry.support_places_ms": per_call("geometry.support_places", ms),
        "geometry.local_expand_ms": per_call("geometry.local_expand", ms),
        "geometry.flag_expand_ms": per_call("geometry.flag_expand", ms),
        "toeplitz.windows_per_op": per_op("toeplitz.mat_det"),
        "parser.parse_ring_us": per_call("parser.parse_ring", us),
        "parser.parse_expression_us": per_call("parser.parse_expression", us),
    }
    for name in ("symbols.tame_symbol", "symbols.cc_symbol",
                 "symbols.higher_symbol", "reciprocity.weil_check",
                 "reciprocity.cc_check", "reciprocity.parshin_check",
                 "toeplitz.joint_torsion", "toeplitz.mat_inv",
                 "toeplitz.mat_det", "toeplitz.mat_mul"):
        out[name + "_ms"] = per_call(name, ms)
    out["geometry.places_per_op"] = extra.get("places", 0) / max(ops, 1)
    out["geometry.place_degree_max"] = extra.get("place_degree_max", 0)
    return out


def load_spans(tracer: Tracer, path):
    """Append the spans a traced `sym batch` child wrote at exit."""
    base = len(tracer.spans)
    with open(path) as fh:
        for line in fh:
            name, start, end, parent, op = json.loads(line)
            tracer.spans.append((name, start, end,
                                 parent + base if parent >= 0 else -1, op))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probes", action="store_true",
                    help="run the layer micro-probes after the loop")
    ap.add_argument("--quick", action="store_true",
                    help="stop at --seconds even with few tail samples")
    args = ap.parse_args(argv)

    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    stream = workloads.Stream(args.workload, args.seed)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    if args.workload == "cli_batch":
        OUT.mkdir(exist_ok=True)
        run = run_cli(args, stream, tracer, spans_path.with_suffix(".cli.jsonl"))
    else:
        run = run_library(args, stream, tracer)
        if run is None:
            return 0
        run.extra["rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = run.summary()
    if tracer is not None:
        tracer.uninstall()
        if args.workload == "cli_batch":
            load_spans(tracer, spans_path.with_suffix(".cli.jsonl"))
        OUT.mkdir(exist_ok=True)
        tracer.dump(spans_path)
        out["layers"] = layer_metrics(tracer, out["ops"], run.extra)
    if args.probes:
        import probes
        out["probes"] = probes.micro()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
