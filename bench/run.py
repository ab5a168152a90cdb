"""ccsym benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload {symbols,torsion,reciprocity,cli_batch}
                         --seed N --seconds S --trace {0,1} [--quick]

Run from the root of a source checkout (the package is taken from `src/`).
With `--trace 0` it prints the end-to-end metrics, measured with tracing
off; with `--trace 1` the per-layer metrics, from a traced worker, an
untraced worker of the same seed and the micro-probes.  Every op is checked
against an oracle, and the sha256 of the canonical outputs of the first
rounds must match between the traced and untraced workers and between runs
of one seed in one checkout.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from proc import (BENCH, OUT, SRC, WORKLOADS, LineReader, calibrate,
                  cli_ready, finish_cli, spawn, spawn_cli, stop)

# (name, unit, better, bound); mirrored in BENCHMARK.json.  Times of ops
# are given in runs of the calibration loop: on this class of shared host
# the raw wall-clock rates move by a quarter between runs minutes apart,
# while these ratios repeat within a few percent (see bench/README.md).
END_TO_END = (
    ("ops_per_calib", "count", "higher", 0.25),
    ("latency_p50_calib", "calib", "lower", 0.25),
    ("latency_tail_calib", "calib", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)
# Printed on text lines beside the end-to-end metrics, not gated.
WALL_CLOCK = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
)

_SCALARS = ("F5", "F9", "F5e2", "F3_8")
# (name, unit, better); mirrored in BENCHMARK.json.
PER_LAYER = (
    *((f"rings.mul_ns.{r}", "ns", "lower") for r in _SCALARS),
    *((f"rings.inv_ns.{r}", "ns", "lower") for r in _SCALARS),
    ("rings.embed_us", "us", "lower"),
    ("rings.relative_norm_us", "us", "lower"),
    ("rings.relative_norm.calls", "1/op", "lower"),
    ("laurent.mul_us", "us", "lower"),
    ("laurent.laurent_inv_ms", "ms", "lower"),
    ("laurent.laurent_inv.calls", "1/op", "lower"),
    ("laurent.unit_decompose_ms.shallow", "ms", "lower"),
    ("laurent.unit_decompose_ms.deep", "ms", "lower"),
    ("laurent.pole_depth_exponent", "ratio", "lower"),
    ("poly.factor_ms", "ms", "lower"),
    ("poly.roots_in_ms.first", "ms", "lower"),
    ("poly.roots_in_ms.repeat", "ms", "lower"),
    ("poly.roots_in.calls", "1/op", "lower"),
    ("poly.place_degree_growth", "ratio", "lower"),
    ("geometry.support_places_ms", "ms", "lower"),
    ("geometry.local_expand_ms", "ms", "lower"),
    ("geometry.flag_expand_ms", "ms", "lower"),
    ("geometry.places_per_op", "1/op", "lower"),
    ("geometry.place_degree_max", "count", "higher"),
    ("symbols.tame_symbol_ms", "ms", "lower"),
    ("symbols.cc_symbol_ms", "ms", "lower"),
    ("symbols.higher_symbol_ms", "ms", "lower"),
    ("reciprocity.weil_check_ms", "ms", "lower"),
    ("reciprocity.cc_check_ms", "ms", "lower"),
    ("reciprocity.parshin_check_ms", "ms", "lower"),
    ("toeplitz.joint_torsion_ms", "ms", "lower"),
    ("toeplitz.mat_inv_ms", "ms", "lower"),
    ("toeplitz.mat_det_ms", "ms", "lower"),
    ("toeplitz.mat_mul_ms", "ms", "lower"),
    ("toeplitz.windows_per_op", "1/op", "lower"),
    ("parser.parse_ring_us", "us", "lower"),
    ("parser.parse_expression_us", "us", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.line_overhead_ms", "ms", "lower"),
    ("cli.error_lines", "1/line", "higher"),
    ("host.calib_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

SETUP_PROBES = 9
# `setup_s` is given in seconds on a host where the calibration loop takes
# CALIB_REF_S: each set-up probe's time is divided by the calibration loop
# time measured around it, like the op latencies.
CALIB_REF_S = 0.02
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def run_worker(argv, deadline) -> dict:
    """Run bench/worker.py to its JSON summary line."""
    proc = spawn([str(BENCH / "worker.py"), *argv], group=True)
    try:
        reader = LineReader(proc)
        while True:
            line = reader.readline(deadline)
            if line.startswith("{"):
                break
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (EOFError, TimeoutError, OSError) as exc:
        raise BenchError(f"worker {' '.join(argv)}: {exc}") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(line)


def setup_seconds(workload, seed, deadline) -> float:
    """Process spawn to ready: to the `ready` line of a set-up-only worker,
    or to the first reply of a `sym batch` child."""
    start = time.monotonic()
    if workload == "cli_batch":
        proc = spawn_cli(group=True)
        try:
            cli_ready(proc, LineReader(proc), deadline)
            elapsed = time.monotonic() - start
            finish_cli(proc, deadline)
        finally:
            stop(proc)
        return elapsed
    proc = spawn([str(BENCH / "worker.py"), "--workload", workload,
                  "--seed", str(seed), "--setup-only"], group=True)
    try:
        if LineReader(proc).readline(deadline) != "ready":
            raise BenchError("set-up probe did not report ready")
        elapsed = time.monotonic() - start
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}")
    return elapsed


def setup_samples(workload, seed, count, deadline):
    """(raw seconds, seconds scaled to CALIB_REF_S) of `count` set-up probes.
    The probes and the calibration loop around each run pinned to one CPU:
    the two CPUs of a shared host can run at different speeds at one time,
    so a calibration on the other CPU would not describe the probe."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        out = []
        for _ in range(count):
            before = calibrate()
            elapsed = setup_seconds(workload, seed, deadline)
            after = calibrate()
            out.append((elapsed, elapsed * CALIB_REF_S / ((before + after) / 2)))
        return out
    finally:
        os.sched_setaffinity(0, saved)


def digest_mismatches(workload, seed, digests) -> int:
    """Count digests that differ from the first one of this run or from the
    one stored for this workload and seed by an earlier run here."""
    path = OUT / "digests.json"
    OUT.mkdir(exist_ok=True)
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        stored = {}
    key = f"{workload}:{seed}"
    reference = stored.setdefault(key, digests[0])
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(stored, fh, indent=0, sort_keys=True)
    os.replace(tmp, path)
    return sum(d != reference for d in digests)


def end_to_end(args, seconds, deadline):
    quick = ["--quick"] if args.quick else []
    probes = 1 if args.quick else SETUP_PROBES
    setup = setup_samples(args.workload, args.seed, probes, deadline)
    raw = [r for r, _ in setup]
    res = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(seconds)] + quick, deadline)
    metrics = {name: res[name] for name in
               ("ops_per_calib", "latency_p50_calib", "latency_tail_calib")}
    metrics["setup_s"] = statistics.median(s for _, s in setup)
    metrics["peak_rss_mb"] = res["rss_mb"]
    lines = [f"metric {name} {res[name]:.6g} {unit}" for name, unit in WALL_CLOCK]
    lines += [f"note the tail is p{res['tail_percentile']:g} of {res['ops']} ops",
              f"note host.calib_ms {res['calib_ms']:.3f} ms",
              f"note setup wall clock median {statistics.median(raw):.4f} s,"
              f" samples {' '.join(f'{s:.3f}' for s in raw)}"]
    return metrics, [res], lines


def per_layer(args, seconds, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(seconds / 2)] + (["--quick"] if args.quick else [])
    plain = run_worker(common + ["--probes"], deadline)
    traced = run_worker(common + ["--traced"], deadline)
    metrics = dict(traced["layers"])
    metrics.update(plain["probes"])
    # the cli layer runs on cli_batch only; elsewhere it reports 0.0
    for name in ("startup_ms", "line_overhead_ms", "error_lines"):
        metrics["cli." + name] = plain.get("cli_" + name, 0.0)
    metrics["host.calib_ms"] = plain["calib_ms"]
    metrics["trace.overhead_ratio"] = \
        traced["ops_per_calib"] / plain["ops_per_calib"]
    runs = [plain, traced]
    lines = [f"note untraced {plain['ops']} ops, traced {traced['ops']} ops"]
    return metrics, runs, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny run: one second, one set-up probe")
    args = ap.parse_args(argv)
    if not (SRC / "ccsym" / "__init__.py").is_file():
        print(f"bench: no ccsym package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    seconds = min(args.seconds, 1.0) if args.quick else args.seconds
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, runs, lines = measure(args, seconds, deadline)
    except (BenchError, OSError, EOFError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    mismatches = digest_mismatches(args.workload, args.seed,
                                   [r["digest"] for r in runs])
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs) + mismatches
    table = PER_LAYER if args.trace else END_TO_END
    units = {row[0]: row[1] for row in table}
    missing = set(units) - set(metrics)
    if missing:
        print(f"bench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(f"metric failed_ratio {failed / attempted:.6g} ratio")
    for line in lines:
        print(line)
    print(f"digest {args.workload} seed {args.seed} {runs[0]['digest']}"
          + (" MISMATCH" if mismatches else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
