"""Micro-probes that time single layers through public functions.

`micro()` runs inside a worker after its timed loop.  The place-degree probe
in it needs a cold process per degree, which runs this file:

    python3 bench/probes.py place D      # prints the cold weil_check seconds
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time

from proc import BENCH, SRC, LineReader, spawn, stop

sys.path.insert(0, str(SRC))

from ccsym import parser, poly, reciprocity, symbols  # noqa: E402

# ring label in metric names -> ring spec
SCALAR_RINGS = {"F5": "F5", "F9": "F9", "F5e2": "F5[e]/e^2", "F3_8": "F6561"}
POLE_DEPTHS = (25, 50, 100, 200)
PLACE_DEGREES = (3, 4)
PLACE_TIMEOUT_S = 120.0


def _best_ns(fn, reps, rounds=5):
    """Fastest of `rounds` timings of `reps` calls, in ns per call."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter_ns()
        fn(reps)
        best = min(best, (time.perf_counter_ns() - start) / reps)
    return best


def slope(xs, ys):
    """Least-squares slope of ys on xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def micro() -> dict:
    rng = random.Random(7)
    out = {}
    for label, spec in SCALAR_RINGS.items():
        R = parser.parse_ring(spec)
        xs = [R.random_unit(rng) for _ in range(64)]
        ys = [R.random_unit(rng) for _ in range(64)]

        def mul(reps):
            for i in range(reps):
                xs[i & 63] * ys[i & 63]

        def inv(reps):
            for i in range(reps):
                xs[i & 63].inv()
        out[f"rings.mul_ns.{label}"] = _best_ns(mul, 2000)
        out[f"rings.inv_ns.{label}"] = _best_ns(inv, 500)

    A = parser.parse_ring("F5[e]/e^2")
    f = parser.parse_expression("1+2*t+e*t^2+3*t^3", A, domain="series")
    g = parser.parse_expression("2+e*t+t^2", A, domain="series")

    def series_mul(reps):
        for _ in range(reps):
            f * g
    out["laurent.mul_us"] = _best_ns(series_mul, 200) / 1e3

    g = parser.parse_expression("1-t+t^2", A, domain="series")
    times = []
    for J in POLE_DEPTHS:
        f = parser.parse_expression(f"1-e*t^-{J}", A, domain="series")
        times.append(_best_ns(lambda reps: symbols.cc_symbol(f, g), 1, 3))
    out["laurent.pole_depth_exponent"] = slope(
        [math.log(J) for J in POLE_DEPTHS], [math.log(t) for t in times])
    out["poly.place_degree_growth"] = place_degree_growth()
    return out


def place_degree_growth() -> float:
    """Cold-cost growth factor per unit of place degree over F9: exp of the
    slope of log(seconds) on degree, one fresh process per degree."""
    deadline = time.monotonic() + PLACE_TIMEOUT_S
    logs = []
    for degree in PLACE_DEGREES:
        proc = spawn([str(BENCH / "probes.py"), "place", str(degree)])
        try:
            logs.append(math.log(float(LineReader(proc).readline(deadline))))
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            stop(proc)
    return math.exp(slope(PLACE_DEGREES, logs))


def cold_place_seconds(degree: int) -> float:
    """Seconds of the first `weil_check(pi, 1 - t)` in this process, pi a
    fixed irreducible of the given degree over F9."""
    F9 = parser.parse_ring("F9")
    rng = random.Random(f"place-probe:{degree}")
    while True:
        coeffs = [f"({rng.randrange(3)}+{rng.randrange(3)}*g)*t^{i}"
                  for i in range(degree)]
        text = f"t^{degree}+" + "+".join(coeffs)
        if poly.is_irreducible(parser.parse_polynomial(text, F9)):
            break
    f = parser.parse_expression(text, F9, domain="rational")
    g = parser.parse_expression("1-t", F9, domain="rational")
    start = time.perf_counter()
    report = reciprocity.weil_check(f, g)
    elapsed = time.perf_counter() - start
    if not report.ok:
        raise AssertionError(f"weil_check failed on {text}")
    return elapsed


if __name__ == "__main__":
    if sys.argv[1:2] != ["place"] or len(sys.argv) != 3:
        sys.exit("usage: probes.py place DEGREE")
    print(cold_place_seconds(int(sys.argv[2])))
