"""Self-test of the benchmark: every workload at a tiny size, with tracing
off and on.

    python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics run.py measures, that
each run exits 0 with a correct result object as its last line, that every
metric of the mode appears there and on a text line with its unit, and that
failed_ratio is 0.  Takes about two minutes.
"""

import json
import subprocess
import sys

import run
from proc import BENCH, ROOT, WORKLOADS


def check_run(workload, trace, table):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        raise AssertionError(f"{where} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{where}: {lines[-1]}")
    if set(result["metrics"]) != {m["name"] for m in table}:
        raise AssertionError(f"{where}: metrics {sorted(result['metrics'])}")
    text = set(lines[:-1])
    for m in table:
        value = result["metrics"][m["name"]]
        if value["unit"] != m["unit"]:
            raise AssertionError(f"{where}: {m['name']} in {value['unit']}")
        line = f"metric {m['name']} {value['value']:.6g} {m['unit']}"
        if line not in text:
            raise AssertionError(f"{where}: no line {line!r}")
    if "metric failed_ratio 0 ratio" not in text:
        raise AssertionError(f"{where}: failed_ratio is not 0")
    print(f"ok {where}: {result['attempted']} ops", flush=True)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in bench["end_to_end"]]
    if declared != list(run.END_TO_END):
        raise AssertionError("BENCHMARK.json end_to_end differs from run.py")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
            != list(run.PER_LAYER):
        raise AssertionError("BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        check_run(workload, 0, bench["end_to_end"])
        check_run(workload, 1, bench["per_layer"])
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
