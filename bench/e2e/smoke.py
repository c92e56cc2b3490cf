#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark driver (ctest bench_e2e_smoke).

    python3 bench/e2e/smoke.py DRIVER WORK_DIR

Runs every workload of BENCHMARK.json for a warm-up rep and one measured rep
at about 1/20 of its size (--smoke 1), then one traced run of the first
workload. Fails unless each
run exits 0, its record parses, no operation failed, and the record holds
exactly the metrics BENCHMARK.json names for its mode, with their units.
Takes a few seconds.
"""
import json
import subprocess
import sys

from run import ROOT, metric_mismatch


def main():
    driver, work = sys.argv[1], sys.argv[2]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload, trace in [(n, 0) for n in names] + [(names[0], 1)]:
        cmd = [driver, "--workload", workload, "--seed", "1", "--seconds", "0.001",
               "--trace", str(trace), "--smoke", "1", "--work", work]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60)
        label = f"{workload} --trace {trace}"
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            problems.append(f"{label}: exit status {done.returncode}")
            continue
        record = json.loads(lines[-1])
        if record["failed"] != 0:
            problems.append(f"{label}: {record['failed']} failed: {record['error']}")
        mismatch = metric_mismatch(spec, record)
        if mismatch:
            problems.append(f"{label}: {mismatch}")
        printed = sum(1 for line in lines if line.startswith(f"metric {workload} "))
        if printed != len(record["metrics"]):
            problems.append(f"{label}: {printed} metric lines for "
                            f"{len(record['metrics'])} metrics")
        print(f"{label}: {record['attempted']} attempted, {record['failed']} failed")
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
