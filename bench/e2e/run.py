#!/usr/bin/env python3
"""Build the end-to-end benchmark driver from this checkout and run one workload.

    python3 bench/e2e/run.py --workload NAME [--seed N] [--trace 0|1]

Run from anywhere inside a checkout; everything it builds and writes stays
under build-bench/ at the checkout root. A run lasts BENCHMARK.json's
run_seconds; --seconds is accepted and must equal it, so that every record
measures the same length. The driver's `metric` lines are passed through,
then one `record {...}` line (the full record, stamped with git sha, dirty
flag, nproc and kernel; compare.py reads these), and last a JSON object
with exactly correct/attempted/failed/metrics. --trace 1 reports the
per-layer metrics of BENCHMARK.json instead of the end-to-end ones and
leaves spans.jsonl and trace.jsonl in build-bench/out/<workload>-seed<N>/.

Exit status: 0 with a result; 1 when the driver crashed or printed a metric
set that does not match BENCHMARK.json (the crash still gets a record line);
2 when the checkout holds no sources to build or the arguments are wrong.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-bench"
DRIVER = BUILD / "vine_e2e"
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT}; nothing to build", 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "vine_e2e", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd), 2)


def git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(record):
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    record["git_sha"] = sha
    record["git_dirty"] = bool(status) if status is not None else None
    record["nproc"] = os.cpu_count()
    record["kernel"] = platform.release()
    return record


def metric_mismatch(spec, record):
    """Why the record's metrics are not exactly the ones BENCHMARK.json names
    for its mode, with their units; None when they are."""
    wanted = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = record["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            return f"driver printed {got} for {m['name']} ({m['unit']})"
    if len(metrics) != len(wanted):
        return "driver printed metrics BENCHMARK.json does not name"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)
    if args.seconds != spec["run_seconds"]:
        fail(f"--seconds {args.seconds}: BENCHMARK.json fixes {spec['run_seconds']}", 2)
    build()

    out_dir = BUILD / "out" / f"{args.workload}-seed{args.seed}"
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(BUILD / "work"), "--out", str(out_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, TMPDIR=str(tmp)),
                              timeout=RUN_TIMEOUT_S)
        lines = done.stdout.splitlines()
        status = f"exit status {done.returncode}"
        ok = done.returncode == 0 and bool(lines)
    except subprocess.TimeoutExpired:
        lines, status, ok = [], f"timed out after {RUN_TIMEOUT_S} s", False

    if not ok:
        # A crashed workload still leaves a row: everything it attempted failed.
        record = stamp({"workload": args.workload, "seed": args.seed,
                        "trace": bool(args.trace), "correct": False, "attempted": 1,
                        "failed": 1, "error": status, "metrics": {}})
        print("record " + json.dumps(record, sort_keys=True))
        fail(f"{args.workload}: driver {status}", 1)

    for line in lines[:-1]:
        print(line)
    record = stamp(json.loads(lines[-1]))
    print("record " + json.dumps(record, sort_keys=True))
    mismatch = metric_mismatch(spec, record)
    if mismatch:
        fail(mismatch, 1)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
