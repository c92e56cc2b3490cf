#!/usr/bin/env python3
"""Compare benchmark runs of a parent and a change.

    python3 bench/e2e/compare.py PARENT.log CHANGE.log [--json]

Each log holds the stdout of run.py invocations; only the `record {...}`
lines are read. Runs pair up by workload, mode and seed (in the order they
appear when a seed repeats), so run the same seeds on both sides and
alternate which side goes first (README.md shows the loop). A run counts
as failed when its record has failed > 0 or no metrics, as a crashed
driver leaves it; a pair is used only when neither side failed.

One row per workload and metric: each side's median, quartiles and spread
(quartile distance over median) over the usable pairs, the pairs the
change won (ties count for neither), each side's failed runs and failed
operations over all its runs, the bound from BENCHMARK.json, and a verdict:

  failed      the change failed more operations than the parent on this
              workload and mode; nothing else about the row counts
  improved    the change won at least nine tenths of the pairs and its
              median beats the parent's by more than the parent's quartile
              distance
  worse       the change's median is worse than the parent's by more than
              the bound; or, the mirror image of "improved", the change
              lost nine tenths of the pairs by more than the parent's
              quartile distance (the only test for per-layer metrics,
              which have no bound)
  unresolved  fewer than ten usable pairs, or the parent's spread is wider
              than the bound and not every change run beat every parent run
  unchanged   otherwise

--json prints the rows with both sides' build stamps instead of the table.
"""
import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path):
    """{(workload, traced): {seed: [record, ...]}} in file order."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("record "):
            record = json.loads(line[len("record "):])
            key = (record["workload"], bool(record["trace"]))
            runs.setdefault(key, {}).setdefault(record["seed"], []).append(record)
    return runs


def failed(record):
    return record["failed"] > 0 or not record["metrics"]


def summary(values):
    if not values:
        return None, None, None
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(pairs, better, bound):
    """pairs: [(parent value, change value)] of runs neither side failed."""
    if len(pairs) < 10:
        return "unresolved", None
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    sign = 1 if better == "higher" else -1  # > 0: the change reads better
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = summary(parent)
    gain = sign * (statistics.median(change) - pm)
    quartile_distance = p3 - p1
    if wins >= 0.9 * len(pairs) and gain > quartile_distance:
        return "improved", wins
    if losses >= 0.9 * len(pairs) and -gain > quartile_distance:
        return "worse", wins
    if bound is None:
        return "unchanged", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if quartile_distance > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def stamp(runs):
    for seeds in runs.values():
        for records in seeds.values():
            keys = ("git_sha", "git_dirty", "build_type", "compiler", "nproc", "kernel")
            return {k: records[0].get(k) for k in keys}
    return {}


def main():
    parser = argparse.ArgumentParser(description="Compare parent and change runs.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for traced, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            p_seeds = parent.get((workload, traced), {})
            c_seeds = change.get((workload, traced), {})
            run_pairs = []
            for seed in sorted(p_seeds.keys() & c_seeds.keys()):
                run_pairs.extend(zip(p_seeds[seed], c_seeds[seed]))
            if not run_pairs:
                continue
            fails = {}
            for side, seeds in (("parent", p_seeds), ("change", c_seeds)):
                records = [r for rs in seeds.values() for r in rs]
                fails[side] = {"runs": sum(failed(r) for r in records),
                               "operations": sum(r["failed"] for r in records)}
            usable = [(p, c) for p, c in run_pairs if not failed(p) and not failed(c)]
            for m in metrics:
                name = m["name"]
                pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                         for p, c in usable]
                result, wins = verdict(pairs, m["better"], m.get("bound"))
                if fails["change"]["operations"] > fails["parent"]["operations"]:
                    result = "failed"
                row = {"workload": workload, "metric": name, "unit": m["unit"],
                       "pairs": len(pairs), "wins": wins, "failed": fails,
                       "bound": m.get("bound"), "verdict": result}
                for side, values in (("parent", [p for p, _ in pairs]),
                                     ("change", [c for _, c in pairs])):
                    q1, med, q3 = summary(values)
                    row[side] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / abs(med) if med else None,
                                 "runs": len(values)}
                rows.append(row)

    if args.json:
        print(json.dumps({"parent": stamp(parent), "change": stamp(change),
                          "rows": rows}, indent=1, sort_keys=True))
        return
    print(f"{'workload':16} {'metric':26} {'parent median [q1 q3]':>34} "
          f"{'change median [q1 q3]':>34} {'won':>6} {'failed p/c':>10} {'bound':>5}  verdict")
    for r in rows:
        cells = []
        for side in ("parent", "change"):
            s = r[side]
            cells.append("-" if s["median"] is None
                         else f"{s['median']:.4g} [{s['q1']:.4g} {s['q3']:.4g}]")
        bound = "-" if r["bound"] is None else f"{r['bound']:g}"
        won = "-" if r["wins"] is None else r["wins"]
        failures = f"{r['failed']['parent']['runs']}/{r['failed']['change']['runs']}"
        print(f"{r['workload']:16} {r['metric']:26} {cells[0]:>34} {cells[1]:>34} "
              f"{won:>2}/{r['pairs']:<3} {failures:>10} {bound:>5}  {r['verdict']}")


if __name__ == "__main__":
    main()
