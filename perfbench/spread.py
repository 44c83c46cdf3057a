#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per (seed, workload) from the repository root,
the workloads interleaved seed by seed so that a change in the host's speed
lands on every workload alike.  For each set of seeds it reports, per
workload and metric, the median of the values and their quartile spread:
(Q3 - Q1) / median with Q1, Q3 from statistics.quantiles(values, n=4).
With two sets it also reports how much worse the second set's median is
than the first's ("worse_frac"; negative is better).  Spreads (except
setup_s's) and worse_frac are compared with the bound BENCHMARK.json gives
each metric.

    python3 perfbench/spread.py --sets 201-210,211-220 [--workloads a,b] [--out FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def measure_set(seeds, workloads):
    values = {w: {} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            run = run_once(workload, seed, BENCH["run_seconds"])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in run.items()), file=sys.stderr)
            for name, value in run.items():
                values[workload].setdefault(name, []).append(value)
    return values


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", required=True,
                        help="one or two seed ranges, e.g. 201-210,211-220")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    sets = [seed_range(text) for text in args.sets.split(",")]
    if len(sets) > 2:
        raise SystemExit("--sets takes one or two seed ranges")
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in BENCH["end_to_end"]}
    measured = [measure_set(seeds, workloads) for seeds in sets]

    report = {}
    ok = True
    for workload in workloads:
        report[workload] = {}
        for name, spec in metrics.items():
            entry = {"bound": spec["bound"], "median": [], "spread": [], "values": []}
            for values in measured:
                series = values[workload][name]
                q1, _, q3 = statistics.quantiles(series, n=4)
                median = statistics.median(series)
                entry["median"].append(median)
                entry["spread"].append((q3 - q1) / median)
                entry["values"].append(series)
            failures, notes = [], []
            if name != "setup_s" and max(entry["spread"]) > spec["bound"]:
                failures.append("spread over bound")
            elif max(entry["spread"]) >= spec["bound"] / 3:
                notes.append("spread above bound/3")
            if len(measured) == 2:
                first, second = entry["median"]
                worse = (second - first) / first
                entry["worse_frac"] = worse if spec["better"] == "lower" else -worse
                if entry["worse_frac"] > spec["bound"]:
                    failures.append("median worse by more than bound")
            ok = ok and not failures
            flags = [f.upper() for f in failures] + notes
            report[workload][name] = entry
            print(f"{workload:12s} {name:12s} median={entry['median']} "
                  f"spread={[round(x, 4) for x in entry['spread']]} "
                  f"worse={entry.get('worse_frac', 0.0):+.4f} bound={spec['bound']} "
                  f"{' '.join(flags)}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "note": "Quartile spread (Q3-Q1)/median of each end-to-end metric over one run per "
                    "seed, workloads interleaved seed by seed, written by perfbench/spread.py. "
                    "'worse_frac': how much worse the second set's median is than the first's "
                    "(negative: better).",
            "run_seconds": BENCH["run_seconds"],
            "sets": [f"{seeds[0]}-{seeds[-1]}" for seeds in sets],
            "workloads": report,
        }, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
