#!/usr/bin/env python3
"""dyngossip benchmark: four workloads, end-to-end metrics, per-layer tracing.

Run from the root of a dyngossip checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the library, the CLI and the harness
into .bench_build/ (later runs only re-check the build).  Every input a
workload feeds the program (churn seeds, trace-generation seeds, the serve
request script) is derived from --seed.  With --trace 0 the run measures
the end-to-end metrics; with --trace 1 it makes an untimed-for-e2e pair of
passes (untraced, then traced) and reports the per-layer metrics.  Every
output is checked (see workloads.py); the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it is the full record (stamps, every named metric,
exact counts and check results), also kept under .bench_work/records/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (needs the sys.path entry above)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build"
WORK_ROOT = ROOT / ".bench_work"

# Name and unit of each end-to-end metric.  BENCHMARK.json declares the same
# names with their bounds; README.md gives each one's meaning per workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark tree; returns the paths
    of the dyngossip CLI and the harness."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("run from the root of a dyngossip checkout (CMakeLists.txt and src/ not found)")
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except FileNotFoundError:
                die(f"{cmd[0]} not found")
            if rc != 0:
                log.flush()
                tail = Path(log_path).read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (see {log_path})", 1)
    cli = BUILD_DIR / "dyngossip" / "dyngossip"
    harness = BUILD_DIR / "perfbench_harness"
    if not cli.is_file() or not harness.is_file():
        die("build produced no binaries", 1)
    return cli, harness


def stamp(cli, loadavg):
    """Provenance every record carries: nproc, `dyngossip version --json`
    (git describe, compiler, build type) and the load average at start."""
    version = json.loads(subprocess.run([str(cli), "version", "--json"], check=True,
                                        capture_output=True, text=True,
                                        timeout=30).stdout)
    return {"nproc": os.cpu_count(), "version": version, "loadavg_at_start": list(loadavg)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be >= 1")

    loadavg = os.getloadavg()
    cli, harness = build()
    stamps = stamp(cli, loadavg)
    # The workload and every child it starts run on the last CPUs this
    # process may use, as many as the workload has threads, so that the
    # harness's host-speed probes time the same CPUs the workload runs on.
    cpus = sorted(os.sched_getaffinity(0))[-workloads.CPUS[args.workload]:]
    os.sched_setaffinity(0, cpus)
    stamps["cpus"] = cpus

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    ctx = workloads.Context(cli=cli, harness=harness, work=work, seed=args.seed,
                            seconds=args.seconds, reference=reference,
                            root=ROOT)
    started = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx, traced=bool(args.trace))
    finally:
        ctx.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    # End-to-end timings are scaled to the reference host speed (see
    # workloads.py); per-layer metrics stay in plain host time.
    speed = ctx.host_speed()
    scale = {"s": speed, "ms": speed, "1/s": 1.0 / speed}
    if args.trace:
        metrics = outcome.per_layer
    else:
        metrics = {name: {"value": outcome.end_to_end[name] * scale.get(unit, 1.0), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    failed_checks = [c for c in outcome.checks if not c["ok"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamps": stamps,
        "run_wall_s": time.perf_counter() - started,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / outcome.attempted,
        "host_speed": speed,
        "probe_points_s": ctx.probe_s,
        "unscaled_end_to_end": outcome.end_to_end,
        "metrics": outcome.named,
        "counts": outcome.counts,
        "checks": outcome.checks,
    }
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": outcome.failed == 0 and not failed_checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
