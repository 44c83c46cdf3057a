"""The four benchmark workloads and their correctness checks.

Each workload function takes a Context and returns an Outcome holding:

* ``end_to_end`` -- the seven metrics every workload reports under one
  set of names (run.py's END_TO_END_UNITS); what an "op" is differs by
  workload (README.md has the table);
* ``per_layer`` -- every PER_LAYER metric, measured from a traced pass
  (--trace 1 only); a layer the workload never enters reads 0;
* ``named`` -- the same numbers under workload-specific names
  (round_p50_ms, hit_p90_ms, ...) for the record;
* counts, checks, and the attempted/failed operation counts behind
  failed_frac.

End-to-end timings are host time scaled to the reference host speed:
throughout a run the harness times a fixed probe kernel (harness.cpp,
host_probe_s), and run.py multiplies every timing by the probe's reference
time (reference.json, host_probe_s) over the median probe time of the run.
On a virtual machine whose host is shared, speed can change by up to
twofold between hours, and unscaled timings of identical code drift with
it; the unscaled values stay in the record.  Rounds, messages, activations, TC(E), trials and
checksums are exact counts and are compared between passes and against
reference.json.
"""

import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

SCENARIOS = ["table1", "single_source", "multi_source", "lb_broadcast", "upper_bounds",
             "oblivious_funnel", "algo_matrix", "sync_vs_async", "fault_sweep"]
SCENARIO_FLAGS = {"fault_sweep": ["--quick"]}
GRID_THREADS = 2

PER_LAYER = {
    "adversary.step_s": "s",
    "adversary.step_share": "frac",
    "engine.send_s": "s",
    "engine.deliver_s": "s",
    "engine.rounds": "count",
    "engine.messages": "count",
    "engine.messages_per_round": "count",
    "graph.round_s": "s",
    "graph.rebuild_us_p50": "us",
    "graph.connectivity_us_p50": "us",
    "graph.advance_us_p50": "us",
    "graph.replay_gap_frac": "frac",
    "graph.tc": "count",
    "trace.step_s": "s",
    "trace.decode_mb_per_s": "MB/s",
    "async.self_s": "s",
    "async.activations_per_s": "1/s",
    "async.activations": "count",
    "async.messages": "count",
    **{f"scenarios.{name}.wall_s": "s" for name in SCENARIOS},
    "runner.queue_wait_s": "s",
    "runner.queue_wait_p90_ms": "ms",
    "runner.busy_frac": "frac",
    "fault.trials": "count",
    "cache.lookup_us_p50": "us",
    "cache.store_us_p50": "us",
    "cache.hit_ratio": "frac",
    "serve.accepted_ms_p50": "ms",
    "serve.first_row_ms_p50": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.miss_p90_ms": "ms",
    "serve.dedup_rows": "count",
    "trace_overhead_frac": "frac",
}


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 <= q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Outcome:
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    named: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    def set_layers(self, values):
        self.per_layer = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                          for name, unit in PER_LAYER.items()}


@dataclass
class Child:
    stdout: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Context:
    """Paths, inputs, host-speed probe readings and process bookkeeping
    shared by the workloads."""

    def __init__(self, cli, harness, work, seed, seconds, reference, root):
        self.cli = str(cli)
        self.harness = str(harness)
        self.work = Path(work)
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.root = Path(root)
        self.procs = []
        self.probe_s = []

    def rng(self, workload):
        return random.Random(f"{workload}/{self.seed}")

    def is_default_seed(self):
        return self.seed == self.reference["default_seed"]

    def spawn(self, cmd, **kwargs):
        proc = subprocess.Popen(cmd, cwd=self.root, **kwargs)
        self.procs.append(proc)
        return proc

    def stop_all(self):
        for proc in self.procs:
            if proc.returncode is None and proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def run(self, cmd, timeout=170):
        """Runs one child to completion; returns its stdout plus the wall
        time, user+sys CPU and peak RSS that wait4 reports for it."""
        out_path = self.work / f"child{len(self.procs)}.out"
        with open(out_path, "w") as out, open(self.work / "children.err", "a") as err:
            started = time.perf_counter()
            proc = self.spawn(cmd, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err_tail = (self.work / "children.err").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"{cmd[:3]} exited {proc.returncode}: {err_tail}")
        return Child(stdout=out_path.read_text(), wall_s=wall,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / 1024.0)

    def harness_json(self, args):
        """Runs a harness command; keeps the probe points it timed."""
        child = self.run([self.harness] + args)
        doc = json.loads(child.stdout.strip().splitlines()[-1])
        self.probe_s += doc.get("host_s", [])
        return doc, child

    def probe(self):
        """Times three host-speed probe points in a fresh harness process."""
        self.harness_json(["probe"])

    def host_speed(self):
        """Scale from this run's host time to the reference host speed."""
        return self.reference["host_probe_s"] / statistics.median(self.probe_s)


def span_sums(path, keep=()):
    """Sums a chrome-trace timeline's span durations (seconds) per name and
    counts spans; durations of the names in `keep` are also returned."""
    sums, counts, kept = {}, {}, {name: [] for name in keep}
    with open(path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if not line.startswith("{"):
                continue
            event = json.loads(line)
            name, dur = event["name"], event["dur"] * 1e-6
            sums[name] = sums.get(name, 0.0) + dur
            counts[name] = counts.get(name, 0) + 1
            if name in kept:
                kept[name].append(dur)
    return sums, counts, kept


def csv(values):
    return ",".join(str(v) for v in values)


def per_trial_metrics(trials, n, tail_q):
    """End-to-end metrics of a serial run of trials, each the median over
    the trials of that trial's own value, so that a slow spell of the host
    during a few trials does not move them."""
    def med(f):
        return statistics.median(f(t) for t in trials)
    return {
        "wall_s": med(lambda t: t["run_s"]),
        "cpu_s": med(lambda t: t["cpu_s"]),
        "ops_per_s": med(lambda t: n * t["rounds"] / t["run_s"]),
        "op_p50_ms": 1e3 * med(lambda t: statistics.median(t["round_s"])),
        "op_tail_ms": 1e3 * med(lambda t: percentile(t["round_s"], tail_q)),
    }


def check_trials(out, trials, reference, label):
    """Status, decorator and reference-checksum gates; returns failures."""
    failed = 0
    for i, t in enumerate(trials):
        ok = t["status"] == "completed" and t["adversary_calls"] == t["rounds"] \
            and not t["schedule_exhausted"]
        if reference is not None and i < len(reference):
            ok = ok and t["checksum"] == reference[i]
        if not out.check(f"{label}.trial{i}", ok,
                         f"status={t['status']} checksum={t['checksum']}"):
            failed += 1
    return failed


def same_counts(out, label, a, b):
    keys = ("checksum", "rounds", "messages", "activations", "tc")
    same = [tuple(t[k] for k in keys) for t in a] == [tuple(t[k] for k in keys) for t in b]
    return out.check(f"{label}.traced_equals_untraced", same)


# --------------------------------------------------------------------------
# frontier: Algorithm 1 against a live churn adversary, serial run_algo.

# n = 512 keeps a trial near 0.3 s, so a run holds about 30 trials and the
# per-trial medians shrug off the host's slow spells; at n = 1536 (six
# 1.7 s trials) two ten-run sets of the same code differed by 25%.
FRONTIER = {"n": 512, "k": 256}
FRONTIER_TRIALS_PER_S = 3.0
SETUP_REPS = 10


def frontier(ctx, traced):
    out = Outcome()
    n, k = FRONTIER["n"], FRONTIER["k"]
    rng = ctx.rng("frontier")
    seeds = [rng.randrange(1, 2**31) for _ in range(max(2, round(ctx.seconds * FRONTIER_TRIALS_PER_S)))]
    base = ["frontier", f"--n={n}", f"--k={k}", f"--seeds={csv(seeds)}"]
    doc, child = ctx.harness_json(base + [f"--setup-reps={SETUP_REPS}"])
    trials = doc["trials"]
    reference = ctx.reference["frontier"]["checksums"] if ctx.is_default_seed() else None
    out.attempted = len(trials)
    out.failed = check_trials(out, trials, reference, "frontier")

    # Set-up of the whole run: every trial's construction up to the return
    # of its first adversary call, summed per pass over the seeds.
    probes = doc["setup_probe_s"]
    setup_passes = [sum(probes[i:i + len(seeds)]) for i in range(0, len(probes), len(seeds))]
    out.end_to_end = {"setup_s": statistics.median(setup_passes),
                      "peak_rss_mb": child.peak_rss_mb,
                      **per_trial_metrics(trials, n, 99)}
    out.named = {"node_rounds_per_s": out.end_to_end["ops_per_s"],
                 "round_p50_ms": out.end_to_end["op_p50_ms"],
                 "round_p99_ms": out.end_to_end["op_tail_ms"],
                 "timed_wall_s": sum(t["run_s"] for t in trials),
                 "setup_passes_s": setup_passes, "trials": len(trials)}
    out.counts = {"seeds": seeds, "checksums": [t["checksum"] for t in trials],
                  "rounds": [t["rounds"] for t in trials],
                  "messages": [t["messages"] for t in trials],
                  "tc": [t["tc"] for t in trials]}
    if traced:
        frontier_layers(ctx, out, base, trials, n)
    return out


def frontier_layers(ctx, out, base, untraced, n):
    tdir = ctx.work / "timelines"
    tdir.mkdir()
    doc, _ = ctx.harness_json(base + [f"--timeline-dir={tdir}"])
    trials = doc["trials"]
    same_counts(out, "frontier", untraced, trials)
    per_trial = []
    for i, t in enumerate(trials):
        sums, counts, _ = span_sums(tdir / f"trial{i}.json")
        out.check(f"frontier.trial{i}.round_spans", counts.get("round") == t["rounds"])
        send, deliver = sums.get("send_phase", 0.0), sums.get("deliver_phase", 0.0)
        per_trial.append({"round": sums.get("round", 0.0), "send": send, "deliver": deliver,
                          "graph": sums.get("round", 0.0) - send - deliver - t["adversary_s"]})
    adversary_s = sum(t["adversary_s"] for t in trials)
    run_s = sum(t["run_s"] for t in trials)
    round_s = sum(p["round"] for p in per_trial)
    # The round spans must tile the timed run (spans are whole microseconds,
    # hence the 1% slack above): anything outside them is engine bookkeeping
    # between rounds, not an unattributed layer.
    out.check("frontier.round_spans_cover_run", 0.95 * run_s < round_s < 1.01 * run_s,
              f"round spans {round_s:.4f}s of run {run_s:.4f}s")

    # Replay trial 0's own round graphs through the graph layer's calls.
    t0 = trials[0]
    replay, _ = ctx.harness_json(["graph", f"--n={n}", f"--seed={t0['seed']}",
                                  f"--rounds={t0['rounds']}"])
    out.check("frontier.graph_replay", replay["connected"] and replay["tc"] == t0["tc"],
              f"replay tc={replay['tc']} engine tc={t0['tc']}")
    replay_s = sum(replay["rebuild_s"]) + sum(replay["connectivity_s"]) + sum(replay["advance_s"])
    graph0 = per_trial[0]["graph"]
    # The residual also holds the engine's copy of the previous round's
    # graph, and the replay runs in another process at another moment, so
    # only a gross misattribution fails this.
    out.check("frontier.graph_residual_matches_replay", abs(graph0 - replay_s) < 0.5 * graph0,
              f"residual {graph0:.4f}s replay {replay_s:.4f}s")
    total_rounds = sum(t["rounds"] for t in trials)
    total_messages = sum(t["messages"] for t in trials)
    out.set_layers({
        "adversary.step_s": adversary_s,
        "adversary.step_share": adversary_s / round_s,
        "engine.send_s": sum(p["send"] for p in per_trial),
        "engine.deliver_s": sum(p["deliver"] for p in per_trial),
        "engine.rounds": total_rounds,
        "engine.messages": total_messages,
        "engine.messages_per_round": total_messages / total_rounds,
        "graph.round_s": sum(p["graph"] for p in per_trial),
        "graph.rebuild_us_p50": 1e6 * statistics.median(replay["rebuild_s"]),
        "graph.connectivity_us_p50": 1e6 * statistics.median(replay["connectivity_s"]),
        "graph.advance_us_p50": 1e6 * statistics.median(replay["advance_s"]),
        "graph.replay_gap_frac": (graph0 - replay_s) / graph0,
        "graph.tc": sum(t["tc"] for t in trials),
        "trace_overhead_frac": run_s / sum(t["run_s"] for t in untraced) - 1.0,
    })


# --------------------------------------------------------------------------
# async_trace: async push-pull replaying `trace gen` churn schedules.

ASYNC = {"n": 2048, "k": 64, "rounds": 1000}
ASYNC_TRACES = 3
ASYNC_TRIALS_PER_S = 1.0
# Every trial runs twice in a row.  A trial is deterministic, so its windows
# repeat exactly, and for the window tail each window's time is the smaller
# of its two runs.  That drops the host's short preemptions, which hit
# 10-20% of the ~1 ms windows in some runs and moved the window p90 of a run
# by up to 18% while the p50 stayed within 1%, and keeps every window the
# program itself makes slow.
ASYNC_REPS = 2


def min_of_reps_tail(trials, q):
    """Median over trials of the q-th percentile of the trial's windows,
    each window timed as the smaller of its ASYNC_REPS runs."""
    tails = []
    for first in range(0, len(trials), ASYNC_REPS):
        reps = [trials[i]["round_s"] for i in range(first, first + ASYNC_REPS)]
        tails.append(percentile([min(times) for times in zip(*reps)], q))
    return statistics.median(tails)


def async_trace(ctx, traced):
    out = Outcome()
    n, k = ASYNC["n"], ASYNC["k"]
    rng = ctx.rng("async_trace")
    gen_seeds = [rng.randrange(1, 2**31) for _ in range(ASYNC_TRACES)]
    trial_seeds = [rng.randrange(1, 2**31)
                   for _ in range(max(ASYNC_TRACES, round(ctx.seconds * ASYNC_TRIALS_PER_S)))]
    traces, setup = [], []
    for i, gen_seed in enumerate(gen_seeds):
        path = ctx.work / f"schedule{i}.dgt"
        ctx.probe()
        child = ctx.run([ctx.cli, "trace", "gen", f"--out={path}", "--kind=churn", f"--n={n}",
                         f"--rounds={ASYNC['rounds']}", f"--edges={4 * n}",
                         f"--churn={n // 8}", "--sigma=1", f"--seed={gen_seed}"])
        traces.append(path)
        setup.append(child.wall_s)
    trace_of = [traces[i % len(traces)] for i in range(len(trial_seeds)) for _ in range(ASYNC_REPS)]
    run_seeds = [seed for seed in trial_seeds for _ in range(ASYNC_REPS)]
    base = ["async", f"--k={k}", f"--traces={csv(trace_of)}", f"--seeds={csv(run_seeds)}"]
    doc, child = ctx.harness_json(base)
    trials = doc["trials"]
    reference = None
    if ctx.is_default_seed():
        reference = [c for c in ctx.reference["async_trace"]["checksums"] for _ in range(ASYNC_REPS)]
    out.attempted = len(trials)
    out.failed = check_trials(out, trials, reference, "async_trace")
    out.check("async_trace.reps_repeat",
              all(trials[i]["checksum"] == trials[i - i % ASYNC_REPS]["checksum"]
                  and trials[i]["rounds"] == trials[i - i % ASYNC_REPS]["rounds"]
                  for i in range(len(trials))))

    run_s = sum(t["run_s"] for t in trials)
    out.end_to_end = {"setup_s": statistics.median(setup),
                      "peak_rss_mb": child.peak_rss_mb,
                      **per_trial_metrics(trials, n, 90),
                      "op_tail_ms": 1e3 * min_of_reps_tail(trials, 90)}
    out.named = {"node_rounds_per_s": out.end_to_end["ops_per_s"],
                 "round_p50_ms": out.end_to_end["op_p50_ms"],
                 "round_p90_ms": out.end_to_end["op_tail_ms"],
                 "timed_wall_s": run_s, "trials": len(trials), "trace_gen_s": setup}
    out.counts = {"gen_seeds": gen_seeds, "seeds": trial_seeds,
                  "checksums": [t["checksum"] for t in trials],
                  "windows": [t["rounds"] for t in trials],
                  "activations": [t["activations"] for t in trials],
                  "messages": [t["messages"] for t in trials]}
    if traced:
        tdir = ctx.work / "timelines"
        tdir.mkdir()
        tdoc, _ = ctx.harness_json(base + [f"--timeline-dir={tdir}"])
        traced_trials = tdoc["trials"]
        same_counts(out, "async_trace", trials, traced_trials)
        step_s = sum(t["adversary_s"] for t in traced_trials)
        traced_run_s = sum(t["run_s"] for t in traced_trials)
        # The engine's event-batch spans tile its event loop, so they must
        # cover the timed run: trace + async self time is all of it.
        batches = sum(span_sums(tdir / f"trial{i}.json")[0].get("event_batch", 0.0)
                      for i in range(len(traced_trials)))
        out.check("async_trace.event_batches_cover_run",
                  0.95 * traced_run_s < batches < 1.01 * traced_run_s,
                  f"event batches {batches:.4f}s of run {traced_run_s:.4f}s")
        decoded_bytes = sum(os.path.getsize(path) * t["rounds"] / ASYNC["rounds"]
                            for path, t in zip(trace_of, traced_trials))
        activations = sum(t["activations"] for t in traced_trials)
        out.set_layers({
            "adversary.step_s": step_s,
            "adversary.step_share": step_s / traced_run_s,
            "graph.tc": sum(t["tc"] for t in traced_trials),
            "trace.step_s": step_s,
            "trace.decode_mb_per_s": decoded_bytes / step_s / 1e6,
            "async.self_s": traced_run_s - step_s,
            "async.activations_per_s": activations / traced_run_s,
            "async.activations": activations,
            "async.messages": sum(t["messages"] for t in traced_trials),
            "trace_overhead_frac": traced_run_s / run_s - 1.0,
        })
    return out


# --------------------------------------------------------------------------
# paper_grid: the paper's reproduction scenarios through the CLI.

GRID_SECONDS_PER_PASS = 8.0


def payload_digest(doc):
    body = {key: value for key, value in doc.items() if key != "run"}
    return hashlib.sha256(json.dumps(body, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


def grid_pass(ctx, out, order, timelines):
    """Runs every scenario once, probing the host's speed before each;
    returns per-scenario measurements."""
    runs = {}
    for name in order:
        path = ctx.work / f"{name}.json"
        cmd = [ctx.cli, "run", name, f"--threads={GRID_THREADS}", f"--json={path}"]
        cmd += SCENARIO_FLAGS.get(name, [])
        if timelines:
            cmd.append(f"--timeline={ctx.work / (name + '.timeline.json')}")
        ctx.probe()
        child = ctx.run(cmd)
        doc = json.loads(path.read_text())
        elapsed = doc["run"]["elapsed_seconds"]
        digest = payload_digest(doc)
        out.attempted += 1
        if not out.check(f"paper_grid.{name}.digest",
                         digest == ctx.reference["paper_grid"]["digests"].get(name), digest):
            out.failed += 1
        runs[name] = {"wall_s": child.wall_s, "cpu_s": child.cpu_s,
                      "peak_rss_mb": child.peak_rss_mb, "elapsed_s": elapsed,
                      "setup_s": child.wall_s - elapsed,
                      "rows": sum(len(table["rows"]) for table in doc["tables"]),
                      "doc": doc}
    return runs


def fault_trials(doc):
    table = doc["tables"][0]
    column = table["columns"].index("trials")
    return sum(int(row[column]) for row in table["rows"])


def paper_grid(ctx, traced):
    out = Outcome()
    rng = ctx.rng("paper_grid")
    trials = ctx.reference["paper_grid"]["trials"]
    passes = []
    for _ in range(max(1, round(ctx.seconds / GRID_SECONDS_PER_PASS))):
        order = SCENARIOS[:]
        rng.shuffle(order)
        passes.append(grid_pass(ctx, out, order, timelines=False))

    def per_pass(key):
        return statistics.median(sum(r[key] for r in runs.values()) for runs in passes)

    wall = per_pass("wall_s")
    setup = statistics.median(statistics.median(r["setup_s"] for r in runs.values())
                              for runs in passes)
    # The op is one row of a scenario's output tables (a grid point of a
    # paper table), counted from the run's own JSON.  No per-row latency is
    # visible from outside the CLI, so op_p50_ms is the mean time per row and
    # op_tail_ms the slowest scenario.
    rows = per_pass("rows")
    out.end_to_end = {
        "setup_s": setup,
        "wall_s": wall,
        "cpu_s": per_pass("cpu_s"),
        "peak_rss_mb": max(r["peak_rss_mb"] for runs in passes for r in runs.values()),
        "ops_per_s": rows / wall,
        "op_p50_ms": 1e3 * wall / rows,
        "op_tail_ms": 1e3 * statistics.median(max(r["wall_s"] for r in runs.values())
                                              for runs in passes),
    }
    fault = fault_trials(passes[0]["fault_sweep"]["doc"])
    out.check("paper_grid.fault_trials", fault == ctx.reference["paper_grid"]["fault_trials"],
              str(fault))
    out.check("paper_grid.rows", all(runs[name]["rows"] == passes[0][name]["rows"]
                                     for runs in passes for name in SCENARIOS))
    # trials_per_s counts engine runs, pinned per scenario in reference.json
    # (the CLI's output does not expose them).
    out.named = {"rows_per_s": out.end_to_end["ops_per_s"],
                 "trials_per_s": sum(trials.values()) / wall,
                 "scenario_wall_s": {name: statistics.median(runs[name]["wall_s"] for runs in passes)
                                     for name in SCENARIOS},
                 "passes": len(passes)}
    out.counts = {"rows": {name: passes[0][name]["rows"] for name in SCENARIOS},
                  "trials": trials, "fault_trials": fault}
    if traced:
        order = SCENARIOS[:]
        rng.shuffle(order)
        runs = grid_pass(ctx, out, order, timelines=True)
        queue_waits, totals, counts = [], {}, {}
        for name in SCENARIOS:
            sums, n_spans, kept = span_sums(ctx.work / f"{name}.timeline.json",
                                            keep=("queue_wait",))
            queue_waits += kept["queue_wait"]
            for key, value in sums.items():
                totals[key] = totals.get(key, 0.0) + value
            for key, value in n_spans.items():
                counts[key] = counts.get(key, 0) + value
        traced_wall = sum(r["wall_s"] for r in runs.values())
        layers = {f"scenarios.{name}.wall_s": runs[name]["elapsed_s"] for name in SCENARIOS}
        layers.update({
            "engine.send_s": totals.get("send_phase", 0.0),
            "engine.deliver_s": totals.get("deliver_phase", 0.0),
            "engine.rounds": counts.get("round", 0),
            "runner.queue_wait_s": sum(queue_waits),
            "runner.queue_wait_p90_ms": 1e3 * percentile(queue_waits, 90) if queue_waits else 0.0,
            "runner.busy_frac": sum(r["cpu_s"] for r in runs.values()) / (GRID_THREADS * traced_wall),
            "fault.trials": fault_trials(runs["fault_sweep"]["doc"]),
            "trace_overhead_frac": traced_wall / wall - 1.0,
        })
        out.set_layers(layers)
    return out


# --------------------------------------------------------------------------
# serve_mix: `dyngossip serve` under one closed-loop line-JSON client.

SERVE_THREADS = 2
# The harness drives one closed-loop client.  With three (or two), hit
# requests overlap the miss requests' index rewrites and the pool's trials,
# the service keeps every vCPU busy, and hit latency then measures CPU
# queueing and the host's load rather than the service: over ten seeds its
# p90 spread was 0.51 with three clients and 1.22 with two.
SERVE_SETUP_REPS = 3
HIT_SWEEPS = 4            # pre-warmed sweeps the hit class draws from
HIT_TRIALS = 128          # trials per hit request (all cached)
HIT_SHAPE = {"n": 24, "k": 48}
MISS_TRIALS = 2           # trials per miss request (all fresh seeds)
MISS_SHAPE = {"n": 32, "k": 64}
CHUNK = {"hit": 20, "miss": 2}    # every chunk of the script has this mix
SERVE_CHUNKS_PER_S = 8.0
# Timings are taken per block of this many chunks (100 hit requests, so a
# block's hit p90 has 10 samples beyond it) and reported as the median over
# the blocks, so that a slow spell of the host during a block or two does
# not move them.  The host's slow spells last 0.1-0.3 s; with blocks twice
# this long a spell landed in enough blocks to move the hit p90 of a run by
# 0.25.
BLOCK_CHUNKS = 5


def sweep(shape, trials, seed_base):
    return {"algo": "single_source", "adversary": "churn", "fault": "fault",
            "n": shape["n"], "k": shape["k"], "sources": 4, "cap": 0,
            "trials": trials, "seed_base": seed_base}


def serve_script(ctx):
    """The seeded request script: pre-warm sweeps plus shuffled chunks of
    (class, request) pairs."""
    rng = ctx.rng("serve_mix")
    hit_base = rng.randrange(1, 2**30)
    warm = [sweep(HIT_SHAPE, HIT_TRIALS, hit_base + i * HIT_TRIALS) for i in range(HIT_SWEEPS)]
    miss_base = rng.randrange(2**31, 2**32)  # disjoint from every hit seed
    script = []
    for _ in range(max(1, round(ctx.seconds * SERVE_CHUNKS_PER_S))):
        chunk = [("hit", rng.choice(warm)) for _ in range(CHUNK["hit"])]
        for _ in range(CHUNK["miss"]):
            chunk.append(("miss", sweep(MISS_SHAPE, MISS_TRIALS, miss_base)))
            miss_base += MISS_TRIALS
        rng.shuffle(chunk)
        script += chunk
    return warm, script


def serve_load(ctx, sock_path, requests, tag, spans, probe_every=0):
    path = ctx.work / f"{tag}-requests.jsonl"
    path.write_text("".join(json.dumps(req) + "\n" for req in requests))
    args = ["serve-load", f"--socket={sock_path}", f"--requests={path}",
            f"--probe-every={probe_every}"]
    doc, _ = ctx.harness_json(args + (["--spans"] if spans else []))
    return doc


def finished(served):
    return served["done"].startswith("{") and json.loads(served["done"])["type"] == "done"


def proc_cpu_s(pid):
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def start_server(ctx, tag, warm):
    """Starts a server on a fresh cache and pre-warms it; returns the
    process, its socket path, cache dir and the set-up time."""
    # Relative to the checkout root (every child's cwd): unix socket paths
    # are limited to ~107 bytes, and the checkout may sit deep.
    sock_path = os.path.relpath(ctx.work / f"{tag}.sock", ctx.root)
    cache = ctx.work / f"{tag}-cache"
    started = time.perf_counter()
    with open(ctx.work / f"{tag}.err", "w") as err:
        proc = ctx.spawn([ctx.cli, "serve", f"--socket={sock_path}",
                          f"--threads={SERVE_THREADS}", f"--cache={cache}"],
                         stdout=subprocess.DEVNULL, stderr=err)
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"serve exited {proc.returncode} during start-up")
        if time.perf_counter() - started > 60:
            raise RuntimeError("serve did not accept connections within 60 s")
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                probe.connect(str(ctx.root / sock_path))
            break
        except OSError:
            time.sleep(0.001)
    warmed = serve_load(ctx, sock_path, warm, f"{tag}-warm", False)
    if not all(finished(r) for r in warmed["requests"]):
        raise RuntimeError("pre-warm failed")
    return proc, sock_path, cache, time.perf_counter() - started


def stop_server(proc):
    proc.terminate()
    proc.wait(timeout=30)


def serve_pass(ctx, warm, script, tag, setup_reps, spans):
    """Set-up and one run of the script, probing the host's speed before
    each set-up and at every chunk boundary of the script."""
    setup = []
    for rep in range(setup_reps):
        ctx.probe()
        proc, sock_path, cache, seconds = start_server(ctx, f"{tag}{rep}", warm)
        setup.append(seconds)
        if rep + 1 < setup_reps:
            stop_server(proc)
    cpu0 = proc_cpu_s(proc.pid)
    load = serve_load(ctx, sock_path, [req for _, req in script], tag, spans,
                      probe_every=CHUNK["hit"] + CHUNK["miss"])
    cpu = proc_cpu_s(proc.pid) - cpu0
    rss = proc_peak_rss_mb(proc.pid)
    stop_server(proc)
    return {"setup": setup, "served": load["requests"], "wall_s": load["wall_s"],
            "cpu_s": cpu, "peak_rss_mb": rss, "cache": cache}


def verify_serve(ctx, out, warm, script, served, cache):
    """Re-runs every served row directly and times the result cache;
    returns the failed request count and the harness's timings."""
    entries = [("hit", req) for req in warm] + [(cls, req) for cls, req in script if cls == "miss"]
    script_path = ctx.work / "check-script.jsonl"
    script_path.write_text("".join(json.dumps({"class": cls, "request": req}) + "\n"
                                   for cls, req in entries))
    lookup_dir = ctx.work / "lookup-copy"
    shutil.copytree(cache, lookup_dir)
    check, _ = ctx.harness_json(["serve-check", f"--script={script_path}",
                                 f"--lookup-dir={lookup_dir}",
                                 f"--store-dir={ctx.work / 'store-scratch'}"])
    direct = {json.dumps(req, sort_keys=True): sums
              for (_, req), sums in zip(entries, check["checksums"])}
    out.check("serve_mix.lookup_rows_match", check["lookup_misses"] == 0,
              f"{check['lookup_misses']} hit keys missing or different in the store")
    failed = 0
    for i, ((cls, req), r) in enumerate(zip(script, served)):
        expected_cached = req["trials"] if cls == "hit" else 0
        ok = finished(r) and r["completed"] and r["cached"] == expected_cached \
            and r["checksums"] == direct[json.dumps(req, sort_keys=True)]
        if not ok:
            failed += 1
            out.check(f"serve_mix.request{i}", False, r["done"])
    out.check("serve_mix.rows_equal_direct_runs", failed == 0, f"{failed} requests differ")
    return failed, check


def class_values(script, served, cls, key):
    return [r[key] for (c, _), r in zip(script, served) if c == cls]


def block_metrics(script, served):
    """Wall, request rate and hit p50/p90 of each whole block of the
    script, in script order."""
    size = BLOCK_CHUNKS * (CHUNK["hit"] + CHUNK["miss"])
    blocks, begin_s = [], 0.0
    for at in range(0, len(script) - size + 1, size):
        part = served[at:at + size]
        wall = part[-1]["end_s"] - begin_s
        begin_s = part[-1]["end_s"]
        hit = class_values(script[at:at + size], part, "hit", "latency_s")
        blocks.append({"wall_s": wall, "requests_per_s": size / wall,
                       "hit_p50_s": statistics.median(hit), "hit_p90_s": percentile(hit, 90)})
    return blocks


def serve_mix(ctx, traced):
    out = Outcome()
    warm, script = serve_script(ctx)
    run = serve_pass(ctx, warm, script, "a", SERVE_SETUP_REPS, spans=False)
    served = run["served"]
    out.attempted = len(script)
    out.failed, check = verify_serve(ctx, out, warm, script, served, run["cache"])

    hit = class_values(script, served, "hit", "latency_s")
    miss = class_values(script, served, "miss", "latency_s")
    blocks = block_metrics(script, served)

    def med(key):
        return statistics.median(b[key] for b in blocks)
    out.end_to_end = {
        "setup_s": statistics.median(run["setup"]),
        "wall_s": med("wall_s"),
        "cpu_s": run["cpu_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_per_s": med("requests_per_s"),
        "op_p50_ms": 1e3 * med("hit_p50_s"),
        "op_tail_ms": 1e3 * med("hit_p90_s"),
    }
    rows = sum(len(r["checksums"]) for r in served)
    cached = sum(r["cached"] for r in served)
    out.named = {"requests_per_s": out.end_to_end["ops_per_s"],
                 "hit_p50_ms": out.end_to_end["op_p50_ms"],
                 "hit_p90_ms": out.end_to_end["op_tail_ms"],
                 "miss_p50_ms": 1e3 * statistics.median(miss),
                 "miss_p90_ms": 1e3 * percentile(miss, 90),
                 "script_wall_s": run["wall_s"], "blocks": len(blocks),
                 "hit_requests": len(hit), "miss_requests": len(miss)}
    per_chunk_rows = CHUNK["hit"] * HIT_TRIALS + CHUNK["miss"] * MISS_TRIALS
    out.counts = {"rows": rows, "cached_rows": cached,
                  "scripted_hit_ratio": CHUNK["hit"] * HIT_TRIALS / per_chunk_rows}
    out.check("serve_mix.hit_ratio_matches_script",
              cached * per_chunk_rows == rows * CHUNK["hit"] * HIT_TRIALS, f"{cached}/{rows}")
    out.check("serve_mix.class_sizes", len(hit) >= 100 and len(miss) >= 100,
              f"hit={len(hit)} miss={len(miss)}")
    if traced:
        spans = serve_pass(ctx, warm, script, "b", 1, spans=True)
        traced_served = spans["served"]
        out.check("serve_mix.traced_equals_untraced",
                  [r["checksums"] for r in traced_served] == [r["checksums"] for r in served])
        miss_t = class_values(script, traced_served, "miss", "latency_s")
        out.set_layers({
            "cache.lookup_us_p50": 1e6 * statistics.median(check["lookup_s"]),
            "cache.store_us_p50": 1e6 * statistics.median(check["store_s"]),
            "cache.hit_ratio": cached / rows,
            "serve.accepted_ms_p50": 1e3 * statistics.median(
                class_values(script, traced_served, "hit", "accepted_s")),
            "serve.first_row_ms_p50": 1e3 * statistics.median(
                class_values(script, traced_served, "miss", "first_row_s")),
            "serve.miss_p50_ms": 1e3 * statistics.median(miss_t),
            "serve.miss_p90_ms": 1e3 * percentile(miss_t, 90),
            "serve.dedup_rows": sum(class_values(script, traced_served, "miss", "cached")),
            "trace_overhead_frac": spans["wall_s"] / run["wall_s"] - 1.0,
        })
    return out


# CPUs each workload is pinned to (run.py).  serve_mix's service and client
# share one: every request wakes threads back and forth, and a wakeup on
# another vCPU waits for the host to run that vCPU, so on two CPUs a slow
# phase of the host stretched the hit p90 of a run from 3.6 to 4.7-7.2 ms
# while on one it stayed within 3%.
CPUS = {
    "frontier": 1,
    "async_trace": 1,
    "paper_grid": GRID_THREADS,
    "serve_mix": 1,
}

WORKLOADS = {
    "frontier": frontier,
    "async_trace": async_trace,
    "paper_grid": paper_grid,
    "serve_mix": serve_mix,
}
