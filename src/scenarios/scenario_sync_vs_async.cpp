// Scenario `sync_vs_async` — the asynchronous engine plane's flagship:
// continuous-time push / push-pull (Poisson node clocks, src/async/) against
// their synchronous round-engine counterparts on shared topologies.
//
// Table 1 crosses {static, churn} schedules with {neighbor_exchange,
// flooding, async_push, async_push_pull}: at σ = 1 and rate = 1 one schedule
// round equals one expected activation per node, so the sync and async
// `rounds` columns are directly comparable (for the async rows `rounds` is
// the schedule rounds the last event reached ≈ elapsed clock time, and
// `activations` counts clock firings).
//
// Table 2 is the smoothing grid: a fixed ring base trace replayed through
// the `smoothed:` family at increasing flips-per-round, sync and async.
// The smoothed-analysis prediction (Dinitz, Fineman, Gilbert & Newport; see
// PAPERS.md) is that even a tiny amount of random perturbation collapses
// the ring's Θ(n) diameter bottleneck — the `rounds` column should FALL as
// flips grow, in both engines.
//
// Every trial is a keyed trial run through memoized_sweep (Table 1 rows are
// cacheable; smoothed rows are file-backed and never cache), statistics
// fold in trial order, and the async engine is serial by design — so output
// is bit-identical at any thread count (CI diffs 1/2/8-thread runs).

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "cache/memo_sweep.hpp"
#include "common/table.hpp"
#include "fault/fault_spec.hpp"
#include "graph/graph.hpp"
#include "scenarios/run_axes.hpp"
#include "scenarios/scenarios.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

/// Writes (once) the deterministic ring base trace the smoothing grid
/// perturbs: n nodes, edges (v, v+1 mod n), held for `rounds` rounds.  The
/// content is a pure function of the name-encoded shape, and the writer
/// publishes by atomic rename, so an existing file is complete and
/// byte-identical — reuse it.  The path goes into a `smoothed:base=` spec,
/// where ',' separates keys, so a temp directory that contains one, or
/// does not exist, is refused as a spec error (exit 2) naming TMPDIR.
std::string ring_base_trace(std::size_t n, Round rounds) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir = fs::temp_directory_path(ec);
  if (ec) {
    throw AdversarySpecError("the temp directory (TMPDIR) is unusable: " +
                             ec.message());
  }
  if (dir.string().find(',') != std::string::npos) {
    throw AdversarySpecError(
        "the temp directory (TMPDIR) '" + dir.string() +
        "' contains ',', which the adversary spec grammar uses as the key "
        "separator; point TMPDIR at a directory without ','");
  }
  const fs::path path = dir / ("dyngossip_sync_vs_async_ring_n" +
                               std::to_string(n) + "_r" +
                               std::to_string(rounds) + ".dgt");
  if (!fs::exists(path)) {
    Graph ring(n);
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      ring.add_edge(v, static_cast<NodeId>((v + 1) % n));
    }
    const std::unique_ptr<TraceWriter> writer = open_trace_writer(
        path.string(), static_cast<std::uint32_t>(n), /*seed=*/0, "");
    for (Round r = 0; r < rounds; ++r) writer->append_round(ring);
    writer->finish();
  }
  return path.string();
}

/// The engine tag of an algorithm spec ("unicast" / "broadcast" / "async").
const char* engine_of(const AlgoSpec& algo) {
  return algo_engine_name(AlgoRegistry::global().find(algo.family)->engine);
}

struct GridCell {
  std::string label;   ///< row label for the adversary column
  AdversarySpec adv;
  AlgoSpec algo;
  std::size_t n;
  std::uint32_t k;
  Round cap;
};

/// Runs `cells` × `trials` through the memoized sweep and folds the shared
/// sync-vs-async table (one row per cell × trial, checksum last).
ScenarioTable grid_table(const ScenarioContext& ctx,
                         const std::vector<GridCell>& cells,
                         std::size_t trials, std::uint64_t seed_base,
                         std::string title, std::string note) {
  const std::string fault_text = FaultSpec{}.to_string();
  std::vector<KeyedTrial> sweep;
  sweep.reserve(cells.size() * trials);
  for (const GridCell& cell : cells) {
    const std::string algo_text = cell.algo.to_string();
    for (std::size_t i = 0; i < trials; ++i) {
      KeyedTrial trial;
      trial.key = make_run_key(algo_text, cell.adv.to_string(), fault_text,
                               cell.n, cell.k, 1, cell.cap,
                               seed_base + 37 * cell.n + i);
      trial.series = "sync_vs_async " + algo_text + " " + cell.label +
                     " n=" + std::to_string(cell.n) + " trial=" + std::to_string(i);
      sweep.push_back(std::move(trial));
    }
  }
  const std::vector<MemoOutcome> out = memoized_sweep(sweep, ctx);

  ScenarioTable table;
  table.title = std::move(title);
  // Column order is load-bearing for CI's jq gates: "done" stays at index 6
  // and "checksum" stays last (the async smoke keys on both).
  table.columns = {"adversary", "algo",   "engine",      "n",
                   "k",         "trial",  "done",        "messages",
                   "activations", "rounds", "status",    "coverage",
                   "checksum"};
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const GridCell& cell = cells[c];
    for (std::size_t i = 0; i < trials; ++i) {
      const CachedResult& t = out[c * trials + i].row;
      table.rows.push_back(
          {cell.label, cell.algo.to_string(), engine_of(cell.algo),
           std::to_string(cell.n), std::to_string(t.k_realized),
           std::to_string(i), t.metrics.completed ? "yes" : "no",
           TablePrinter::num(static_cast<double>(t.metrics.total_messages()), 0),
           TablePrinter::num(static_cast<double>(t.metrics.virtual_steps), 0),
           TablePrinter::num(static_cast<double>(t.metrics.rounds), 0),
           run_status_name(t.metrics.status),
           TablePrinter::num(t.metrics.coverage, 4), checksum_hex(t.checksum)});
    }
  }
  table.note = std::move(note);
  return table;
}

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const bool large = ctx.large() || ctx.xlarge();

  const RunAxes axes = RunAxes::resolve(ctx);
  if (axes.overridden()) {
    // Axis override: the shared table, defaulting to the async flagship
    // family over the scenario's canonical churn schedule.
    std::vector<AxisRowSpec> rows;
    for (const std::size_t n : quick ? std::vector<std::size_t>{24}
                                     : std::vector<std::size_t>{24, 48}) {
      AxisRowSpec row{n, static_cast<std::uint32_t>(8), 0, 1, {}};
      row.def = AdversarySpec{"churn", {}};
      row.def.set("edges", static_cast<std::uint64_t>(3 * n))
          .set("churn", static_cast<std::uint64_t>(n / 8));
      rows.push_back(std::move(row));
    }
    return {"sync_vs_async",
            {run_axes_table(ctx, axes, AlgoSpec{"async_push_pull", {}},
                            std::move(rows), 11'000)}};
  }

  const std::size_t trials = ctx.trials_or(quick ? 1 : 2);

  // ---- Table 1: sync vs async on shared topologies -----------------------
  const std::vector<std::size_t> sizes = large ? std::vector<std::size_t>{96, 192}
                                        : quick ? std::vector<std::size_t>{24}
                                                : std::vector<std::size_t>{24, 48};
  const std::vector<AlgoSpec> algos = {AlgoSpec{"neighbor_exchange", {}},
                                       AlgoSpec{"flooding", {}},
                                       AlgoSpec{"async_push", {}},
                                       AlgoSpec{"async_push_pull", {}}};
  std::vector<GridCell> pairs;
  for (const std::size_t n : sizes) {
    const AdversarySpec stat{"static", {}};  // connected G(n, p), default p
    AdversarySpec churn{"churn", {}};
    churn.set("edges", static_cast<std::uint64_t>(3 * n))
        .set("churn", static_cast<std::uint64_t>(n / 8));
    for (const AlgoSpec& algo : algos) {
      pairs.push_back({"static", stat, algo, n, 8, 0});
      pairs.push_back({"churn", churn, algo, n, 8, 0});
    }
  }
  ScenarioTable table1 = grid_table(
      ctx, pairs, trials, 11'000,
      "sync vs async engines: shared topologies (sigma = 1, rate = 1: one "
      "schedule round = one expected activation per node; k = 8, single "
      "source)",
      "Expected shape: every family completes on both schedules.  The async\n"
      "rows' `rounds` column is elapsed clock time (schedule rounds the last\n"
      "event reached) and `activations` counts Poisson clock firings — at\n"
      "rate = 1 roughly n activations per round, each moving at most one\n"
      "(push) or two (push-pull) tokens, against the sync engines' full\n"
      "neighborhood exchanges per round.");

  // ---- Table 2: smoothing-rate × sync/async grid -------------------------
  const std::size_t n2 = 32;
  const std::uint32_t k2 = 4;
  const Round cap2 = 4096;  // also the base trace length: never exhausted
  const std::string base = ring_base_trace(n2, cap2);
  const std::vector<AlgoSpec> algos2 = {AlgoSpec{"neighbor_exchange", {}},
                                        AlgoSpec{"async_push", {}},
                                        AlgoSpec{"async_push_pull", {}}};
  std::vector<GridCell> smoothing;
  for (const std::size_t flips : {0, 1, 4, 16}) {
    AdversarySpec adv{"smoothed", {}};
    adv.set("base", base).set("flips", static_cast<std::uint64_t>(flips));
    for (const AlgoSpec& algo : algos2) {
      smoothing.push_back({"ring flips=" + std::to_string(flips), adv, algo,
                           n2, k2, cap2});
    }
  }
  ScenarioTable table2 = grid_table(
      ctx, smoothing, trials, 12'000,
      "smoothing grid: ring base trace under smoothed: perturbation "
      "(n = 32, k = 4), sync and async",
      "Expected shape: `rounds` FALLS as flips grow, in BOTH engines — the\n"
      "smoothed-analysis speedup direction.  At flips = 0 the schedule is a\n"
      "pure ring and spreading pays the Θ(n) diameter; each per-round random\n"
      "pair flip is a chance at a long-range chord, so even flips = 1 cuts\n"
      "the diameter bottleneck and flips = 16 approaches expander-like\n"
      "spreading.  (Smoothed rows are file-backed and never result-cached.)");

  return {"sync_vs_async", {std::move(table1), std::move(table2)}};
}

}  // namespace

void register_sync_vs_async(ScenarioRegistry& registry) {
  registry.add({"sync_vs_async",
                "async engine flagship: Poisson-clock push/push-pull vs sync "
                "engines + smoothing grid",
                scenario_fault_axis_params(),
                run,
                /*adversary_axis=*/true,
                /*algo_axis=*/true,
                /*fault_axis=*/true,
                /*probe_axis=*/true,
                /*cache_axis=*/true});
}

}  // namespace dyngossip
