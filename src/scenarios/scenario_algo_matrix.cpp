// Scenario `algo_matrix` — the registry payoff made visible: every
// registered algorithm family crossed against a fixed adversary set, on a
// SHARED schedule per (adversary, trial), with messages and rounds side by
// side.
//
// This is the paper's central comparison as one table: Algorithm 1's
// O(n² + nk) request-based unicast versus the O(n²k) flooding and blind-push
// ceilings (Theorems 3.1 vs 2.3 / Section 1), with the multi-source and
// oblivious-funnel variants alongside.  Every cell dispatches through
// run_algo — the same entry point the CLI and the other flagships use — and
// the per-(adversary, trial) seed is shared across algorithm families, so
// within a column every algorithm faces the same oblivious schedule.
// `--algo=SPEC` restricts the matrix to one family spec; `--adversary=SPEC`
// (or `--trace=FILE`, which also pins n/k to the recording) replaces the
// adversary set with one schedule.  Pairs whose algorithm demands a static
// schedule (spanning_tree) are crossed only with the static column.

#include <optional>
#include <string>
#include <vector>

#include "cache/memo_sweep.hpp"
#include "common/table.hpp"
#include "fault/fault_spec.hpp"
#include "scenarios/run_axes.hpp"
#include "scenarios/scenarios.hpp"
#include "trace/trace_format.hpp"

namespace dyngossip {
namespace {

/// The default adversary column set: one static reference, one per-edge
/// churn regime, one sigma-interval burst regime — all oblivious, so the
/// shared-seed pairing across algorithm families is meaningful.
std::vector<AdversarySpec> default_schedules(std::size_t n) {
  AdversarySpec churn{"churn", {}};
  churn.set("edges", static_cast<std::uint64_t>(3 * n))
      .set("churn", static_cast<std::uint64_t>(std::max<std::size_t>(1, n / 8)))
      .set("sigma", static_cast<std::uint64_t>(3));
  AdversarySpec sigma{"sigma", {}};
  sigma.set("edges", static_cast<std::uint64_t>(3 * n))
      .set("turnover", 0.25)
      .set("interval", static_cast<std::uint64_t>(8));
  return {AdversarySpec{"static", {}}, std::move(churn), std::move(sigma)};
}

/// The default algorithm row set: one representative spec per registered
/// family.  Bare family specs except oblivious, which would silently take
/// its small-s shortcut (== multi_source) at matrix sizes; forcing the
/// walk phase with a small center count keeps the funnel visible.
std::vector<AlgoSpec> default_algos() {
  std::vector<AlgoSpec> algos;
  for (const AlgoFamily* family : AlgoRegistry::global().list()) {
    AlgoSpec spec{family->name, {}};
    if (family->name == "oblivious") {
      spec.set("force_phase1", "true").set("f", std::uint64_t{8});
    }
    algos.push_back(std::move(spec));
  }
  return algos;
}

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const std::size_t trials = ctx.trials_or(quick ? 1 : 2);
  const RunAxes axes = RunAxes::resolve(ctx);

  std::size_t n = quick ? 24 : 48;
  auto k = static_cast<std::uint32_t>(2 * n);
  if (const std::optional<TracePinned> pin = trace_pinned(axes)) {
    n = pin->n;
    if (pin->k != 0) k = pin->k;
  }
  const Round cap =
      static_cast<Round>(static_cast<std::uint64_t>(quick ? 40 : 100) * n * k);

  const std::vector<AdversarySpec> schedules =
      axes.adversary_overridden() ? std::vector<AdversarySpec>{axes.adversary_spec()}
                                  : default_schedules(n);
  const std::vector<AlgoSpec> algos = axes.algo_overridden()
                                          ? std::vector<AlgoSpec>{axes.algo_spec()}
                                          : default_algos();

  struct Cell {
    const AlgoSpec* algo = nullptr;
    const AdversarySpec* sched = nullptr;
    const AlgoFamily* family = nullptr;
  };
  std::vector<Cell> cells;
  std::size_t static_only_skips = 0;
  std::string skip_why;
  for (const AlgoSpec& algo : algos) {
    const AlgoFamily* family = AlgoRegistry::global().find(algo.family);
    for (const AdversarySpec& sched : schedules) {
      // The shared requires_static policy: a static recording passed via
      // --trace pairs with spanning_tree like any static schedule.
      if (!algo_schedule_compatible(*family, sched, &skip_why)) {
        ++static_only_skips;
        continue;
      }
      cells.push_back({&algo, &sched, family});
    }
  }
  if (cells.empty()) {
    // Only reachable when an --algo override is crossed exclusively with
    // incompatible schedules; fail like the other axis scenarios instead
    // of emitting a zero-row table that reads as missing data.
    throw AlgoSpecError(skip_why);
  }

  // Keyed trials in (cell, trial) order.  The seed depends on (n, trial)
  // only — every algorithm family in an adversary column faces the SAME
  // oblivious schedule.
  const std::string fault_text = FaultSpec{}.to_string();
  std::vector<KeyedTrial> sweep;
  sweep.reserve(cells.size() * trials);
  for (const Cell& cell : cells) {
    const std::string algo_text = cell.algo->to_string();
    const std::string sched_text = cell.sched->to_string();
    for (std::size_t i = 0; i < trials; ++i) {
      KeyedTrial trial;
      trial.key = make_run_key(algo_text, sched_text, fault_text, n, k, 4, cap,
                               47'000 + 37 * n + i);
      trial.cacheable = cacheable_adversary_family(cell.sched->family);
      trial.series = algo_text + " " + sched_text + " trial=" + std::to_string(i);
      sweep.push_back(std::move(trial));
    }
  }
  const std::vector<MemoOutcome> out = memoized_sweep(sweep, ctx);

  ScenarioTable table;
  table.title = "algorithm x adversary matrix (n=" + std::to_string(n) +
                ", k=" + std::to_string(k) +
                "; shared schedule per adversary column)";
  table.columns = {"algo",     "engine", "adversary", "trial", "done",
                   "messages", "rounds", "amortized", "checksum"};
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    for (std::size_t i = 0; i < trials; ++i) {
      const KeyedTrial& trial = sweep[c * trials + i];
      const CachedResult& t = out[c * trials + i].row;
      table.rows.push_back(
          {trial.key.algo, algo_engine_name(cell.family->engine),
           trial.key.adversary, std::to_string(i),
           t.metrics.completed ? "yes" : "no",
           TablePrinter::num(static_cast<double>(t.metrics.total_messages()), 0),
           TablePrinter::num(static_cast<double>(t.metrics.rounds), 0),
           TablePrinter::num(t.metrics.amortized(t.k_realized), 1),
           checksum_hex(t.checksum)});
    }
  }
  table.note =
      "Expected shape: the request-based algorithms (single_source,\n"
      "multi_source, oblivious) complete at a small multiple of n amortized\n"
      "messages per token, while the broadcast/push ceilings (flooding,\n"
      "random_flooding, neighbor_exchange) run at Theta(n^2) amortized —\n"
      "the gap Theorems 2.3 vs 3.1 quantify.  Each adversary column is ONE\n"
      "schedule (shared per-trial seed), so rows are directly comparable.";
  if (static_only_skips > 0) {
    table.note += "\n(" + std::to_string(static_only_skips) +
                  " static-only pair(s) skipped: spanning_tree asserts an "
                  "unchanging\nneighborhood and is crossed with the static "
                  "column only.)";
  }
  return {"algo_matrix", {std::move(table)}};
}

}  // namespace

void register_algo_matrix(ScenarioRegistry& registry) {
  registry.add({"algo_matrix",
                "every algorithm family x a fixed adversary set, shared "
                "schedule per column",
                scenario_algo_axis_params(),
                run,
                /*adversary_axis=*/true,
                /*algo_axis=*/true,
                /*fault_axis=*/false,
                /*probe_axis=*/true,
                /*cache_axis=*/true});
}

}  // namespace dyngossip
