// Scenario `single_source` — Theorem 3.1: Single-Source-Unicast has
// 1-adversary-competitive message complexity O(n² + nk).
//
// Three adversary regimes (churn, fresh graph, adaptive request cutter)
// probe the bound; every (row × trial) runs as one pool job and the
// statistics fold in trial order, so output is bit-identical at any thread
// count.  All adversaries come from the registry, and the scenario honours
// the global --adversary=/--trace=/--algo= axes: an override runs the
// requested algorithm spec against the requested schedule (or the
// scenario's default churn family) instead of the default three-regime
// grid.

#include <string>
#include <vector>

#include "cache/memo_sweep.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fault/fault_spec.hpp"
#include "scenarios/run_axes.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/bounds.hpp"

namespace dyngossip {
namespace {

struct Case {
  const char* name;
  double cut_p;  // <0: churn, >=0: request cutter with this p
  bool fresh;
};

constexpr Case kCases[] = {
    {"churn", -1.0, false},
    {"fresh-graph", -1.0, true},
    {"cutter p=0.7", 0.7, false},
    {"cutter p=1.0", 1.0, false},
};

AdversarySpec case_spec(const Case& c, std::size_t n, std::size_t target_edges) {
  if (c.cut_p >= 0) {
    AdversarySpec spec{"cutter", {}};
    spec.set("p", c.cut_p).set("edges", static_cast<std::uint64_t>(3 * n));
    return spec;
  }
  if (c.fresh) {
    AdversarySpec spec{"fresh", {}};
    spec.set("edges", static_cast<std::uint64_t>(target_edges));
    return spec;
  }
  AdversarySpec spec{"churn", {}};
  spec.set("edges", static_cast<std::uint64_t>(target_edges))
      .set("churn", static_cast<std::uint64_t>(n / 8));
  return spec;
}

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const bool xlarge = ctx.xlarge();
  // xlarge shares the large-regime shape (k = 256, 8n-edge churn, one
  // trial); it just pushes n to the 10^5 frontier.
  const bool large = ctx.large() || xlarge;
  const std::vector<std::size_t> sizes =
      xlarge      ? std::vector<std::size_t>{100000}
      : ctx.large() ? std::vector<std::size_t>{1024, 4096, 10000}
      : quick     ? std::vector<std::size_t>{24, 48}
                  : std::vector<std::size_t>{24, 48, 96};
  const auto k_of = [large](std::size_t n) {
    return static_cast<std::uint32_t>(large ? 256 : 2 * n);
  };
  const auto cap_of = [large, quick](std::size_t n, std::uint32_t k) {
    return static_cast<Round>(
        large ? 100 * static_cast<std::uint64_t>(k) + n
              : static_cast<std::uint64_t>(quick ? 40 : 100) * n * k);
  };

  const RunAxes axes = RunAxes::resolve(ctx);
  if (axes.overridden()) {
    std::vector<AxisRowSpec> rows;
    for (const std::size_t n : sizes) {
      AxisRowSpec row{n, k_of(n), cap_of(n, k_of(n)), 4, {}};
      // The scenario's canonical default schedule (the grid's churn case),
      // consulted only under an --algo-only override.
      row.def = case_spec(kCases[0], n, large ? 8 * n : 3 * n);
      rows.push_back(std::move(row));
    }
    return {"single_source",
            {run_axes_table(ctx, axes, AlgoSpec{"single_source", {}},
                            std::move(rows), 9'000)}};
  }

  // Large grids: one trial, churn only (fresh-graph resampling at n = 10^4
  // never lets a request edge survive into its answer round, and the full
  // request cutter needs a 50n-round horizon — hours), k fixed at 256 so
  // the n² completeness term dominates, and a denser graph (8n edges) so
  // dissemination chains survive the churn.
  const std::size_t seeds = ctx.trials_or(large ? 1 : quick ? 2 : 3);

  struct RowSpec {
    std::size_t n;
    std::uint32_t k;
    Round cap;
    std::size_t target_edges;
    Case c;
  };
  std::vector<RowSpec> rows;
  for (const std::size_t n : sizes) {
    const std::uint32_t k = k_of(n);
    const Round cap = cap_of(n, k);
    const std::size_t target_edges = large ? 8 * n : 3 * n;
    if (large) {
      rows.push_back({n, k, cap, target_edges, kCases[0]});  // churn
    } else {
      for (const Case& c : kCases) rows.push_back({n, k, cap, target_edges, c});
    }
  }

  // Keyed trials: every trial is keyed by its canonical
  // (algo × adversary × shape × seed) tuple, so a --cache= re-run serves
  // the grid from disk and skips straight to aggregation.
  const std::string fault_text = FaultSpec{}.to_string();
  std::vector<KeyedTrial> sweep;
  sweep.reserve(rows.size() * seeds);
  for (const RowSpec& spec : rows) {
    // p=1 never completes: evaluate the bound on a shorter horizon.
    const Round horizon =
        spec.c.cut_p >= 1.0 ? static_cast<Round>(50 * spec.n) : spec.cap;
    for (std::size_t i = 0; i < seeds; ++i) {
      KeyedTrial trial;
      trial.key = make_run_key(
          "single_source", case_spec(spec.c, spec.n, spec.target_edges).to_string(),
          fault_text, spec.n, spec.k, 1, horizon, 9'000 + 13 * spec.n + i);
      trial.series = "single_source " + std::string(spec.c.name) +
                     " n=" + std::to_string(spec.n) + " trial=" + std::to_string(i);
      sweep.push_back(std::move(trial));
    }
  }
  const std::vector<MemoOutcome> out = memoized_sweep(sweep, ctx);

  ScenarioTable table;
  table.title =
      xlarge ? "Theorem 3.1 at the frontier: 1-adversary-competitive "
               "messages, single source (n = 10^5; k = 256, 8n-edge churn)"
      : large
          ? "Theorem 3.1 at scale: 1-adversary-competitive messages, single "
            "source (n up to 10^4; k = 256, 8n-edge churn)"
          : "Theorem 3.1: 1-adversary-competitive messages, single source "
            "(bound: total - TC(E) <= O(n^2 + nk); k = 2n)";
  table.columns = {"adversary", "n",     "k",        "done",
                   "tokens",    "completeness", "requests", "TC(E)",
                   "residual",  "residual/(n^2+nk)", "rounds"};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const RowSpec& spec = rows[r];
    RunningStat tokens, completeness, requests, tc, residual, norm, rounds;
    std::size_t completed = 0;
    for (std::size_t i = 0; i < seeds; ++i) {
      const RunMetrics& m = out[r * seeds + i].row.metrics;
      tokens.add(static_cast<double>(m.unicast.token));
      completeness.add(static_cast<double>(m.unicast.completeness));
      requests.add(static_cast<double>(m.unicast.request));
      tc.add(static_cast<double>(m.tc));
      const double res = m.competitive_residual(1.0);
      residual.add(res);
      norm.add(res / bounds::single_source_messages(spec.n, spec.k));
      rounds.add(static_cast<double>(m.rounds));
      completed += m.completed ? 1 : 0;
    }
    table.rows.push_back(
        {spec.c.name, std::to_string(spec.n), std::to_string(spec.k),
         std::to_string(completed) + "/" + std::to_string(seeds),
         TablePrinter::num(tokens.mean(), 0), TablePrinter::num(completeness.mean(), 0),
         TablePrinter::num(requests.mean(), 0), TablePrinter::num(tc.mean(), 0),
         TablePrinter::num(residual.mean(), 0), TablePrinter::num(norm.mean(), 3),
         TablePrinter::num(rounds.mean(), 0)});
  }
  table.note =
      large ? "Expected shape: residual/(n^2+nk) keeps FALLING as n grows at\n"
              "fixed k — the realized traffic is Θ(n·deg·rounds) while the\n"
              "bound's n^2 term grows quadratically (the slack the paper's\n"
              "lower bound says no algorithm can close in the worst case)."
            : "Expected shape: residual/(n^2+nk) stays bounded by a small constant\n"
              "across ALL adversaries and sizes — including the full request cutter,\n"
              "where the algorithm never finishes but every wasted request is paid\n"
              "for by the adversary's TC budget (Definition 1.3).";
  return {"single_source", {std::move(table)}};
}

}  // namespace

void register_single_source(ScenarioRegistry& registry) {
  registry.add({"single_source",
                "Theorem 3.1: competitive messages, single source, 3 adversaries",
                scenario_fault_axis_params(),
                run,
                /*adversary_axis=*/true,
                /*algo_axis=*/true,
                /*fault_axis=*/true,
                /*probe_axis=*/true,
                /*cache_axis=*/true});
}

}  // namespace dyngossip
