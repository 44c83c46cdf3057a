// Scenario `single_source_time` — Theorem 3.4: on 3-edge-stable dynamic
// graphs, Single-Source-Unicast terminates within O(nk) rounds.
//
// Sweeps n and k under σ=3 churn and
// reports rounds/(nk); σ=1 rows show the algorithm still finishes without
// the stability assumption.  Every trial is a keyed trial, so --cache=
// serves a warm re-run from disk.

#include <algorithm>
#include <string>
#include <vector>

#include "adversary/registry.hpp"
#include "cache/memo_sweep.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fault/fault_spec.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/bounds.hpp"

namespace dyngossip {
namespace {

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const std::size_t seeds = ctx.trials_or(quick ? 2 : 3);
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16, 32} : std::vector<std::size_t>{16, 32, 64};

  struct RowSpec {
    std::size_t n;
    std::size_t kf;
    std::uint32_t k;
    Round sigma;
  };
  std::vector<RowSpec> rows;
  for (const std::size_t n : sizes) {
    for (const std::size_t kf : {1u, 2u, 4u}) {
      const auto k = static_cast<std::uint32_t>(kf * n);
      for (const Round sigma : {Round{3}, Round{1}}) {
        rows.push_back({n, kf, k, sigma});
      }
    }
  }

  const std::string fault_text = FaultSpec{}.to_string();
  std::vector<KeyedTrial> sweep;
  sweep.reserve(rows.size() * seeds);
  for (const RowSpec& spec : rows) {
    AdversarySpec churn{"churn", {}};
    churn.set("edges", static_cast<std::uint64_t>(3 * spec.n))
        .set("churn", static_cast<std::uint64_t>(std::max<std::size_t>(1, spec.n / 8)))
        .set("sigma", static_cast<std::uint64_t>(spec.sigma));
    const std::string churn_text = churn.to_string();
    for (std::size_t i = 0; i < seeds; ++i) {
      KeyedTrial trial;
      trial.key = make_run_key("single_source", churn_text, fault_text, spec.n,
                               spec.k, 1, static_cast<Round>(100 * spec.n * spec.k),
                               11'000 + 17 * spec.n + 3 * spec.kf + spec.sigma + i);
      trial.series = "single_source_time n=" + std::to_string(spec.n) +
                     " k=" + std::to_string(spec.k) +
                     " sigma=" + std::to_string(spec.sigma) +
                     " trial=" + std::to_string(i);
      sweep.push_back(std::move(trial));
    }
  }
  const std::vector<MemoOutcome> out = memoized_sweep(sweep, ctx);

  ScenarioTable table;
  table.title = "Theorem 3.4: O(nk) rounds on 3-edge-stable graphs";
  table.columns = {"n", "k", "sigma", "rounds", "nk", "rounds/nk", "completed"};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const RowSpec& spec = rows[r];
    RunningStat rounds;
    std::size_t done = 0;
    for (std::size_t i = 0; i < seeds; ++i) {
      const RunMetrics& m = out[r * seeds + i].row.metrics;
      if (!m.completed) continue;
      ++done;
      rounds.add(static_cast<double>(m.rounds));
    }
    const double nk = bounds::stable_round_bound(spec.n, spec.k);
    table.rows.push_back({std::to_string(spec.n), std::to_string(spec.k),
                          std::to_string(spec.sigma),
                          TablePrinter::num(rounds.mean(), 0),
                          TablePrinter::num(nk, 0),
                          TablePrinter::num(rounds.mean() / nk, 3),
                          std::to_string(done) + "/" + std::to_string(seeds)});
  }
  table.note =
      "Expected shape: rounds/nk bounded by a constant well below 1 for\n"
      "sigma=3 (Theorem 3.4's regime), and the ratio does not blow up with n\n"
      "or k.  sigma=1 rows show the bound degrades gracefully without the\n"
      "stability assumption.";
  return {"single_source_time", {std::move(table)}};
}

}  // namespace

void register_single_source_time(ScenarioRegistry& registry) {
  // Deliberately NOT on the --adversary axis: Theorem 3.4's round bound is
  // quantified over 3-edge-stable dynamic graphs specifically, so the
  // schedule family is part of the theorem statement being tested — the
  // paired single_source scenario carries the axis for free-form probing.
  registry.add({"single_source_time",
                "Theorem 3.4: O(nk) round bound under 3-edge-stable churn",
                {},
                run,
                /*adversary_axis=*/false,
                /*algo_axis=*/false,
                /*fault_axis=*/false,
                /*probe_axis=*/true,
                /*cache_axis=*/true});
}

}  // namespace dyngossip
