// Scenario `sigma_stable_churn` — the high-churn but σ-interval-stable
// stress family (ROADMAP follow-up to PR 2).
//
// Sweeps σ × churn-rate under SigmaStableChurnAdversary and runs the
// request-based Algorithm 1 at every point.  Fresh-graph adversaries starve
// request-response at scale (no request edge survives resampling); under
// σ-interval stability any request sent in the first σ-1 rounds of an
// interval is answered over a live edge, so the small grids complete even
// with the whole edge set replaced per interval, and the large grids
// complete at n = 10⁴ under 3%-of-edges-per-round turnover in σ-sized
// bursts.  Expected shape: completion on every σ >= 2 row while TC grows
// with the churn rate, and the competitive residual stays bounded by
// O(n² + nk).

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

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const bool xlarge = ctx.xlarge();
  // xlarge reuses the whole large-regime shape (k = 256, 8n edges, 3%/round
  // churn, single trial) at n = 10⁵ — only the size grid differs.
  const bool large = ctx.large() || xlarge;
  const std::size_t seeds = ctx.trials_or(large ? 1 : quick ? 2 : 3);
  const std::vector<std::size_t> sizes =
      xlarge       ? std::vector<std::size_t>{100000}
      : ctx.large() ? std::vector<std::size_t>{1024, 4096, 10000}
      : quick       ? std::vector<std::size_t>{24, 48}
                    : std::vector<std::size_t>{64, 128};

  const RunAxes axes = RunAxes::resolve(ctx);
  if (axes.overridden()) {
    std::vector<AxisRowSpec> axis_rows;
    for (const std::size_t n : sizes) {
      const auto k = static_cast<std::uint32_t>(large ? 256 : 2 * n);
      const Round cap = static_cast<Round>(
          large ? 100 * static_cast<std::uint64_t>(k) + n
                : static_cast<std::uint64_t>(quick ? 40 : 100) * n * k);
      AxisRowSpec row{n, k, cap, 4, {}};
      // Canonical sigma default (a representative grid point), consulted
      // only under an --algo-only override.
      row.def = AdversarySpec{"sigma", {}};
      row.def.set("edges", static_cast<std::uint64_t>(large ? 8 * n : 3 * n))
          .set("turnover", large ? 0.12 : 0.25)
          .set("interval", static_cast<std::uint64_t>(4));
      axis_rows.push_back(std::move(row));
    }
    return {"sigma_stable_churn",
            {run_axes_table(ctx, axes, AlgoSpec{"single_source", {}},
                            std::move(axis_rows), 11'000)}};
  }
  // xlarge keeps one representative burst size: sigma-burst completion needs
  // ~5x the rounds of steady churn at equal per-round turnover (see the
  // large grid), so the full sigma sweep at n = 10^5 would cost hours; one
  // ~10^4-round row is the frontier statement, the sweep lives at large.
  const std::vector<Round> sigmas =
      xlarge ? std::vector<Round>{4} : std::vector<Round>{2, 4, 8};
  // Churn rate: fraction of the edge set rewired per interval.  1.0 is the
  // maximum-turnover regime fresh-graph adversaries cannot make runnable;
  // the small grids sweep up to it.  At scale, completion time grows
  // super-linearly in the *per-round* turnover (tokens flow only while a
  // node borders a holder), so the large grid pins per-round turnover at 3%
  // of the edge set — ~2x the PR-2 churn row — and lets sigma sweep how
  // bursty the same churn volume is (6% / 12% / 24% of all edges replaced
  // at once).
  const std::vector<double> churn_rates = {0.25, 1.0};

  struct RowSpec {
    std::size_t n;
    std::uint32_t k;
    Round sigma;
    double churn_rate;
    std::size_t target_edges;
    Round cap;
  };
  std::vector<RowSpec> rows;
  for (const std::size_t n : sizes) {
    const auto k = static_cast<std::uint32_t>(large ? 256 : 2 * n);
    const Round cap = static_cast<Round>(
        large ? 100 * static_cast<std::uint64_t>(k) + n
              : static_cast<std::uint64_t>(quick ? 40 : 100) * n * k);
    const std::size_t target_edges = large ? 8 * n : 3 * n;
    for (const Round sigma : sigmas) {
      if (large) {
        rows.push_back({n, k, sigma, 0.03 * sigma, target_edges, cap});
      } else {
        for (const double rate : churn_rates) {
          rows.push_back({n, k, sigma, rate, target_edges, cap});
        }
      }
    }
  }

  const std::string fault_text = FaultSpec{}.to_string();
  std::vector<KeyedTrial> sweep;
  sweep.reserve(rows.size() * seeds);
  for (const RowSpec& spec : rows) {
    AdversarySpec adv{"sigma", {}};
    adv.set("edges", static_cast<std::uint64_t>(spec.target_edges))
        .set("turnover", spec.churn_rate)
        .set("interval", static_cast<std::uint64_t>(spec.sigma));
    const std::string adv_text = adv.to_string();
    for (std::size_t i = 0; i < seeds; ++i) {
      KeyedTrial trial;
      trial.key = make_run_key(
          "single_source", adv_text, fault_text, spec.n, spec.k, 1, spec.cap,
          11'000 + 17 * spec.n + 5 * spec.sigma + i +
              static_cast<std::uint64_t>(100.0 * spec.churn_rate));
      trial.series = "sigma_stable_churn " + adv_text +
                     " n=" + std::to_string(spec.n) + " trial=" + std::to_string(i);
      sweep.push_back(std::move(trial));
    }
  }
  const std::vector<MemoOutcome> out = memoized_sweep(sweep, ctx);

  ScenarioTable table;
  table.title =
      xlarge ? "sigma-stable churn at the frontier: Algorithm 1 under "
               "per-interval rewiring (n = 10^5, k = 256, 3% of edges per "
               "round in sigma-sized bursts)"
      : large ? "sigma-stable churn at scale: Algorithm 1 under per-interval "
              "rewiring (n up to 10^4, k = 256, 3% of edges per round in "
              "sigma-sized bursts)"
            : "sigma-stable churn: Algorithm 1 under sigma-interval rewiring "
              "(bound: residual <= O(n^2 + nk); k = 2n)";
  table.columns = {"n",     "k",  "sigma",    "churn/interval",
                   "done",  "messages", "TC(E)", "residual/(n^2+nk)",
                   "rounds"};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const RowSpec& spec = rows[r];
    RunningStat msgs, tc, norm, rounds;
    std::size_t completed = 0;
    for (std::size_t i = 0; i < seeds; ++i) {
      const RunMetrics& m = out[r * seeds + i].row.metrics;
      msgs.add(static_cast<double>(m.unicast.total()));
      tc.add(static_cast<double>(m.tc));
      norm.add(m.competitive_residual(1.0) /
               bounds::single_source_messages(spec.n, spec.k));
      rounds.add(static_cast<double>(m.rounds));
      completed += m.completed ? 1 : 0;
    }
    const auto budget = static_cast<std::size_t>(
        spec.churn_rate * static_cast<double>(spec.target_edges));
    table.rows.push_back(
        {std::to_string(spec.n), std::to_string(spec.k), std::to_string(spec.sigma),
         std::to_string(budget) + " (" +
             TablePrinter::num(100.0 * spec.churn_rate, 0) + "%)",
         std::to_string(completed) + "/" + std::to_string(seeds),
         TablePrinter::num(msgs.mean(), 0), TablePrinter::num(tc.mean(), 0),
         TablePrinter::num(norm.mean(), 3), TablePrinter::num(rounds.mean(), 0)});
  }
  table.note =
      large ? "Expected shape: every row COMPLETES at n up to 10^4 — the\n"
              "regime fresh-graph resampling starves forever (a request edge\n"
              "never survives into its answer round).  sigma-interval\n"
              "stability keeps request-response alive: at the same 3%/round\n"
              "churn volume, larger sigma means bigger bursts but fewer\n"
              "boundaries, so rounds rise while the residual stays bounded."
            : "Expected shape: every sigma >= 2 row COMPLETES — even at 100%\n"
              "churn per interval, where the whole edge set turns over every\n"
              "sigma rounds (the regime where fresh-graph resampling starves\n"
              "request-response forever).  TC(E) falls as sigma grows (fewer\n"
              "boundaries per run) and residual/(n^2+nk) stays bounded by a\n"
              "small constant throughout.";
  return {"sigma_stable_churn", {std::move(table)}};
}

}  // namespace

void register_sigma_stable_churn(ScenarioRegistry& registry) {
  registry.add({"sigma_stable_churn",
                "sigma-interval-stable high-churn stress: Algorithm 1 across "
                "sigma x churn-rate",
                scenario_fault_axis_params(),
                run,
                /*adversary_axis=*/true,
                /*algo_axis=*/true,
                /*fault_axis=*/true,
                /*probe_axis=*/true,
                /*cache_axis=*/true});
}

}  // namespace dyngossip
