// Scenario `lb_broadcast` — Theorem 2.3: the strongly adaptive adversary
// forces every token-forwarding local-broadcast algorithm to spend
// Ω(n²/log² n) amortized messages.
//
// Phase flooding vs the Section-2 adversary
// over an n sweep, reporting amortized broadcasts against the paper's lower
// and upper bounds plus the empirical growth exponent.

#include <memory>
#include <vector>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "common/mathx.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/tokens.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/bounds.hpp"
#include "sim/runner/parallel.hpp"

namespace dyngossip {
namespace {

struct TrialOut {
  bool ok = false;
  double amortized = 0, rounds = 0, rate = 0;
};

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const std::size_t seeds = ctx.trials_or(quick ? 2 : 3);
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{24, 32, 48}
            : std::vector<std::size_t>{24, 32, 48, 64, 96};

  std::vector<std::vector<TrialOut>> out(sizes.size(), std::vector<TrialOut>(seeds));
  JobBatch batch;
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    for (std::size_t i = 0; i < seeds; ++i) {
      batch.add([&out, &sizes, r, i] {
        const std::size_t n = sizes[r];
        const std::size_t k = n / 2;
        Rng rng(7'000 + 31 * n + i);
        const auto init = one_holder_per_token(n, k, rng);
        AdversaryBuildContext bctx;
        bctx.n = n;
        bctx.seed = rng.next();
        bctx.k = k;
        bctx.initial_knowledge = &init;
        const std::unique_ptr<Adversary> adversary =
            AdversaryRegistry::global().build(AdversarySpec{"lb", {}}, bctx);
        AlgoBuildContext task;
        task.n = n;
        task.k = static_cast<std::uint32_t>(k);
        task.cap = static_cast<Round>(100 * n * k);
        task.initial_knowledge = &init;
        const RunResult result =
            run_algo(AlgoSpec{"flooding", {}}, task, *adversary);
        if (!result.completed) return;
        TrialOut& t = out[r][i];
        t.ok = true;
        t.amortized = result.amortized(k);
        t.rounds = static_cast<double>(result.rounds);
        t.rate = static_cast<double>(result.metrics.learnings) /
                 static_cast<double>(result.rounds);
      });
    }
  }
  batch.run(ctx.pool());

  ScenarioTable table;
  table.title =
      "Theorem 2.3: local-broadcast lower bound (phase flooding vs LB adversary)";
  table.columns = {"n",       "k",       "rounds", "amortized broadcasts",
                   "LB n^2/log^2 n", "meas/LB", "UB n^2", "meas/UB",
                   "learnings/round"};
  std::vector<double> xs, ys;
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    const std::size_t n = sizes[r];
    const std::size_t k = n / 2;
    RunningStat amortized, rounds, rate;
    for (std::size_t i = 0; i < seeds; ++i) {
      const TrialOut& t = out[r][i];
      if (!t.ok) continue;
      amortized.add(t.amortized);
      rounds.add(t.rounds);
      rate.add(t.rate);
    }
    const double lb = bounds::broadcast_lb_amortized(n);
    const double ub = bounds::broadcast_ub_amortized(n);
    table.rows.push_back(
        {std::to_string(n), std::to_string(k), TablePrinter::num(rounds.mean(), 0),
         TablePrinter::num(amortized.mean(), 0), TablePrinter::num(lb, 0),
         TablePrinter::num(amortized.mean() / lb, 2), TablePrinter::num(ub, 0),
         TablePrinter::num(amortized.mean() / ub, 2),
         TablePrinter::num(rate.mean(), 2)});
    // Rows with no completed trial would feed 0 into the log-log fit.
    if (amortized.count() > 0 && amortized.mean() > 0) {
      xs.push_back(static_cast<double>(n));
      ys.push_back(amortized.mean());
    }
  }
  const std::string slope =
      xs.size() >= 2 ? TablePrinter::num(loglog_slope(xs, ys), 2)
                     : "n/a (too few completed sizes)";
  table.note =
      "Empirical growth exponent of amortized cost vs n: " + slope +
      "\nExpected shape: exponent ~2 modulo log factors (between n^2/log^2 n\n"
      "and n^2); meas/LB >= 1 everywhere; learning rate per round stays\n"
      "O(log n) (log2 n ranges " +
      TablePrinter::num(log2_clamped(static_cast<double>(sizes.front())), 1) + ".." +
      TablePrinter::num(log2_clamped(static_cast<double>(sizes.back())), 1) +
      " over this sweep).";
  return {"lb_broadcast", {std::move(table)}};
}

}  // namespace

void register_lb_broadcast(ScenarioRegistry& registry) {
  // Deliberately NOT on the --adversary axis: the lower bound is a
  // statement about THIS strongly adaptive adversary (the lb family) —
  // swapping the schedule would no longer measure Theorem 2.3, and the lb
  // adversary itself cannot be rebuilt from a spec alone (it samples K'
  // against the run's initial knowledge; see `dyngossip adversaries`).
  registry.add({"lb_broadcast",
                "Theorem 2.3: Omega(n^2/log^2 n) broadcast lower bound",
                {},
                run});
}

}  // namespace dyngossip
