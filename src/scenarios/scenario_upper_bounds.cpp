// Scenario `upper_bounds` — Section 1/2 naive upper bounds: phase flooding,
// blind neighbor push, and Algorithm 1 against their amortized ceilings.
//
// Each trial runs all three algorithms on
// the same committed churn schedule (one pool job keeps them paired).  The
// shared schedule opts into the global --adversary=/--trace= axis — the
// pairing is preserved because the override replaces the schedule for all
// three algorithms at once (a trace override pins n to the recording).

#include <memory>
#include <vector>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/tokens.hpp"
#include "scenarios/run_axes.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/bounds.hpp"
#include "sim/runner/parallel.hpp"

namespace dyngossip {
namespace {

struct TrialOut {
  bool flood_ok = false, push_ok = false, uni_ok = false;
  double flood_am = 0, flood_rounds = 0, push_am = 0, uni_am = 0;
};

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const std::size_t seeds = ctx.trials_or(quick ? 2 : 3);
  const RunAxes axes = RunAxes::resolve(ctx);
  std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{24, 48} : std::vector<std::size_t>{24, 48, 96};
  // A file-backed override fixes the node count at recording time.
  if (const std::optional<TracePinned> pin = trace_pinned(axes)) {
    sizes.assign(1, pin->n);
  }

  std::vector<std::vector<TrialOut>> out(sizes.size(), std::vector<TrialOut>(seeds));
  JobBatch batch;
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    for (std::size_t i = 0; i < seeds; ++i) {
      batch.add([&out, &sizes, &axes, r, i] {
        const std::size_t n = sizes[r];
        const auto k = static_cast<std::uint32_t>(n);
        const std::uint64_t seed = 19'000 + 29 * n + i;
        AdversarySpec churn{"churn", {}};
        churn.set("edges", static_cast<std::uint64_t>(3 * n))
            .set("churn", static_cast<std::uint64_t>(n / 8))
            .set("sigma", static_cast<std::uint64_t>(3));
        Rng rng(seed);
        const std::vector<KnowledgeSet> init = one_holder_per_token(n, k, rng);
        TrialOut& slot = out[r][i];
        // One task for all three algorithms: n nodes, k tokens, K_v(0) the
        // random placement above (flooding, push) or node 0 (Algorithm 1).
        AlgoBuildContext task;
        task.n = n;
        task.k = k;
        task.initial_knowledge = &init;
        {
          const std::unique_ptr<Adversary> adversary = axes.build(churn, n, seed);
          task.cap = static_cast<Round>(10 * n * k);
          const RunResult res = run_algo(AlgoSpec{"flooding", {}}, task, *adversary);
          if (res.completed) {
            slot.flood_ok = true;
            slot.flood_am = res.amortized(k);
            slot.flood_rounds = static_cast<double>(res.rounds);
          }
        }
        {
          // Same schedule, trivial unicast push.
          const std::unique_ptr<Adversary> adversary = axes.build(churn, n, seed);
          task.cap = static_cast<Round>(100 * n * k);
          const RunResult res =
              run_algo(AlgoSpec{"neighbor_exchange", {}}, task, *adversary);
          if (res.completed) {
            slot.push_ok = true;
            slot.push_am = res.amortized(k);
          }
        }
        {
          // Same schedule, Algorithm 1.
          const std::unique_ptr<Adversary> adversary = axes.build(churn, n, seed);
          task.initial_knowledge = nullptr;
          const RunResult res =
              run_algo(AlgoSpec{"single_source", {}}, task, *adversary);
          if (res.completed) {
            slot.uni_ok = true;
            slot.uni_am = res.amortized(k);
          }
        }
      });
    }
  }
  batch.run(ctx.pool());

  ScenarioTable table;
  table.title =
      axes.adversary_overridden()
          ? "Naive upper bounds under " + axes.adversary_label() + " (k = n)"
          : "Naive upper bounds under benign churn (k = n)";
  table.columns = {"n",        "k",
                   "flooding amortized", "flood/n^2",
                   "blind push amortized", "push/n^2",
                   "Alg.1 amortized", "Alg.1/n",
                   "flood rounds"};
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    const std::size_t n = sizes[r];
    RunningStat flood_am, flood_rounds, uni_am, push_am;
    for (std::size_t i = 0; i < seeds; ++i) {
      const TrialOut& t = out[r][i];
      if (t.flood_ok) {
        flood_am.add(t.flood_am);
        flood_rounds.add(t.flood_rounds);
      }
      if (t.push_ok) push_am.add(t.push_am);
      if (t.uni_ok) uni_am.add(t.uni_am);
    }
    const double ub = bounds::broadcast_ub_amortized(n);
    table.rows.push_back({std::to_string(n), std::to_string(n),
                          TablePrinter::num(flood_am.mean(), 0),
                          TablePrinter::num(flood_am.mean() / ub, 3),
                          TablePrinter::num(push_am.mean(), 0),
                          TablePrinter::num(push_am.mean() / ub, 3),
                          TablePrinter::num(uni_am.mean(), 1),
                          TablePrinter::num(uni_am.mean() / static_cast<double>(n), 2),
                          TablePrinter::num(flood_rounds.mean(), 0)});
  }
  table.note =
      "Expected shape: flooding and the blind push both sit below (but on\n"
      "the order of) their n^2 amortized ceilings, while Algorithm 1's\n"
      "request discipline runs at a small multiple of the optimal n\n"
      "amortized messages per token (k = n) — the gap the paper quantifies.";
  return {"upper_bounds", {std::move(table)}};
}

}  // namespace

void register_upper_bounds(ScenarioRegistry& registry) {
  registry.add({"upper_bounds",
                "Sections 1-2: naive flooding / blind push / Alg.1 ceilings",
                scenario_axis_params(),
                run,
                /*adversary_axis=*/true});
}

}  // namespace dyngossip
