// Scenario `ablations` — the design-choice ablations of DESIGN.md:
//   A. Algorithm 1 request-priority order (paper vs reversed vs new-last),
//   B. Algorithm 2 walk-step probability (pseudocode 1/d vs text d/n),
//   C. LB adversary free-graph mode (spanning forest vs all free edges).
//
// Emits three tables, all (row × trial) pairs flattened into one parallel
// batch; every adversary comes from the registry.  The --adversary=/--trace=
// axis overrides the schedules of ablations A and B (a trace override also
// pins their n to the recording); ablation C *is* an adversary ablation
// (the lb family's graph mode), so it always runs lb.

#include <memory>
#include <vector>

#include "algo/registry.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/single_source.hpp"
#include "engine/unicast_engine.hpp"
#include "scenarios/run_axes.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/simulator.hpp"

namespace dyngossip {
namespace {

const char* priority_name(RequestPriority p) {
  switch (p) {
    case RequestPriority::kPaper:
      return "paper (new>idle>contrib)";
    case RequestPriority::kReversed:
      return "reversed (new>contrib>idle)";
    case RequestPriority::kNewLast:
      return "new-last (idle>contrib>new)";
  }
  return "?";
}

// ---- A. request-priority order ------------------------------------------

struct PriorityTrial {
  bool ok = false;
  double rounds = 0, requests = 0, over_new = 0, over_idle = 0, over_contrib = 0;
};

PriorityTrial priority_trial(const RunAxes& axis, std::size_t n,
                             std::uint32_t k, RequestPriority priority,
                             bool cutter, std::uint64_t seed) {
  AdversarySpec def{cutter ? "cutter" : "churn", {}};
  def.set("edges", static_cast<std::uint64_t>(3 * n));
  if (cutter) {
    def.set("p", 0.6);
  } else {
    def.set("churn", static_cast<std::uint64_t>(n / 6));
  }
  const std::unique_ptr<Adversary> adversary = axis.build(def, n, seed);
  SingleSourceConfig cfg{n, k, 0, priority};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), *adversary,
                       SingleSourceNode::initial_knowledge(cfg), k);
  const RunMetrics m = engine.run(static_cast<Round>(400 * n * k));
  PriorityTrial t;
  if (!m.completed) return t;
  t.ok = true;
  t.rounds = static_cast<double>(m.rounds);
  t.requests = static_cast<double>(m.unicast.request);
  std::uint64_t c0 = 0, c1 = 0, c2 = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto& node = static_cast<const SingleSourceNode&>(engine.node(v));
    c0 += node.requests_over(EdgeClass::kNew);
    c1 += node.requests_over(EdgeClass::kIdle);
    c2 += node.requests_over(EdgeClass::kContributive);
  }
  t.over_new = static_cast<double>(c0);
  t.over_idle = static_cast<double>(c1);
  t.over_contrib = static_cast<double>(c2);
  return t;
}

// ---- B. walk-probability variant ----------------------------------------

struct WalkTrial {
  bool ok = false;
  double p1_rounds = 0, walk = 0, virt = 0, total = 0;
};

WalkTrial walk_trial(const RunAxes& axis, std::size_t n,
                     const TokenSpacePtr& space, bool pseudocode, std::size_t i) {
  AdversarySpec def{"churn", {}};
  def.set("edges", static_cast<std::uint64_t>(4 * n))
      .set("churn", static_cast<std::uint64_t>(n / 8))
      .set("sigma", static_cast<std::uint64_t>(3));
  const std::unique_ptr<Adversary> adversary = axis.build(def, n, 29'000 + i);
  ObliviousMsOptions opts;
  opts.seed = 31'000 + i;
  opts.force_phase1 = true;
  opts.f_override = std::max<std::size_t>(2, n / 8);
  opts.pseudocode_walk_prob = pseudocode;
  const ObliviousMsResult r = run_oblivious_multi_source(n, space, *adversary, opts);
  WalkTrial t;
  if (!r.completed) return t;
  t.ok = true;
  t.p1_rounds = static_cast<double>(r.phase1_rounds);
  t.walk = static_cast<double>(r.walk_real_steps);
  t.virt = static_cast<double>(r.walk_virtual_steps);
  t.total = static_cast<double>(r.total.unicast.total());
  return t;
}

// ---- C. LB adversary graph mode -----------------------------------------

struct LbTrial {
  bool ok = false;
  double rounds = 0, broadcasts = 0, amortized = 0, rate = 0;
};

LbTrial lb_trial(std::size_t n, std::size_t k, bool full, std::size_t i) {
  Rng rng(37'000 + i);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[rng.next_below(n)].set(t);
  AdversarySpec spec{"lb", {}};
  if (full) spec.set("full", "true");
  AdversaryBuildContext bctx;
  bctx.n = n;
  bctx.seed = rng.next();
  bctx.k = k;
  bctx.initial_knowledge = &init;
  const std::unique_ptr<Adversary> adversary =
      AdversaryRegistry::global().build(spec, bctx);
  AlgoBuildContext task;
  task.n = n;
  task.k = static_cast<std::uint32_t>(k);
  task.cap = static_cast<Round>(100 * n * k);
  task.initial_knowledge = &init;
  const RunResult r = run_algo(AlgoSpec{"flooding", {}}, task, *adversary);
  LbTrial t;
  if (!r.completed) return t;
  t.ok = true;
  t.rounds = static_cast<double>(r.rounds);
  t.broadcasts = static_cast<double>(r.metrics.broadcasts);
  t.amortized = r.amortized(k);
  t.rate = static_cast<double>(r.metrics.learnings) / static_cast<double>(r.rounds);
  return t;
}

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const std::size_t seeds = ctx.trials_or(quick ? 2 : 3);
  const RunAxes axis = RunAxes::resolve(ctx);
  // A trace override pins the A/B grids to the recording's node count.
  const std::optional<TracePinned> pin = trace_pinned(axis);

  // A. rows: priority × adversary (the override collapses the adversary
  // sub-axis — both default cases would be the same schedule).
  const std::size_t a_n = pin ? pin->n : quick ? 24 : 48;
  const auto a_k = static_cast<std::uint32_t>(2 * a_n);
  struct ARow {
    RequestPriority priority;
    bool cutter;
  };
  std::vector<ARow> a_rows;
  const std::vector<bool> a_cases =
      axis.overridden() ? std::vector<bool>{false} : std::vector<bool>{false, true};
  for (const RequestPriority priority :
       {RequestPriority::kPaper, RequestPriority::kReversed,
        RequestPriority::kNewLast}) {
    for (const bool cutter : a_cases) a_rows.push_back({priority, cutter});
  }

  // B. rows: walk variant (n-gossip token space shared, read-only).
  const std::size_t b_n = pin ? pin->n : quick ? 32 : 64;
  std::vector<TokenSpace::SourceSpec> b_specs;
  for (std::size_t v = 0; v < b_n; ++v) {
    b_specs.push_back({static_cast<NodeId>(v), 1});
  }
  const auto b_space = std::make_shared<TokenSpace>(TokenSpace::contiguous(b_specs));
  const bool b_variants[] = {false, true};

  // C. rows: free-graph mode.
  const std::size_t c_n = quick ? 24 : 32;
  const std::size_t c_k = c_n / 2;
  const bool c_modes[] = {false, true};

  std::vector<std::vector<PriorityTrial>> a_out(a_rows.size(),
                                                std::vector<PriorityTrial>(seeds));
  std::vector<std::vector<WalkTrial>> b_out(2, std::vector<WalkTrial>(seeds));
  std::vector<std::vector<LbTrial>> c_out(2, std::vector<LbTrial>(seeds));

  JobBatch batch;
  for (std::size_t r = 0; r < a_rows.size(); ++r) {
    for (std::size_t i = 0; i < seeds; ++i) {
      batch.add([&a_out, &a_rows, &axis, a_n, a_k, r, i] {
        a_out[r][i] = priority_trial(axis, a_n, a_k, a_rows[r].priority,
                                     a_rows[r].cutter, 23'000 + i);
      });
    }
  }
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < seeds; ++i) {
      batch.add([&b_out, &b_space, &b_variants, &axis, b_n, r, i] {
        b_out[r][i] = walk_trial(axis, b_n, b_space, b_variants[r], i);
      });
      batch.add([&c_out, &c_modes, c_n, c_k, r, i] {
        c_out[r][i] = lb_trial(c_n, c_k, c_modes[r], i);
      });
    }
  }
  batch.run(ctx.pool());

  ScenarioTable a_table;
  a_table.title = "Ablation A: request priority (n=" + std::to_string(a_n) +
                  ", k=" + std::to_string(a_k) + ")";
  a_table.columns = {"priority", "adversary", "rounds", "requests",
                     "requests over new", "over idle", "over contrib"};
  for (std::size_t r = 0; r < a_rows.size(); ++r) {
    RunningStat rounds, requests, over_new, over_idle, over_contrib;
    for (std::size_t i = 0; i < seeds; ++i) {
      const PriorityTrial& t = a_out[r][i];
      if (!t.ok) continue;
      rounds.add(t.rounds);
      requests.add(t.requests);
      over_new.add(t.over_new);
      over_idle.add(t.over_idle);
      over_contrib.add(t.over_contrib);
    }
    a_table.rows.push_back({priority_name(a_rows[r].priority),
                            axis.overridden()
                                ? axis.adversary_label()
                                : std::string(a_rows[r].cutter ? "cutter p=0.6"
                                                               : "churn"),
                            TablePrinter::num(rounds.mean(), 0),
                            TablePrinter::num(requests.mean(), 0),
                            TablePrinter::num(over_new.mean(), 0),
                            TablePrinter::num(over_idle.mean(), 0),
                            TablePrinter::num(over_contrib.mean(), 0)});
  }

  ScenarioTable b_table;
  b_table.title = "Ablation B: Algorithm 2 walk probability (n=" +
                  std::to_string(b_n) + ", n-gossip)";
  b_table.columns = {"variant", "phase1 rounds", "walk msgs", "virtual steps",
                     "total msgs", "completed"};
  for (std::size_t r = 0; r < 2; ++r) {
    RunningStat p1r, walk, virt, total;
    std::size_t done = 0;
    for (std::size_t i = 0; i < seeds; ++i) {
      const WalkTrial& t = b_out[r][i];
      if (!t.ok) continue;
      ++done;
      p1r.add(t.p1_rounds);
      walk.add(t.walk);
      virt.add(t.virt);
      total.add(t.total);
    }
    b_table.rows.push_back({b_variants[r] ? "pseudocode 1/d(u)" : "text d(u)/n (lazy)",
                            TablePrinter::num(p1r.mean(), 0),
                            TablePrinter::num(walk.mean(), 0),
                            TablePrinter::num(virt.mean(), 0),
                            TablePrinter::num(total.mean(), 0),
                            std::to_string(done) + "/" + std::to_string(seeds)});
  }
  b_table.note =
      "The lazy d/n walk (the analysis' virtual n-regular multigraph)\n"
      "trades many virtual steps for few messages; the pseudocode's 1/d\n"
      "variant walks aggressively — similar message totals here because\n"
      "phase 1 ends at the realized hitting time either way.";

  ScenarioTable c_table;
  c_table.title = "Ablation C: LB adversary — spanning forest vs all free edges (n=" +
                  std::to_string(c_n) + ", k=" + std::to_string(c_k) + ")";
  c_table.columns = {"graph mode", "rounds", "broadcasts", "amortized",
                     "learnings/round"};
  for (std::size_t r = 0; r < 2; ++r) {
    RunningStat rounds, broadcasts, amortized, rate;
    for (std::size_t i = 0; i < seeds; ++i) {
      const LbTrial& t = c_out[r][i];
      if (!t.ok) continue;
      rounds.add(t.rounds);
      broadcasts.add(t.broadcasts);
      amortized.add(t.amortized);
      rate.add(t.rate);
    }
    c_table.rows.push_back(
        {c_modes[r] ? "all free edges (paper-verbatim)" : "spanning forest",
         TablePrinter::num(rounds.mean(), 0), TablePrinter::num(broadcasts.mean(), 0),
         TablePrinter::num(amortized.mean(), 0), TablePrinter::num(rate.mean(), 2)});
  }
  c_table.note =
      "Both modes throttle learning identically in order of magnitude —\n"
      "the forest substitution (DESIGN.md) preserves the potential-argument\n"
      "dynamics while keeping round graphs O(n)-sized.  (This table ablates\n"
      "the lb family itself, so --adversary/--trace do not replace it.)";

  return {"ablations",
          {std::move(a_table), std::move(b_table), std::move(c_table)}};
}

}  // namespace

void register_ablations(ScenarioRegistry& registry) {
  registry.add({"ablations",
                "DESIGN.md ablations: request priority, walk prob, LB graph mode",
                scenario_axis_params(),
                run,
                /*adversary_axis=*/true});
}

}  // namespace dyngossip
