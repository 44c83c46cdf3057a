// Scenario `static_baseline` — Section 1's static reference point: spanning
// tree + token pipeline gives O(n² + nk) total, O(n²/k + n) amortized.
//
// A deterministic k sweep on a complete static graph (one seed), one
// keyed trial per k row: spanning_tree with all k tokens at node 0.

#include <string>
#include <vector>

#include "cache/memo_sweep.hpp"
#include "common/table.hpp"
#include "fault/fault_spec.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/bounds.hpp"

namespace dyngossip {
namespace {

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const std::size_t n = quick ? 32 : 64;
  const std::vector<std::uint32_t> ks =
      quick ? std::vector<std::uint32_t>{1, 8, 32, 128}
            : std::vector<std::uint32_t>{1, 4, 16, 64, 256, 1024};

  const std::string fault_text = FaultSpec{}.to_string();
  std::vector<KeyedTrial> sweep;
  sweep.reserve(ks.size());
  for (const std::uint32_t k : ks) {
    KeyedTrial trial;
    trial.key = make_run_key("spanning_tree", "static", fault_text, n, k, 1,
                             static_cast<Round>(10 * (n + k) + 100), /*seed=*/1);
    trial.series = "static_baseline k=" + std::to_string(k);
    sweep.push_back(std::move(trial));
  }
  const std::vector<MemoOutcome> out = memoized_sweep(sweep, ctx);

  ScenarioTable table;
  table.title = "Static baseline: spanning tree + pipeline (n=" +
                std::to_string(n) + ", complete graph)";
  table.columns = {"k",         "total msgs", "token msgs", "control msgs",
                   "amortized", "n^2/k + n",  "meas/bound", "rounds"};
  for (std::size_t r = 0; r < ks.size(); ++r) {
    const RunMetrics& m = out[r].row.metrics;
    if (!m.completed) continue;
    const std::uint32_t k = ks[r];
    const double bound = bounds::static_amortized(n, k);
    table.rows.push_back(
        {std::to_string(k), TablePrinter::big(m.unicast.total()),
         TablePrinter::big(m.unicast.token), TablePrinter::big(m.unicast.control),
         TablePrinter::num(m.amortized(k), 1), TablePrinter::num(bound, 1),
         TablePrinter::num(m.amortized(k) / bound, 3),
         std::to_string(m.rounds)});
  }
  table.note =
      "Expected shape: amortized cost tracks n^2/k + n — dominated by the\n"
      "O(n^2) tree construction for small k, flattening to ~n (each token\n"
      "crosses each of the n-1 tree edges exactly once) for k >= n.  The\n"
      "contrast with the dynamic Omega(n^2/log^2 n) bound (lb_broadcast)\n"
      "is the paper's headline motivation.";
  return {"static_baseline", {std::move(table)}};
}

}  // namespace

void register_static_baseline(ScenarioRegistry& registry) {
  registry.add({"static_baseline",
                "Section 1 static reference: spanning tree + token pipeline",
                {},
                run,
                /*adversary_axis=*/false,
                /*algo_axis=*/false,
                /*fault_axis=*/false,
                /*probe_axis=*/true,
                /*cache_axis=*/true});
}

}  // namespace dyngossip
