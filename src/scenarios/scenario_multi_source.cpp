// Scenario `multi_source` — Theorems 3.5 / 3.6: Multi-Source-Unicast.
//
// Table A sweeps the source count s at fixed n, k and checks the
// O(n²s + nk) competitive message bound (plus the empirical growth exponent
// of the completeness traffic in s); Table B checks the O(nk) round bound
// on 3-edge-stable churn.  Every trial is a keyed `multi_source` run
// (sources at i·(n/s), k/s tokens each; s divides n at every grid point),
// so a --cache= re-run serves the grid from disk and --probe records one
// series per trial.

#include <algorithm>
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

AdversarySpec churn_spec(std::size_t target_edges, std::size_t churn_per_round) {
  AdversarySpec spec{"churn", {}};
  spec.set("edges", static_cast<std::uint64_t>(target_edges))
      .set("churn", static_cast<std::uint64_t>(churn_per_round))
      .set("sigma", static_cast<std::uint64_t>(3));
  return spec;
}

/// One table row's trials: n nodes, s sources holding k tokens in all,
/// each trial on its own seed.
struct Row {
  std::size_t n;
  std::size_t s;
  std::uint32_t k;
  Round cap;
  AdversarySpec schedule;
  std::uint64_t seed0;  ///< trial i runs on seed0 + i
  std::string label;    ///< probe series prefix
};

/// The token count the family realizes for `k` requested over s sources:
/// max(1, k/s) tokens per source.
std::uint32_t realized_k(std::uint32_t k, std::size_t s) {
  const auto per_source = std::max<std::uint32_t>(1, k / static_cast<std::uint32_t>(s));
  return static_cast<std::uint32_t>(s) * per_source;
}

/// Runs every row's `seeds` trials as one memoized sweep, row-major.
std::vector<MemoOutcome> sweep_rows(const std::vector<Row>& rows,
                                    std::size_t seeds,
                                    const ScenarioContext& ctx) {
  const std::string fault_text = FaultSpec{}.to_string();
  std::vector<KeyedTrial> sweep;
  sweep.reserve(rows.size() * seeds);
  for (const Row& row : rows) {
    for (std::size_t i = 0; i < seeds; ++i) {
      KeyedTrial trial;
      trial.key = make_run_key("multi_source", row.schedule.to_string(),
                               fault_text, row.n, row.k, row.s, row.cap,
                               row.seed0 + i);
      trial.cacheable = true;
      trial.series = row.label + " trial=" + std::to_string(i);
      sweep.push_back(std::move(trial));
    }
  }
  return memoized_sweep(sweep, ctx);
}

/// Means over one row's completed trials.
struct RowStats {
  RunningStat tokens, completeness, requests, tc, residual, norm, rounds;
  std::size_t done = 0;

  RowStats(const Row& row, const MemoOutcome* trials, std::size_t seeds) {
    const double bound = bounds::multi_source_messages(row.n, row.k, row.s);
    for (std::size_t i = 0; i < seeds; ++i) {
      const RunMetrics& m = trials[i].row.metrics;
      if (!m.completed) continue;
      ++done;
      tokens.add(static_cast<double>(m.unicast.token));
      completeness.add(static_cast<double>(m.unicast.completeness));
      requests.add(static_cast<double>(m.unicast.request));
      tc.add(static_cast<double>(m.tc));
      const double res = m.competitive_residual(1.0);
      residual.add(res);
      norm.add(res / bound);
      rounds.add(static_cast<double>(m.rounds));
    }
  }
};

std::string done_of(const RowStats& st, std::size_t seeds) {
  return std::to_string(st.done) + "/" + std::to_string(seeds);
}

std::vector<std::string> time_cells(const Row& row, const RowStats& st,
                                    std::size_t seeds) {
  return {std::to_string(row.n), std::to_string(row.s), std::to_string(row.k),
          TablePrinter::num(st.rounds.mean(), 0),
          TablePrinter::num(
              st.rounds.mean() / bounds::stable_round_bound(row.n, row.k), 3),
          done_of(st, seeds)};
}

/// `--scale=large`: n ∈ {1024, 4096, 10000} with s = 4 sources, k = 256,
/// 8n-edge churn, one trial — the flat-snapshot engine path at 10⁴ nodes.
/// One row set feeds both the message-bound and the round-bound table.
ScenarioResult run_large(const ScenarioContext& ctx) {
  const std::size_t seeds = ctx.trials_or(1);
  constexpr std::size_t kSources = 4;
  const std::uint32_t k = realized_k(256, kSources);
  std::vector<Row> rows;
  for (const std::size_t n : {1024u, 4096u, 10000u}) {
    rows.push_back({n, kSources, k, static_cast<Round>(100 * k + n),
                    churn_spec(8 * n, n / 8), 13'000 + 7 * kSources,
                    "multi_source n=" + std::to_string(n)});
  }
  const std::vector<MemoOutcome> out = sweep_rows(rows, seeds, ctx);

  ScenarioTable msg_table;
  msg_table.title =
      "Theorem 3.5 at scale: O(n^2 s + nk) competitive messages "
      "(s = 4, k = 256, 8n-edge churn)";
  msg_table.columns = {"n",        "k",     "tokens",   "completeness",
                       "requests", "TC(E)", "residual", "residual/(n^2 s+nk)",
                       "rounds",   "done"};
  ScenarioTable time_table;
  time_table.title = "Theorem 3.6 at scale: rounds vs the O(nk) bound";
  time_table.columns = {"n", "s", "k", "rounds", "rounds/nk", "completed"};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    const RowStats st(row, &out[r * seeds], seeds);
    msg_table.rows.push_back(
        {std::to_string(row.n), std::to_string(row.k),
         TablePrinter::num(st.tokens.mean(), 0),
         TablePrinter::num(st.completeness.mean(), 0),
         TablePrinter::num(st.requests.mean(), 0),
         TablePrinter::num(st.tc.mean(), 0),
         TablePrinter::num(st.residual.mean(), 0),
         TablePrinter::num(st.norm.mean(), 3),
         TablePrinter::num(st.rounds.mean(), 0), done_of(st, seeds)});
    time_table.rows.push_back(time_cells(row, st, seeds));
  }
  msg_table.note =
      "Expected shape: residual/(n^2 s + nk) stays a small constant as n\n"
      "grows 10x — the n^2 s completeness term dominates at fixed k.";
  return {"multi_source", {std::move(msg_table), std::move(time_table)}};
}

ScenarioResult run(const ScenarioContext& ctx) {
  const RunAxes axes = RunAxes::resolve(ctx);
  if (axes.overridden()) {
    std::vector<AxisRowSpec> axis_rows;
    if (ctx.large()) {
      for (const std::size_t n : {1024u, 4096u, 10000u}) {
        AxisRowSpec row{n, 256, static_cast<Round>(100 * 256 + n),
                        /*sources=*/4, {}};
        row.def = churn_spec(8 * n, n / 8);
        axis_rows.push_back(std::move(row));
      }
    } else {
      const std::size_t n = ctx.quick() ? 32 : 64;
      AxisRowSpec row{n, static_cast<std::uint32_t>(4 * n), 0,
                      std::max<std::size_t>(2, n / 8), {}};
      row.def = churn_spec(3 * n, n / 8);
      axis_rows.push_back(std::move(row));
    }
    return {"multi_source",
            {run_axes_table(ctx, axes, AlgoSpec{"multi_source", {}},
                            std::move(axis_rows), 13'000)}};
  }
  if (ctx.large()) return run_large(ctx);
  const bool quick = ctx.quick();
  const std::size_t seeds = ctx.trials_or(quick ? 2 : 3);
  const std::size_t n = quick ? 32 : 64;
  const auto k_total = static_cast<std::uint32_t>(4 * n);

  // ---- Table A: message bound vs source count ---------------------------
  const std::vector<std::size_t> source_counts =
      quick ? std::vector<std::size_t>{2, 8, 32}
            : std::vector<std::size_t>{2, 4, 8, 16, 64};
  // ---- Table B: round bound on stable graphs ----------------------------
  const std::vector<std::size_t> ns =
      quick ? std::vector<std::size_t>{16, 32} : std::vector<std::size_t>{16, 32, 64};

  // Message rows first, then time rows: one sweep fans out every trial.
  std::vector<Row> rows;
  for (const std::size_t s : source_counts) {
    const std::uint32_t k = realized_k(k_total, s);
    rows.push_back({n, s, k, static_cast<Round>(200 * n * k),
                    churn_spec(3 * n, n / 8), 13'000 + 7 * s,
                    "multi_source s=" + std::to_string(s)});
  }
  for (const std::size_t nn : ns) {
    const std::size_t s = std::max<std::size_t>(2, nn / 4);
    const std::uint32_t k = realized_k(static_cast<std::uint32_t>(2 * nn), s);
    rows.push_back({nn, s, k, static_cast<Round>(200 * nn * k),
                    churn_spec(3 * nn, std::max<std::size_t>(1, nn / 8)),
                    15'000 + 5 * nn, "multi_source stable n=" + std::to_string(nn)});
  }
  const std::vector<MemoOutcome> out = sweep_rows(rows, seeds, ctx);

  ScenarioTable msg_table;
  msg_table.title = "Theorem 3.5: O(n^2 s + nk) competitive messages (n=" +
                    std::to_string(n) + ", k=" + std::to_string(k_total) + ")";
  msg_table.columns = {"s",     "k",        "tokens", "completeness",
                       "requests", "TC(E)", "residual", "residual/(n^2 s+nk)",
                       "rounds"};
  std::vector<double> s_axis, completeness_axis;
  for (std::size_t r = 0; r < source_counts.size(); ++r) {
    const Row& row = rows[r];
    const RowStats st(row, &out[r * seeds], seeds);
    msg_table.rows.push_back(
        {std::to_string(row.s), std::to_string(row.k),
         TablePrinter::num(st.tokens.mean(), 0),
         TablePrinter::num(st.completeness.mean(), 0),
         TablePrinter::num(st.requests.mean(), 0),
         TablePrinter::num(st.tc.mean(), 0),
         TablePrinter::num(st.residual.mean(), 0),
         TablePrinter::num(st.norm.mean(), 3),
         TablePrinter::num(st.rounds.mean(), 0)});
    // Rows with no completed trial would feed 0 into the log-log fit.
    if (st.completeness.count() > 0 && st.completeness.mean() > 0) {
      s_axis.push_back(static_cast<double>(row.s));
      completeness_axis.push_back(st.completeness.mean());
    }
  }
  msg_table.note =
      "Empirical exponent of completeness traffic vs s: " +
      (s_axis.size() >= 2 ? TablePrinter::num(loglog_slope(s_axis, completeness_axis), 2)
                          : std::string("n/a (too few completed rows)")) +
      " (paper: the n^2 s term is linear in s => ~1)";

  ScenarioTable time_table;
  time_table.title = "Theorem 3.6: O(nk) rounds on 3-edge-stable graphs";
  time_table.columns = {"n", "s", "k", "rounds", "rounds/nk", "completed"};
  for (std::size_t r = source_counts.size(); r < rows.size(); ++r) {
    const RowStats st(rows[r], &out[r * seeds], seeds);
    time_table.rows.push_back(time_cells(rows[r], st, seeds));
  }
  time_table.note =
      "Expected shape: completeness grows ~linearly in s (the n^2 s term);\n"
      "residual stays a small constant fraction of n^2 s + nk; rounds/nk\n"
      "bounded by a constant (Theorem 3.6).";

  return {"multi_source", {std::move(msg_table), std::move(time_table)}};
}

}  // namespace

void register_multi_source(ScenarioRegistry& registry) {
  registry.add({"multi_source",
                "Theorems 3.5/3.6: multi-source competitive messages + rounds",
                scenario_fault_axis_params(),
                run,
                /*adversary_axis=*/true,
                /*algo_axis=*/true,
                /*fault_axis=*/true,
                /*probe_axis=*/true,
                /*cache_axis=*/true});
}

}  // namespace dyngossip
