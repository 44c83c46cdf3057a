// Scenario `table1` — Table 1 (Section 3.2.2): amortized message complexity
// of the oblivious algorithm for the paper's four token-count regimes.
//
// Each row's trial seeds come from a SplitMix64 chain on the row's base
// seed, every trial runs as one JobBatch job, and samples fold in trial order
// with Summary::of, so the statistics are bit-identical at any thread count.
// The trials are not keyed: each row labels its tokens with its own
// TokenSpace, which a RunKey cannot name.  The default churn schedule opts
// into the global --adversary=/--trace= axis (the oblivious analysis needs
// an oblivious schedule, but probing it against others is exactly what the
// axis is for; a trace override pins n to the recording).

#include <algorithm>
#include <memory>
#include <vector>

#include "adversary/registry.hpp"
#include "common/mathx.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "scenarios/run_axes.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/bounds.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/simulator.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {
namespace {

struct Regime {
  const char* label;
  const char* paper_bound;
  double exponent;  // k = n^exponent
  bool funnel;      // run the two-phase funnel (vs the small-s direct branch)
};

constexpr Regime kRegimes[] = {
    {"k=n^(2/3)", "O(n^2)            ", 2.0 / 3.0, false},
    {"k=n      ", "O(n^(7/4) polylog)", 1.0, true},
    {"k=n^(3/2)", "O(n^(11/8) polylog)", 1.5, true},
    {"k=n^2    ", "O(n polylog)      ", 2.0, true},
};

TokenSpacePtr make_space(std::size_t n, std::size_t k) {
  // k <= n: k sources with one token each; k > n: n sources with k/n tokens.
  std::vector<TokenSpace::SourceSpec> specs;
  if (k <= n) {
    for (std::size_t i = 0; i < k; ++i) {
      specs.push_back({static_cast<NodeId>(i * n / k), 1});
    }
  } else {
    const auto per = static_cast<std::uint32_t>(k / n);
    const auto extra = static_cast<std::uint32_t>(k % n);
    for (std::size_t v = 0; v < n; ++v) {
      specs.push_back({static_cast<NodeId>(v), per + (v < extra ? 1u : 0u)});
    }
  }
  return std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
}

struct TrialOut {
  double sample = 0.0;  // amortized cost; 0 when the run did not complete
  std::size_t centers = 0;
  bool ok = false;
  RunMetrics metrics;  ///< merged two-phase totals for the probe series
};

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const std::size_t seeds = ctx.trials_or(quick ? 2 : 3);
  const RunAxes axes = RunAxes::resolve(ctx);
  std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{32, 48} : std::vector<std::size_t>{32, 48, 64};
  // A file-backed override fixes the node count at recording time.
  if (const std::optional<TracePinned> pin = trace_pinned(axes)) {
    sizes.assign(1, pin->n);
  }

  struct RowSpec {
    std::size_t n;
    const Regime* regime;
    std::size_t k;
    TokenSpacePtr space;
  };
  std::vector<RowSpec> rows;
  for (const std::size_t n : sizes) {
    for (const Regime& regime : kRegimes) {
      const auto k = std::max<std::size_t>(
          2, static_cast<std::size_t>(powd(static_cast<double>(n), regime.exponent)));
      rows.push_back({n, &regime, k, make_space(n, k)});
    }
  }

  std::vector<std::vector<TrialOut>> out(rows.size(), std::vector<TrialOut>(seeds));

  // Observer plane: one pre-allocated probe per trial, registered with the
  // sink in deterministic row/trial order after the batch.
  ProbeSink* const sink = ctx.probe_sink();
  TimelineRecorder* const timeline = ctx.timeline();
  std::vector<RoundProbe> probes;
  if (sink != nullptr) {
    probes.assign(rows.size() * seeds, RoundProbe(sink->spec().every));
  }

  JobBatch batch;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::uint64_t chain = 1000 + rows[r].n * 7 + rows[r].k;
    for (std::size_t i = 0; i < seeds; ++i) {
      const std::uint64_t seed = splitmix64(chain);
      batch.add([&out, &rows, &axes, &probes, sink, timeline, seeds, r, i,
                 seed] {
        const RowSpec& spec = rows[r];
        const std::size_t n = spec.n;
        AdversarySpec churn{"churn", {}};
        churn.set("edges", static_cast<std::uint64_t>(4 * n))
            .set("churn",
                 static_cast<std::uint64_t>(std::max<std::size_t>(1, n / 8)))
            .set("sigma", static_cast<std::uint64_t>(3));
        const std::unique_ptr<Adversary> adversary = axes.build(churn, n, seed);
        ObliviousMsOptions opts;
        opts.seed = seed ^ 0x5bd1e995u;
        if (spec.regime->funnel) {
          opts.force_phase1 = true;
          opts.f_override = static_cast<std::size_t>(
              clampd(powd(static_cast<double>(n), 0.5) *
                         powd(static_cast<double>(spec.k), 0.25),
                     2.0, static_cast<double>(n) / 2.0));
        }
        if (sink != nullptr) opts.telemetry.probe = &probes[r * seeds + i];
        opts.telemetry.timeline = timeline;
        const ObliviousMsResult result =
            run_oblivious_multi_source(n, spec.space, *adversary, opts);
        TrialOut& t = out[r][i];
        t.metrics = result.total;
        if (!result.completed) return;  // sample stays 0, as in the bench
        t.ok = true;
        t.centers = result.num_centers;
        t.sample =
            result.total.unicast.total() / static_cast<double>(spec.k);
      });
    }
  }
  batch.run(ctx.pool());

  ScenarioTable table;
  table.title =
      "Table 1: amortized message complexity vs token count (" +
      (axes.adversary_overridden() ? axes.adversary_label()
                                   : std::string("oblivious churn adversary")) +
      "; mean over " + std::to_string(seeds) + " seeds)";
  table.columns = {"n", "regime", "k", "s", "centers", "measured amortized",
                   "paper bound", "meas/bound", "paper row"};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const RowSpec& spec = rows[r];
    std::vector<double> samples;
    samples.reserve(seeds);
    std::size_t centers_seen = 0;
    for (std::size_t i = 0; i < seeds; ++i) {
      samples.push_back(out[r][i].sample);
      if (out[r][i].ok) centers_seen = out[r][i].centers;
      if (sink != nullptr) {
        sink->add_series("table1 n=" + std::to_string(spec.n) +
                             " k=" + std::to_string(spec.k) +
                             " trial=" + std::to_string(i),
                         probes[r * seeds + i].samples(), out[r][i].metrics);
      }
    }
    const Summary measured = Summary::of(std::move(samples));
    const double bound = bounds::table1_amortized(spec.n, spec.k);
    table.rows.push_back(
        {std::to_string(spec.n), spec.regime->label, std::to_string(spec.k),
         std::to_string(spec.space->num_sources()), std::to_string(centers_seen),
         TablePrinter::num(measured.mean, 1), TablePrinter::num(bound, 0),
         TablePrinter::num(measured.mean / bound, 4), spec.regime->paper_bound});
  }
  table.note =
      "Expected shape: measured amortized cost decreases as k grows (the\n"
      "paper's rows fall from O(n^2) at k=n^(2/3) to O(n polylog) at k=n^2),\n"
      "and meas/bound stays well below 1 (the bound is a worst-case w.h.p.\n"
      "guarantee; realized walks hit centers far sooner).";
  return {"table1", {std::move(table)}};
}

}  // namespace

void register_table1(ScenarioRegistry& registry) {
  registry.add({"table1",
                "Table 1: amortized oblivious cost across four token regimes",
                scenario_axis_params(),
                run,
                /*adversary_axis=*/true,
                /*algo_axis=*/false,
                /*fault_axis=*/false,
                /*probe_axis=*/true});
}

}  // namespace dyngossip
