// Scenario `fault_sweep` — graceful-degradation grid: algorithm families
// crossed against drop-rate × crash-rate fault regimes on SHARED per-trial
// schedules.
//
// The paper's algorithms assume a perfect network; this sweep measures what
// each protocol's guarantees are worth when messages are lost and nodes
// crash.  The failure modes split cleanly by discipline: single_source's
// request loop retries lost payloads for free, so it absorbs moderate loss
// at a small message premium — but in the heavy-loss regime the protocol
// wedges, because message-optimality (Theorem 3.1) means each token rides
// on few payloads and past ~drop=0.7 the request/announce machinery stalls.
// The flooding ceilings re-offer every token every round and power through
// heavy loss (the crossover this sweep records), yet phase flooding is
// crash-brittle instead: a node down during token p's phase never hears p
// again.  Robustness is bought with the Theta(n^2) amortized cost of
// Theorem 2.3, and each family buys a different kind.
//
// Determinism: every trial runs under a position-keyed FaultPlan
// (fault/fault_plan.hpp), so the whole grid is reproducible and
// thread-count independent.  The (drop=0, crash=0) cells run with an
// INACTIVE plan and must be byte-identical to a fault-free baseline run of
// the same (algo, trial) — the `base` column records that comparison and CI
// gates on it.

#include <algorithm>
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

/// One fault regime of the grid (rendered from its canonical spec string).
struct Regime {
  double drop = 0.0;
  double crash = 0.0;
  double recover = 0.0;
};

ScenarioResult run(const ScenarioContext& ctx) {
  const bool quick = ctx.quick();
  const std::size_t trials = ctx.trials_or(quick ? 3 : 5);
  const std::size_t n = ctx.get_size("n", quick ? 24 : 40, 4, 100'000);
  const auto k = static_cast<std::uint32_t>(2 * n);
  const Round cap = static_cast<Round>(quick ? 6'000 : 30'000);

  // The four families the robustness story needs: the brittle optimum, the
  // robust ceiling, its randomized variant, and the cursor-based push
  // (which loses dropped tokens permanently — a third failure mode).
  const std::vector<AlgoSpec> algos = {{"single_source", {}},
                                       {"flooding", {}},
                                       {"random_flooding", {}},
                                       {"neighbor_exchange", {}}};

  // The drop axis spans three regimes: light loss (request retries absorb
  // it), moderate loss (costs show, everyone still completes), and heavy
  // loss (single_source wedges while flooding survives — the crossover).
  const std::vector<double> drops =
      quick ? std::vector<double>{0.0, 0.05, 0.2, 0.5, 0.8}
            : std::vector<double>{0.0, 0.05, 0.2, 0.5, 0.65, 0.8, 0.9};
  // Crash rows pair a per-round crash rate with a recovery rate (retained
  // knowledge on recovery; amnesia stays off so the grid isolates loss).
  const std::vector<Regime> crashes = {{0.0, 0.0, 0.0},
                                       {0.0, 0.002, 0.05}};

  std::vector<Regime> regimes;
  for (const Regime& c : crashes) {
    for (const double d : drops) regimes.push_back({d, c.crash, c.recover});
  }

  // The scenario's own schedule family: the oblivious churn regime the
  // other flagships default to, shared per trial across every (algo,
  // regime) cell so completion fractions are paired comparisons.
  AdversarySpec sched{"churn", {}};
  sched.set("edges", static_cast<std::uint64_t>(3 * n))
      .set("churn", static_cast<std::uint64_t>(std::max<std::size_t>(1, n / 8)))
      .set("sigma", std::uint64_t{3});

  // Keyed trials in series registration order (algo, regime, trial).  The
  // same (n, trial) seed drives schedule AND fault stream across every cell,
  // so regime comparisons are paired, and the zero-fault cell's plan is
  // inactive (exact fault-free code path).  Each (algo, trial) also gets a
  // fault-free control keyed with an empty fault spec: it runs with no
  // FaultPlan object at all, caches under its own key, and registers no
  // series.
  const std::string sched_text = sched.to_string();
  const auto trial_key = [&](std::size_t a, const std::string& fault,
                             std::size_t i) {
    return make_run_key(algos[a].to_string(), sched_text, fault, n, k, 4, cap,
                        91'000 + 37 * n + i);
  };
  std::vector<KeyedTrial> sweep;
  sweep.reserve(algos.size() * (regimes.size() + 1) * trials);
  for (std::size_t a = 0; a < algos.size(); ++a) {
    for (const Regime& regime : regimes) {
      FaultSpec fspec;
      fspec.drop = regime.drop;
      fspec.crash = regime.crash;
      fspec.recover = regime.recover;
      for (std::size_t i = 0; i < trials; ++i) {
        KeyedTrial trial;
        trial.key = trial_key(a, fspec.to_string(), i);
        trial.series = algos[a].to_string() +
                       " drop=" + TablePrinter::num(regime.drop, 3) +
                       " crash=" + TablePrinter::num(regime.crash, 3) +
                       " trial=" + std::to_string(i);
        sweep.push_back(std::move(trial));
      }
    }
  }
  const std::size_t first_control = sweep.size();
  for (std::size_t a = 0; a < algos.size(); ++a) {
    for (std::size_t i = 0; i < trials; ++i) {
      KeyedTrial control;
      control.key = trial_key(a, "", i);
      sweep.push_back(std::move(control));
    }
  }
  const std::vector<MemoOutcome> out = memoized_sweep(sweep, ctx);
  // out[cell(a, g, i)]: algorithm a, regime g, trial i; base(a, i): the
  // fault-free control's checksum for the zero-fault gate.
  const auto cell = [&](std::size_t a, std::size_t g,
                        std::size_t i) -> const CachedResult& {
    return out[(a * regimes.size() + g) * trials + i].row;
  };
  const auto base = [&](std::size_t a, std::size_t i) {
    return out[first_control + a * trials + i].row.checksum;
  };

  ScenarioTable grid;
  grid.title = "fault sweep: completion under drop x crash (n=" +
               std::to_string(n) + ", k=" + std::to_string(k) +
               "; shared schedule + fault stream per trial)";
  grid.columns = {"algo",     "drop",      "crash",  "recover", "trials",
                  "done",     "completed", "coverage", "amortized",
                  "rounds",   "base",      "checksum"};
  // completed-fraction per (algo, drop) within each crash row, for the
  // monotone-decline check in the note (and CI's eyeballing).
  for (std::size_t a = 0; a < algos.size(); ++a) {
    for (std::size_t g = 0; g < regimes.size(); ++g) {
      const Regime& regime = regimes[g];
      std::size_t done = 0;
      double coverage = 0, msgs = 0, rounds = 0;
      std::uint64_t k_real = 0;
      TraceChecksum fold;
      bool zero_fault_matches = true;
      for (std::size_t i = 0; i < trials; ++i) {
        const CachedResult& t = cell(a, g, i);
        done += t.metrics.completed ? 1 : 0;
        coverage += t.metrics.coverage;
        msgs += static_cast<double>(t.metrics.total_messages());
        rounds += static_cast<double>(t.metrics.rounds);
        k_real = t.k_realized;
        fold.fold(t.checksum);
        if (t.checksum != base(a, i)) zero_fault_matches = false;
      }
      const auto ft = static_cast<double>(trials);
      const bool zero_fault = regime.drop == 0.0 && regime.crash == 0.0;
      grid.rows.push_back(
          {algos[a].to_string(), TablePrinter::num(regime.drop, 3),
           TablePrinter::num(regime.crash, 3),
           TablePrinter::num(regime.recover, 3), std::to_string(trials),
           std::to_string(done) + "/" + std::to_string(trials),
           TablePrinter::num(static_cast<double>(done) / ft, 3),
           TablePrinter::num(coverage / ft, 4),
           TablePrinter::num(msgs / ft / std::max<double>(1.0, k_real), 1),
           TablePrinter::num(rounds / ft, 0),
           zero_fault ? (zero_fault_matches ? "match" : "DIVERGED") : "-",
           checksum_hex(fold.value())});
    }
  }
  grid.note =
      "Expected shape: in the crash-free row, completion fraction declines\n"
      "monotonically in the drop rate.  single_source absorbs moderate loss\n"
      "(its request loop retries lost payloads) but wedges in the heavy-\n"
      "loss regime (~drop>=0.7), where the flooding families still complete\n"
      "by re-offering every token every round — robustness bought with the\n"
      "Theta(n^2) amortized message cost of Theorem 2.3.  Under the crash\n"
      "row the roles flip: phase flooding is crash-brittle (a node down\n"
      "during token p's phase never hears p again) while the request-based\n"
      "protocol re-fetches after recovery — and drop can even HELP crashed\n"
      "flooding, because loss stretches phases and widens the recovery\n"
      "window.  `base` gates determinism: each zero-fault cell ran with an\n"
      "INACTIVE fault plan and must be byte-identical (`match`) to the\n"
      "fault-free baseline run of the same (algo, trial).";

  // The crossover table: where does the robust ceiling overtake the brittle
  // optimum?  One row per regime, comparing completion fractions.
  ScenarioTable crossover;
  crossover.title =
      "fault sweep crossover: flooding vs single_source completion";
  crossover.columns = {"drop",          "crash",         "single_source",
                       "flooding",      "flooding_ahead"};
  const std::size_t a_ss = 0, a_fl = 1;  // index into `algos` above
  bool any_ahead = false;
  for (std::size_t g = 0; g < regimes.size(); ++g) {
    std::size_t ss = 0, fl = 0;
    for (std::size_t i = 0; i < trials; ++i) {
      ss += cell(a_ss, g, i).metrics.completed ? 1 : 0;
      fl += cell(a_fl, g, i).metrics.completed ? 1 : 0;
    }
    const bool ahead = fl > ss;
    any_ahead = any_ahead || ahead;
    const auto ft = static_cast<double>(trials);
    crossover.rows.push_back({TablePrinter::num(regimes[g].drop, 3),
                              TablePrinter::num(regimes[g].crash, 3),
                              TablePrinter::num(static_cast<double>(ss) / ft, 3),
                              TablePrinter::num(static_cast<double>(fl) / ft, 3),
                              ahead ? "yes" : "no"});
  }
  crossover.note =
      any_ahead
          ? "Crossover present: at least one regime where flooding's\n"
            "completion fraction strictly exceeds single_source's (the\n"
            "heavy-loss regime) — the robustness/cost trade-off in one row."
          : "No crossover on this grid (rates too mild or too harsh for\n"
            "these trials); widen the drop axis or raise --trials.";

  return {"fault_sweep", {std::move(grid), std::move(crossover)}};
}

}  // namespace

void register_fault_sweep(ScenarioRegistry& registry) {
  registry.add({"fault_sweep",
                "graceful degradation: algorithm families x drop/crash fault "
                "grids, shared schedules",
                {{"n", ParamSpec::Kind::kInt, "24 (quick) / 40",
                  "nodes per run (k = 2n)"}},
                run,
                /*adversary_axis=*/false,
                /*algo_axis=*/false,
                /*fault_axis=*/false,
                /*probe_axis=*/true,
                /*cache_axis=*/true});
}

}  // namespace dyngossip
