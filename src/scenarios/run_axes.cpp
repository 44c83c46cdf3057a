#include "scenarios/run_axes.hpp"

#include <map>
#include <string>
#include <utility>

#include "cache/memo_sweep.hpp"
#include "common/table.hpp"
#include "trace/run_payload.hpp"
#include "trace/trace_reader.hpp"

namespace dyngossip {

RunAxes RunAxes::resolve(const ScenarioContext& ctx) {
  RunAxes axes;
  if (ctx.has_adversary_override()) {
    axes.adversary_spec_ = AdversarySpec::parse(ctx.adversary_spec());
    AdversaryRegistry::global().validate(axes.adversary_spec_);
    axes.adversary_overridden_ = true;
  }
  if (ctx.has_algo_override()) {
    axes.algo_spec_ = AlgoSpec::parse(ctx.algo_spec());
    AlgoRegistry::global().validate(axes.algo_spec_);
    axes.algo_overridden_ = true;
  }
  if (ctx.has_fault_override()) {
    axes.fault_spec_ = FaultSpec::parse(ctx.fault_spec());
    axes.fault_overridden_ = true;
  }
  return axes;
}

std::unique_ptr<Adversary> RunAxes::build(const AdversarySpec& def, std::size_t n,
                                          std::uint64_t seed) const {
  AdversaryBuildContext ctx;
  ctx.n = n;
  ctx.seed = seed;
  return build(def, std::move(ctx));
}

std::unique_ptr<Adversary> RunAxes::build(const AdversarySpec& def,
                                          AdversaryBuildContext ctx) const {
  return AdversaryRegistry::global().build(
      adversary_overridden_ ? adversary_spec_ : def, ctx);
}

std::optional<TracePinned> trace_pinned(const RunAxes& axes) {
  if (!axes.adversary_overridden()) return std::nullopt;
  // Every file-backed family fixes its node count at recording time; the
  // scenario grid must follow the file, whichever key names it.
  const std::string& family = axes.adversary_spec().family;
  const char* key = family == "trace" || family == "scripted" ? "file"
                    : family == "smoothed"                    ? "base"
                                                              : nullptr;
  if (key == nullptr) return std::nullopt;
  const auto it = axes.adversary_spec().params.find(key);
  if (it == axes.adversary_spec().params.end()) {
    throw AdversarySpecError(family + ": requires " + key + "=... in the spec");
  }
  // Header + metadata only; the trace streams again during the actual runs.
  const std::unique_ptr<TraceSource> source = open_trace_source(it->second);
  const TraceHeader& header = source->header();
  const std::map<std::string, std::string> meta =
      parse_trace_metadata(header.metadata);
  const auto meta_int = [&meta](const char* key, std::int64_t def) {
    const auto m = meta.find(key);
    if (m == meta.end()) return def;
    try {
      return static_cast<std::int64_t>(std::stoll(m->second));
    } catch (const std::exception&) {
      return def;  // foreign trace with free-form metadata: fall back
    }
  };
  TracePinned pin;
  pin.n = header.n;
  pin.k = static_cast<std::uint32_t>(meta_int("k", 0));
  pin.sources = static_cast<std::size_t>(meta_int("sources", 0));
  pin.cap = static_cast<Round>(meta_int("cap", 0));
  if (meta.count("algo") != 0u) pin.algo = meta.at("algo");
  return pin;
}

std::vector<ParamSpec> scenario_axis_params() {
  return {{"adversary", ParamSpec::Kind::kString, "(scenario default)",
           "adversary spec override, e.g. churn:rate=0.01 — see `dyngossip "
           "adversaries`"},
          {"trace", ParamSpec::Kind::kString, "(none)",
           "replay a recorded schedule: shorthand for adversary=trace:file=PATH"}};
}

std::vector<ParamSpec> scenario_algo_axis_params() {
  std::vector<ParamSpec> params = scenario_axis_params();
  params.push_back({"algo", ParamSpec::Kind::kString, "(scenario default)",
                    "algorithm spec override, e.g. flooding: — see `dyngossip "
                    "algorithms`"});
  return params;
}

std::vector<ParamSpec> scenario_fault_axis_params() {
  std::vector<ParamSpec> params = scenario_algo_axis_params();
  params.push_back({"fault", ParamSpec::Kind::kString, "(fault-free)",
                    "fault spec, e.g. fault:drop=0.05,crash=0.001 — see "
                    "`dyngossip faults`"});
  params.push_back({"trial-timeout", ParamSpec::Kind::kDouble, "0",
                    "wall-clock budget per trial in seconds (0: none); "
                    "over-budget trials report status=timeout"});
  return params;
}

ScenarioTable run_axes_table(const ScenarioContext& ctx, const RunAxes& axes,
                             const AlgoSpec& default_algo,
                             std::vector<AxisRowSpec> rows,
                             std::uint64_t seed_base) {
  std::string recorded_algo;
  if (const std::optional<TracePinned> pin = trace_pinned(axes)) {
    AxisRowSpec row;
    row.n = pin->n;
    row.k = pin->k != 0 ? pin->k : 128;
    row.cap = pin->cap;
    row.sources = pin->sources != 0 ? pin->sources : 4;
    rows.assign(1, row);
    recorded_algo = pin->algo;
  }
  const AlgoSpec algo = axes.algo_or(default_algo);
  const std::string algo_text = algo.to_string();
  // A static-only algorithm (spanning_tree) over a dynamic schedule would
  // die on the protocol's own DG_CHECK inside a pool worker; reject the
  // flag combination up front with the shared policy (which also inspects
  // a file-backed override's recording metadata, so a static recording
  // passes).
  {
    const AlgoFamily& family = *AlgoRegistry::global().find(algo.family);
    std::string why;
    if (axes.adversary_overridden()) {
      if (!algo_schedule_compatible(family, axes.adversary_spec(), &why)) {
        throw AlgoSpecError(why);
      }
    } else {
      for (const AxisRowSpec& row : rows) {
        if (!algo_schedule_compatible(family, row.def, &why)) {
          throw AlgoSpecError(why);
        }
      }
    }
  }
  const std::size_t trials = ctx.trials_or(1);

  // Keyed trials: each trial's identity is its canonical
  // (algo × adversary × fault × shape × seed) tuple, so a warm re-run
  // serves rows straight from the cache; file-backed adversary families are
  // never cacheable (the key cannot pin the file's content).
  const std::string fault_text = axes.fault_spec().to_string();
  std::vector<KeyedTrial> sweep;
  sweep.reserve(rows.size() * trials);
  for (const AxisRowSpec& row : rows) {
    // Row default consulted only when the adversary axis is NOT overridden
    // (i.e. an --algo-only run over the scenario's own schedule family).
    const AdversarySpec& adv =
        axes.adversary_overridden() ? axes.adversary_spec() : row.def;
    const std::string adv_text = adv.to_string();
    for (std::size_t i = 0; i < trials; ++i) {
      KeyedTrial trial;
      trial.key = make_run_key(algo_text, adv_text, fault_text, row.n, row.k,
                               row.sources, row.cap, seed_base + 37 * row.n + i);
      trial.cacheable = cacheable_adversary_family(adv.family);
      trial.series = algo_text + " " + adv_text + " n=" + std::to_string(row.n) +
                     " trial=" + std::to_string(i);
      sweep.push_back(std::move(trial));
    }
  }
  const std::vector<MemoOutcome> out = memoized_sweep(sweep, ctx);

  ScenarioTable table;
  table.title =
      "run axes: " + algo_text + " vs " +
      (axes.adversary_overridden() ? axes.adversary_label()
                                   : std::string("(scenario default schedule)"));
  if (axes.fault_spec().active()) {
    table.title += " under " + axes.fault_spec().to_string();
  }
  // Column order is load-bearing for CI's jq gates: "done" must stay at
  // index 5 and "checksum" must stay last, so status/coverage slot in
  // between "rounds" and "checksum".
  table.columns = {"adversary", "algo",  "n",        "k",
                   "trial",     "done",  "messages", "TC(E)",
                   "residual(a=1)", "rounds", "status", "coverage", "checksum"};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::string& adversary_text = sweep[r * trials].key.adversary;
    for (std::size_t i = 0; i < trials; ++i) {
      const CachedResult& t = out[r * trials + i].row;
      table.rows.push_back(
          {adversary_text, algo_text, std::to_string(rows[r].n),
           std::to_string(t.k_realized), std::to_string(i),
           t.metrics.completed ? "yes" : "no",
           TablePrinter::num(static_cast<double>(t.metrics.total_messages()), 0),
           TablePrinter::num(static_cast<double>(t.metrics.tc), 0),
           TablePrinter::num(t.metrics.competitive_residual(1.0), 0),
           TablePrinter::num(static_cast<double>(t.metrics.rounds), 0),
           run_status_name(t.metrics.status),
           TablePrinter::num(t.metrics.coverage, 4), checksum_hex(t.checksum)});
    }
  }
  table.note =
      "Override mode: the effective algorithm spec ran against the effective\n"
      "adversary spec.  `checksum` is the deterministic run-payload fold —\n"
      "for a trace:file=X.dgt override it must equal the checksum of the\n"
      "run that recorded X.dgt (`dyngossip trace record --json`).";
  if (!recorded_algo.empty() && recorded_algo != algo_text) {
    table.note +=
        "\nNOTE: this schedule was recorded under '" + recorded_algo +
        "' but replayed under '" + algo_text +
        "' — a valid cross-algorithm replay whose checksum will NOT match\n"
        "the recording run's.";
  }
  return table;
}

}  // namespace dyngossip
