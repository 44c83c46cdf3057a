#include "adversary/registry.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "adversary/churn.hpp"
#include "adversary/lb_adversary.hpp"
#include "adversary/patterns.hpp"
#include "adversary/request_cutter.hpp"
#include "adversary/scripted.hpp"
#include "adversary/sigma_stable.hpp"
#include "adversary/static_adversary.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "trace/smoothed_adversary.hpp"
#include "trace/trace_adversary.hpp"
#include "trace/trace_reader.hpp"

namespace dyngossip {

namespace {

[[noreturn]] void fail(const std::string& msg) { throw AdversarySpecError(msg); }

/// Typed spec-param access (the shared strict SpecValues core) plus the
/// adversary build context's helpers.
class SpecReader : public SpecValues {
 public:
  SpecReader(const AdversarySpec& spec, const AdversaryBuildContext& ctx)
      : SpecValues(spec.family, spec.params,
                   [](const std::string& msg) { fail(msg); }),
        spec_(spec),
        ctx_(ctx) {}

  /// Spec seed= wins; otherwise the context's (per-trial) seed.
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(
        get_int("seed", static_cast<std::int64_t>(ctx_.seed)));
  }

  /// Context node count; families without their own n source require it.
  [[nodiscard]] std::size_t require_n() const {
    if (ctx_.n < 2) {
      fail(spec_.family + ": requires a node count n >= 2 in the build context");
    }
    return ctx_.n;
  }

  /// Required string key (file paths).
  [[nodiscard]] std::string require_string(const std::string& key) const {
    const auto it = spec_.params.find(key);
    if (it == spec_.params.end() || it->second.empty()) {
      fail(spec_.family + ": requires " + key + "=... in the spec");
    }
    return it->second;
  }

 private:
  const AdversarySpec& spec_;
  const AdversaryBuildContext& ctx_;
};

/// A file-backed family's n comes from the data; a non-zero context n must
/// agree (a mismatched schedule would only die later inside the engine).
void check_file_n(const std::string& family, std::size_t file_n,
                  std::size_t ctx_n) {
  if (ctx_n != 0 && ctx_n != file_n) {
    fail(family + ": the schedule is over n=" + std::to_string(file_n) +
         " nodes but the run wants n=" + std::to_string(ctx_n) +
         " (the node count comes from the recording)");
  }
}

// ---- family factories ----------------------------------------------------

std::unique_ptr<Adversary> build_static(const AdversarySpec& spec,
                                        const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  const std::size_t n = r.require_n();
  const std::string graph = r.get_string("graph", "complete");
  if (graph == "complete") {
    return std::make_unique<StaticAdversary>(complete_graph(n));
  }
  if (graph == "cycle") {
    return std::make_unique<StaticAdversary>(cycle_graph(n));
  }
  if (graph == "path") {
    return std::make_unique<StaticAdversary>(path_graph(n));
  }
  if (graph == "star") {
    return std::make_unique<StaticAdversary>(star_graph(n));
  }
  if (graph == "gnp") {
    Rng rng(r.seed());
    return std::make_unique<StaticAdversary>(
        connected_erdos_renyi(n, r.get_fraction("p", 0.15), rng));
  }
  fail("static: graph must be complete, cycle, path, star, or gnp (got '" +
       graph + "')");
}

std::unique_ptr<Adversary> build_churn(const AdversarySpec& spec,
                                       const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  ChurnConfig cc;
  cc.n = r.require_n();
  cc.target_edges = r.get_size("edges", 3 * cc.n);
  cc.churn_per_round =
      r.has("rate") ? static_cast<std::size_t>(r.get_fraction("rate", 0.0) *
                                               static_cast<double>(cc.target_edges))
                    : r.get_size("churn", cc.n / 8);
  cc.sigma = static_cast<Round>(r.get_size("sigma", 1));
  cc.seed = r.seed();
  if (cc.sigma < 1) fail("churn: sigma must be >= 1");
  return std::make_unique<ChurnAdversary>(cc);
}

std::unique_ptr<Adversary> build_fresh(const AdversarySpec& spec,
                                       const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  ChurnConfig cc;
  cc.n = r.require_n();
  cc.target_edges = r.get_size("edges", 3 * cc.n);
  cc.seed = r.seed();
  cc.fresh_graph_each_round = true;
  return std::make_unique<ChurnAdversary>(cc);
}

std::unique_ptr<Adversary> build_sigma(const AdversarySpec& spec,
                                       const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  SigmaStableChurnConfig sc;
  sc.n = r.require_n();
  sc.target_edges = r.get_size("edges", 3 * sc.n);
  sc.churn_per_interval =
      r.has("turnover")
          ? static_cast<std::size_t>(r.get_fraction("turnover", 0.0) *
                                     static_cast<double>(sc.target_edges))
          : r.get_size("churn", sc.target_edges / 4);
  sc.sigma = static_cast<Round>(r.get_size("interval", 4));
  sc.seed = r.seed();
  if (sc.sigma < 1) fail("sigma: interval must be >= 1");
  return std::make_unique<SigmaStableChurnAdversary>(sc);
}

std::unique_ptr<Adversary> build_star(const AdversarySpec& spec,
                                      const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  return std::make_unique<RotatingStarAdversary>(r.require_n(), r.seed());
}

std::unique_ptr<Adversary> build_path(const AdversarySpec& spec,
                                      const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  return std::make_unique<PathShuffleAdversary>(r.require_n(), r.seed());
}

std::unique_ptr<Adversary> build_cutter(const AdversarySpec& spec,
                                        const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  RequestCutterConfig rc;
  rc.n = r.require_n();
  rc.target_edges = r.get_size("edges", 3 * rc.n);
  rc.cut_probability = r.get_fraction("p", 1.0);
  rc.seed = r.seed();
  return std::make_unique<RequestCutterAdversary>(rc);
}

std::unique_ptr<Adversary> build_lb(const AdversarySpec& spec,
                                    const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  if (ctx.k == 0 || ctx.initial_knowledge == nullptr) {
    fail("lb: the strongly adaptive lower-bound adversary samples K' against "
         "the run's initial knowledge — the build context must carry k and "
         "initial_knowledge (it cannot replay from a spec alone)");
  }
  LbAdversaryConfig cfg;
  cfg.n = r.require_n();
  cfg.k = ctx.k;
  cfg.kprime_p = r.get_double("kprime_p", 0.25);
  cfg.phi_budget_fraction = r.get_double("budget", 0.8);
  cfg.full_free_graph = r.get_bool("full", false);
  cfg.record_series = r.get_bool("series", false);
  cfg.seed = r.seed();
  return std::make_unique<LowerBoundAdversary>(cfg, *ctx.initial_knowledge);
}

std::unique_ptr<Adversary> build_scripted(const AdversarySpec& spec,
                                          const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  if (!ctx.script.empty()) {
    return std::make_unique<ScriptedAdversary>(ctx.script);
  }
  // File form: materialize every round of a trace as an explicit graph
  // script (random access, unlike the streaming trace family).
  const std::string path = r.require_string("file");
  const std::unique_ptr<TraceSource> source = open_trace_source(path);
  check_file_n("scripted", source->header().n, ctx.n);
  std::vector<Graph> script;
  Graph g(source->header().n);
  ConnectivityChecker connectivity;
  while (source->next_round(g)) {
    // ScriptedAdversary aborts on a disconnected graph; from a file that is
    // bad input, so name the round instead.
    if (!connectivity.is_connected(g)) {
      throw TraceError("scripted: trace '" + path + "' round " +
                       std::to_string(script.size() + 1) +
                       " is disconnected; every round graph must be connected");
    }
    script.push_back(g);
  }
  if (script.empty()) fail("scripted: trace '" + path + "' holds no rounds");
  return std::make_unique<ScriptedAdversary>(std::move(script));
}

std::unique_ptr<Adversary> build_smoothed(const AdversarySpec& spec,
                                          const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  std::unique_ptr<TraceSource> base = open_trace_source(r.require_string("base"));
  check_file_n("smoothed", base->header().n, ctx.n);
  SmoothedTraceConfig cfg;
  cfg.flips_per_round = r.get_size("flips", 8);
  cfg.seed = r.seed();
  return std::make_unique<SmoothedTraceAdversary>(std::move(base), cfg);
}

std::unique_ptr<Adversary> build_trace(const AdversarySpec& spec,
                                       const AdversaryBuildContext& ctx) {
  const SpecReader r(spec, ctx);
  std::unique_ptr<TraceSource> source = open_trace_source(r.require_string("file"));
  check_file_n("trace", source->header().n, ctx.n);
  TraceAdversaryOptions opts;
  opts.hold_last_graph = r.get_bool("hold", true);
  return std::make_unique<TraceAdversary>(std::move(source), opts);
}

using Kind = AdversaryKeySpec::Kind;

const AdversaryKeySpec kSeedKey{"seed", Kind::kInt, "(run seed)",
                                "schedule randomness; omit to follow the run"};

}  // namespace

// ---- AdversarySpec -------------------------------------------------------

AdversarySpec AdversarySpec::parse(const std::string& text) {
  AdversarySpec spec;
  const std::string error =
      parse_spec_text(text, "adversary", &spec.family, &spec.params);
  if (!error.empty()) fail(error);
  return spec;
}

std::string AdversarySpec::to_string() const {
  return render_spec_text(family, params);
}

AdversarySpec& AdversarySpec::set(const std::string& key, const std::string& value) {
  params[key] = value;
  return *this;
}

AdversarySpec& AdversarySpec::set(const std::string& key, std::uint64_t value) {
  params[key] = std::to_string(value);
  return *this;
}

AdversarySpec& AdversarySpec::set(const std::string& key, double value) {
  params[key] = render_spec_double(value);
  return *this;
}

bool operator==(const AdversarySpec& a, const AdversarySpec& b) {
  return a.family == b.family && a.params == b.params;
}

const char* adversary_key_kind_name(AdversaryKeySpec::Kind kind) {
  return spec_key_kind_name(kind);
}

// ---- AdversaryRegistry ---------------------------------------------------

void AdversaryRegistry::add(AdversaryFamily family) {
  if (!valid_spec_name(family.name)) {
    throw std::invalid_argument("adversary family name '" + family.name +
                                "' is invalid");
  }
  if (!family.build) {
    throw std::invalid_argument("adversary family '" + family.name +
                                "' has no factory");
  }
  if (families_.count(family.name) != 0u) {
    throw std::invalid_argument("adversary family '" + family.name +
                                "' registered twice");
  }
  families_.emplace(family.name, std::move(family));
}

const AdversaryFamily* AdversaryRegistry::find(
    const std::string& name) const noexcept {
  const auto it = families_.find(name);
  return it == families_.end() ? nullptr : &it->second;
}

std::vector<const AdversaryFamily*> AdversaryRegistry::list() const {
  std::vector<const AdversaryFamily*> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) out.push_back(&family);
  return out;
}

void AdversaryRegistry::validate(const AdversarySpec& spec) const {
  const AdversaryFamily* family = find(spec.family);
  if (family == nullptr) {
    std::string known;
    for (const auto& [name, f] : families_) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    fail("unknown adversary family '" + spec.family + "' (known: " + known + ")");
  }
  for (const auto& [key, value] : spec.params) {
    const bool declared =
        std::any_of(family->keys.begin(), family->keys.end(),
                    [&key](const AdversaryKeySpec& k) { return k.key == key; });
    if (!declared) {
      std::string keys;
      for (const AdversaryKeySpec& k : family->keys) {
        if (!keys.empty()) keys += ", ";
        keys += k.key;
      }
      fail(spec.family + ": unknown key '" + key + "' (keys: " +
           (keys.empty() ? "none" : keys) + ")");
    }
  }
}

std::string AdversaryRegistry::describe(const std::string& name) const {
  const AdversaryFamily* family = find(name);
  if (family == nullptr) return "";
  std::string out = family->description;
  if (family->needs_run_context) {
    out +=
        " — buildable but not spec-replayable (the factory needs the run's "
        "initial knowledge); to reproduce a schedule, record it and replay "
        "through trace:file=";
  }
  return out;
}

std::unique_ptr<Adversary> AdversaryRegistry::build(
    const AdversarySpec& spec, const AdversaryBuildContext& ctx) const {
  validate(spec);
  return find(spec.family)->build(spec, ctx);
}

std::unique_ptr<Adversary> AdversaryRegistry::build(
    const std::string& spec_text, const AdversaryBuildContext& ctx) const {
  return build(AdversarySpec::parse(spec_text), ctx);
}

AdversaryRegistry& AdversaryRegistry::global() {
  // Registration happens inside the magic-static initializer so the first
  // touch is thread-safe even when it comes from concurrent pool workers
  // (scenario trials build adversaries without any main-thread warm-up).
  static AdversaryRegistry registry = [] {
    AdversaryRegistry r;
    register_all_adversaries(r);
    return r;
  }();
  return registry;
}

std::unique_ptr<Adversary> build_adversary(const AdversarySpec& spec, std::size_t n,
                                           std::uint64_t seed) {
  AdversaryBuildContext ctx;
  ctx.n = n;
  ctx.seed = seed;
  return AdversaryRegistry::global().build(spec, ctx);
}

void register_all_adversaries(AdversaryRegistry& registry) {
  if (registry.find("churn") != nullptr) return;  // already installed
  registry.add(
      {"static",
       "the same connected graph every round (Section 1's static baseline)",
       "static:graph=gnp,p=0.15",
       {{"graph", Kind::kString, "complete", "complete | cycle | path | star | gnp"},
        {"p", Kind::kDouble, "0.15", "gnp edge probability"},
        kSeedKey},
       build_static});
  registry.add(
      {"churn",
       "oblivious per-edge churn: delete aged edges, replenish, stay connected",
       "churn:rate=0.01,sigma=3",
       {{"edges", Kind::kInt, "3n", "steady-state edge count"},
        {"churn", Kind::kInt, "n/8", "edge deletions attempted per round"},
        {"rate", Kind::kDouble, "(unset)",
         "fraction of the edge set churned per round (overrides churn)"},
        {"sigma", Kind::kInt, "1", "every edge lives >= sigma rounds"},
        kSeedKey},
       build_churn});
  registry.add(
      {"fresh",
       "a completely new connected graph every round (maximum-churn regime)",
       "fresh:edges=192",
       {{"edges", Kind::kInt, "3n", "edge count of each resampled graph"}, kSeedKey},
       build_fresh});
  registry.add(
      {"sigma",
       "sigma-interval-stable bursts: frozen within intervals, rewired at "
       "boundaries",
       "sigma:interval=16,turnover=0.03",
       {{"interval", Kind::kInt, "4", "interval length (graph frozen within)"},
        {"edges", Kind::kInt, "3n", "steady-state edge count"},
        {"churn", Kind::kInt, "edges/4", "edge deletions attempted per boundary"},
        {"turnover", Kind::kDouble, "(unset)",
         "fraction of the edge set rewired per interval (overrides churn)"},
        kSeedKey},
       build_sigma});
  registry.add({"star",
                "rotating star: center advances through a seeded permutation",
                "star:seed=7",
                {kSeedKey},
                build_star});
  registry.add({"path",
                "fresh Hamiltonian path every round (thin-connectivity extreme)",
                "path:seed=7",
                {kSeedKey},
                build_path});
  registry.add(
      {"cutter",
       "adaptive request cutter: deletes edges that carried requests "
       "(unicast model)",
       "cutter:p=0.7",
       {{"p", Kind::kDouble, "1.0", "chance each request-carrying edge is cut"},
        {"edges", Kind::kInt, "3n", "steady-state edge count"},
        kSeedKey},
       build_cutter});
  registry.add(
      {"lb",
       "Section-2 strongly adaptive lower-bound adversary (needs the run's "
       "initial knowledge)",
       "lb:full=false",
       {{"kprime_p", Kind::kDouble, "0.25", "per-token inclusion probability in K'"},
        {"budget", Kind::kDouble, "0.8", "required Phi(0) <= budget * nk"},
        {"full", Kind::kBool, "false", "return all free edges (paper-verbatim)"},
        {"series", Kind::kBool, "false", "keep per-round instrumentation"},
        kSeedKey},
       build_lb,
       /*needs_run_context=*/true});
  registry.add(
      {"scripted",
       "explicit finite graph sequence, materialized from a trace file "
       "(repeats the last graph)",
       "scripted:file=run.dgt",
       {{"file", Kind::kString, "(required)", "trace to load (.dgt / .jsonl)"}},
       build_scripted});
  registry.add(
      {"smoothed",
       "smoothed analysis: replay a base trace with k random pair flips "
       "per round",
       "smoothed:base=run.dgt,flips=8",
       {{"base", Kind::kString, "(required)", "base trace (.dgt / .jsonl)"},
        {"flips", Kind::kInt, "8", "random node-pair toggles per round"},
        kSeedKey},
       build_smoothed});
  registry.add(
      {"trace",
       "bit-exact streaming replay of a recorded schedule "
       "(checksum-certified)",
       "trace:file=run.dgt",
       {{"file", Kind::kString, "(required)", "trace to replay (.dgt / .jsonl)"},
        {"hold", Kind::kBool, "true",
         "hold the final graph after the trace is exhausted"}},
       build_trace});
}

}  // namespace dyngossip
