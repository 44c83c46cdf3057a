#include "sim/runner/scenario_cli.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "cache/cache_cli.hpp"
#include "cache/memo_sweep.hpp"
#include "cache/result_cache.hpp"
#include "common/cli.hpp"
#include "common/provenance.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fault/fault_spec.hpp"
#include "metrics/accounting.hpp"
#include "serve/serve_cli.hpp"
#include "sim/runner/emit.hpp"
#include "telemetry/probe_spec.hpp"
#include "telemetry/round_probe.hpp"
#include "telemetry/timeline.hpp"
#include "trace/trace_cli.hpp"
#include "trace/trace_format.hpp"

namespace dyngossip {

namespace {

constexpr const char* kUsage =
    "usage: dyngossip <command> [flags]\n"
    "\n"
    "commands:\n"
    "  list [--json]                 list registered scenarios\n"
    "  adversaries [--json]          list registered adversary families\n"
    "  algorithms [--json]           list registered algorithm families\n"
    "  faults [--json]               describe the fault-injection spec grammar\n"
    "  probes [--json]               describe the probe (observability) spec\n"
    "                                grammar and the --timeline axis\n"
    "  version [--json]              print build provenance (git describe,\n"
    "                                compiler, build type, sanitizers)\n"
    "  run <scenario> [flags]        run one scenario\n"
    "      --threads=N   worker threads (0 = hardware, default)\n"
    "      --trials=T    trials per configuration (0 = scenario default)\n"
    "      --scale=S     grid size: quick | default | large (n ~ 10^4) |\n"
    "                    xlarge (n = 10^5, flagship scenarios)\n"
    "      --quick       alias for --scale=quick\n"
    "      --csv         CSV instead of aligned tables\n"
    "      --json[=PATH] machine-readable record (PATH or '-' for stdout)\n"
    "      --adversary=SPEC  run the scenario's algorithm against any\n"
    "                    registered adversary spec (see `adversaries`)\n"
    "      --trace=FILE  replay a recorded schedule: shorthand for\n"
    "                    --adversary=trace:file=FILE\n"
    "      --algo=SPEC   run any registered algorithm spec against the\n"
    "                    scenario's schedule (see `algorithms`)\n"
    "      --fault=SPEC  inject drop/crash/duplicate faults into every\n"
    "                    trial (see `faults`)\n"
    "      --trial-timeout=S  wall-clock budget per trial in seconds;\n"
    "                    over-budget trials report status=timeout\n"
    "      --probe=SPEC  emit per-round series from every instrumented\n"
    "                    trial (see `probes`); never perturbs the run;\n"
    "                    keyed-trial scenarios and table1 only\n"
    "      --timeline=FILE  write a chrome://tracing / Perfetto trace of\n"
    "                    rounds, phases, shard jobs, and pool queue waits\n"
    "      --cache=DIR   consult/fill the content-addressed result cache:\n"
    "                    warm re-runs serve trials from disk and skip to\n"
    "                    aggregation, byte-identical to a cold run;\n"
    "                    keyed-trial scenarios only (`list --json`)\n"
    "      --<param>=v   scenario-specific parameter (see `list`)\n"
    "  trace <record|replay|info|gen> [flags]\n"
    "                                record, replay, inspect, or synthesize\n"
    "                                dynamic-network traces (.dgt / .jsonl)\n"
    "  cache <info|verify|gc> --dir=PATH [--json] [--all]\n"
    "                                inspect, validate, or prune the\n"
    "                                content-addressed result cache\n"
    "  serve --socket=PATH [flags]   long-running sweep service: accepts\n"
    "                                line-JSON sweep requests on a unix\n"
    "                                socket, schedules trials fairly across\n"
    "                                clients, streams result rows, shares\n"
    "                                the result cache\n"
    "  request --socket=PATH [flags] submit one sweep to a running server\n"
    "                                and print the streamed rows\n"
    "  speedup [--threads=N] [--trials=T] [--n=SIZE] [--min=X]\n"
    "                                time serial vs parallel sweep, verify\n"
    "                                bit-identity, print the ratio as JSON\n";

const char* kind_name(ParamSpec::Kind kind) {
  switch (kind) {
    case ParamSpec::Kind::kInt: return "int";
    case ParamSpec::Kind::kDouble: return "double";
    case ParamSpec::Kind::kBool: return "bool";
    case ParamSpec::Kind::kString: return "string";
  }
  return "?";
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The "keys" array of every spec family listing.
JsonValue spec_keys_json(const std::vector<SpecKey>& keys) {
  JsonValue out = JsonValue::array();
  for (const SpecKey& k : keys) {
    JsonValue spec = JsonValue::object();
    spec.set("key", JsonValue::str(k.key));
    spec.set("kind", JsonValue::str(spec_key_kind_name(k.kind)));
    spec.set("default", JsonValue::str(k.default_value));
    spec.set("help", JsonValue::str(k.help));
    out.push(std::move(spec));
  }
  return out;
}

/// The indented key lines of every spec family listing.
void print_spec_keys(const std::vector<SpecKey>& keys) {
  for (const SpecKey& k : keys) {
    std::printf("    %s=<%s>  (default %s)  %s\n", k.key.c_str(),
                spec_key_kind_name(k.kind), k.default_value.c_str(),
                k.help.c_str());
  }
}

/// `faults --json` / `probes --json`: a one-family listing document.
void print_family_doc_json(const SpecFamilyDoc& info) {
  JsonValue entry = JsonValue::object();
  entry.set("name", JsonValue::str(info.name));
  entry.set("description", JsonValue::str(info.description));
  entry.set("example", JsonValue::str(info.example));
  entry.set("keys", spec_keys_json(*info.keys));
  JsonValue families = JsonValue::array();
  families.push(std::move(entry));
  JsonValue doc = JsonValue::object();
  doc.set("families", std::move(families));
  std::cout << doc.dump(2) << "\n";
}

/// argv[first..] behind the program name, parsed as one command's flags.
CliArgs sub_args(int argc, const char* const* argv, int first) {
  std::vector<const char*> rest = {argv[0]};
  for (int i = first; i < argc; ++i) rest.push_back(argv[i]);
  return CliArgs(static_cast<int>(rest.size()), rest.data());
}

int cmd_list(const ScenarioRegistry& registry, const CliArgs& args) {
  args.allow_only({"json"}, "dyngossip list [--json]");
  if (args.get_bool("json", false)) {
    JsonValue doc = JsonValue::object();
    JsonValue scenarios = JsonValue::array();
    for (const Scenario* s : registry.list()) {
      JsonValue entry = JsonValue::object();
      entry.set("name", JsonValue::str(s->name));
      entry.set("description", JsonValue::str(s->description));
      JsonValue params = JsonValue::array();
      for (const ParamSpec& p : s->params) {
        JsonValue spec = JsonValue::object();
        spec.set("name", JsonValue::str(p.name));
        spec.set("kind", JsonValue::str(kind_name(p.kind)));
        spec.set("default", JsonValue::str(p.default_value));
        spec.set("help", JsonValue::str(p.help));
        params.push(std::move(spec));
      }
      entry.set("params", std::move(params));
      entry.set("adversary_axis", JsonValue::boolean(s->adversary_axis));
      entry.set("algo_axis", JsonValue::boolean(s->algo_axis));
      entry.set("fault_axis", JsonValue::boolean(s->fault_axis));
      entry.set("probe_axis", JsonValue::boolean(s->probe_axis));
      entry.set("cache_axis", JsonValue::boolean(s->cache_axis));
      scenarios.push(std::move(entry));
    }
    doc.set("scenarios", std::move(scenarios));
    std::cout << doc.dump(2) << "\n";
    return 0;
  }
  for (const Scenario* s : registry.list()) {
    std::printf("%-22s %s\n", s->name.c_str(), s->description.c_str());
    for (const ParamSpec& p : s->params) {
      std::printf("    --%s=<%s>  (default %s)  %s\n", p.name.c_str(),
                  kind_name(p.kind), p.default_value.c_str(), p.help.c_str());
    }
  }
  std::printf(
      "\nglobal run flags: --threads --trials --scale --quick --csv --json;\n"
      "scenarios listing --adversary/--trace accept any spec from\n"
      "`dyngossip adversaries` (e.g. --adversary=churn:rate=0.01 or\n"
      "--trace=run.dgt to replay a recording); scenarios listing --algo\n"
      "accept any spec from `dyngossip algorithms` (e.g. --algo=flooding:).\n");
  return 0;
}

int cmd_adversaries(const CliArgs& args) {
  args.allow_only({"json"}, "dyngossip adversaries [--json]");
  const AdversaryRegistry& registry = AdversaryRegistry::global();
  if (args.get_bool("json", false)) {
    JsonValue doc = JsonValue::object();
    JsonValue families = JsonValue::array();
    for (const AdversaryFamily* f : registry.list()) {
      JsonValue entry = JsonValue::object();
      entry.set("name", JsonValue::str(f->name));
      entry.set("description", JsonValue::str(f->description));
      entry.set("example", JsonValue::str(f->example));
      entry.set("keys", spec_keys_json(f->keys));
      entry.set("needs_run_context", JsonValue::boolean(f->needs_run_context));
      families.push(std::move(entry));
    }
    doc.set("families", std::move(families));
    std::cout << doc.dump(2) << "\n";
    return 0;
  }
  std::printf("adversary spec grammar: family[:key=value[,key=value...]]\n\n");
  for (const AdversaryFamily* f : registry.list()) {
    std::printf("%-10s %s\n           e.g. %s\n", f->name.c_str(),
                f->description.c_str(), f->example.c_str());
    if (f->needs_run_context) {
      std::printf("           NOTE: buildable but not spec-replayable — the "
                  "factory needs the\n           run's initial knowledge; to "
                  "reproduce a schedule, record it and\n           replay "
                  "through trace:file=\n");
    }
    print_spec_keys(f->keys);
  }
  std::printf(
      "\nUse with any axis-capable scenario:  dyngossip run <scenario>\n"
      "  --adversary=SPEC   (or --trace=FILE for trace:file=FILE)\n"
      "or record one:  dyngossip trace record --adversary=SPEC --out=T.dgt\n");
  return 0;
}

int cmd_algorithms(const CliArgs& args) {
  args.allow_only({"json"}, "dyngossip algorithms [--json]");
  const AlgoRegistry& registry = AlgoRegistry::global();
  if (args.get_bool("json", false)) {
    JsonValue doc = JsonValue::object();
    JsonValue families = JsonValue::array();
    for (const AlgoFamily* f : registry.list()) {
      JsonValue entry = JsonValue::object();
      entry.set("name", JsonValue::str(f->name));
      entry.set("description", JsonValue::str(f->description));
      entry.set("example", JsonValue::str(f->example));
      entry.set("engine", JsonValue::str(algo_engine_name(f->engine)));
      entry.set("requires_static", JsonValue::boolean(f->requires_static));
      entry.set("keys", spec_keys_json(f->keys));
      families.push(std::move(entry));
    }
    doc.set("families", std::move(families));
    std::cout << doc.dump(2) << "\n";
    return 0;
  }
  std::printf("algorithm spec grammar: family[:key=value[,key=value...]]\n\n");
  // Aligned engine column (unicast / broadcast / async) — same values the
  // --json path emits as each family's "engine" field.
  std::printf("%-17s %-9s %s\n", "family", "engine", "description");
  for (const AlgoFamily* f : registry.list()) {
    std::printf("%-17s %-9s %s\n%-27s e.g. %s\n", f->name.c_str(),
                algo_engine_name(f->engine), f->description.c_str(), "",
                f->example.c_str());
    if (f->requires_static) {
      std::printf("                            NOTE: static schedules only "
                  "(the protocol asserts an\n                            "
                  "unchanging neighborhood) — pair with --adversary=static:\n");
    }
    print_spec_keys(f->keys);
  }
  std::printf(
      "\nUse with any algo-axis scenario:  dyngossip run <scenario> "
      "--algo=SPEC\n"
      "(combine with --adversary=SPEC to pick both axes, or run the\n"
      "`algo_matrix` scenario to cross every family at once).\n");
  return 0;
}

int cmd_faults(const CliArgs& args) {
  args.allow_only({"json"}, "dyngossip faults [--json]");
  const SpecFamilyDoc doc_info = fault_family_doc();
  if (args.get_bool("json", false)) {
    print_family_doc_json(doc_info);
    return 0;
  }
  std::printf("fault spec grammar: fault:key=value[,key=value...]\n"
              "(the leading 'fault:' may be omitted: --fault=drop=0.05)\n\n");
  std::printf("%-10s %s\n           e.g. %s\n", doc_info.name.c_str(),
              doc_info.description.c_str(), doc_info.example.c_str());
  print_spec_keys(*doc_info.keys);
  std::printf(
      "\nUse with any fault-axis scenario:  dyngossip run <scenario> "
      "--fault=SPEC\n"
      "All fault decisions are position-keyed on (round, arc) / (round, node)\n"
      "under a SplitMix64 stream, so a faulty run is bit-identical at any\n"
      "thread count and reproducible from (spec, trial seed) alone.\n");
  return 0;
}

int cmd_probes(const CliArgs& args) {
  args.allow_only({"json"}, "dyngossip probes [--json]");
  const SpecFamilyDoc doc_info = probe_family_doc();
  if (args.get_bool("json", false)) {
    print_family_doc_json(doc_info);
    return 0;
  }
  std::printf("probe spec grammar: round_series:key=value[,key=value...]\n"
              "(the leading 'round_series:' may be omitted: "
              "--probe=out=series.csv)\n\n");
  std::printf("%-12s %s\n             e.g. %s\n", doc_info.name.c_str(),
              doc_info.description.c_str(), doc_info.example.c_str());
  print_spec_keys(*doc_info.keys);
  std::printf(
      "\nUse with any scenario:  dyngossip run <scenario> --probe=SPEC\n"
      "Probes only observe: a probed run's payload checksum is byte-identical\n"
      "to the unprobed run's, and series are bit-identical at any thread\n"
      "count.  The sibling --timeline=FILE axis records wall-clock spans\n"
      "(rounds, phases, shard jobs, pool queue waits) as chrome://tracing\n"
      "trace-event JSON — wall time is host-dependent by nature, but the\n"
      "recorder never perturbs results either.\n");
  return 0;
}

int cmd_version(const CliArgs& args) {
  args.allow_only({"json"}, "dyngossip version [--json]");
  const Provenance& prov = build_provenance();
  if (args.get_bool("json", false)) {
    JsonValue doc = JsonValue::object();
    doc.set("git", JsonValue::str(prov.git_describe));
    doc.set("compiler", JsonValue::str(prov.compiler));
    doc.set("build_type", JsonValue::str(prov.build_type));
    doc.set("sanitize", JsonValue::str(prov.sanitize));
    doc.set("cache_schema",
            JsonValue::number(static_cast<double>(kCacheSchemaVersion)));
    std::cout << doc.dump(2) << "\n";
    return 0;
  }
  std::printf("%s\n", version_line().c_str());
  return 0;
}

int run_one_scenario(ScenarioRegistry& registry, const std::string& name,
                     const CliArgs& args) {
  const Scenario* scenario = registry.find(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s'; try `dyngossip list`\n",
                 name.c_str());
    return 2;
  }

  // The global adversary axis: --adversary=SPEC / --trace=FILE.  Validated
  // up front so a typo'd spec dies as a flag error before any run starts.
  if ((args.has("adversary") || args.has("trace")) && !scenario->adversary_axis) {
    std::fprintf(stderr,
                 "scenario '%s' does not support the --adversary/--trace axis; "
                 "`dyngossip list` marks the scenarios that do\n",
                 name.c_str());
    return 2;
  }
  if (args.has("adversary") && args.has("trace")) {
    std::fprintf(stderr, "--adversary conflicts with --trace (the latter is "
                         "shorthand for --adversary=trace:file=...)\n");
    return 2;
  }
  std::string adversary_spec;
  if (args.has("adversary")) adversary_spec = args.get_string("adversary", "");
  if (args.has("trace")) {
    const std::string path = args.get_string("trace", "");
    // The expansion below re-enters the spec grammar, where ',' separates
    // keys — turn that into a clear error instead of a baffling parse one.
    if (path.find(',') != std::string::npos) {
      std::fprintf(stderr,
                   "--trace paths may not contain ',' (the adversary spec "
                   "grammar uses it as the key separator); rename '%s'\n",
                   path.c_str());
      return 2;
    }
    adversary_spec = "trace:file=" + path;
  }
  if (!adversary_spec.empty()) {
    try {
      AdversaryRegistry::global().validate(AdversarySpec::parse(adversary_spec));
    } catch (const AdversarySpecError& e) {
      std::fprintf(stderr, "%s\n(see `dyngossip adversaries`)\n", e.what());
      return 2;
    }
  }

  // The global algorithm axis: --algo=SPEC, validated up front like the
  // adversary axis.
  if (args.has("algo") && !scenario->algo_axis) {
    std::fprintf(stderr,
                 "scenario '%s' does not support the --algo axis; "
                 "`dyngossip list` marks the scenarios that do\n",
                 name.c_str());
    return 2;
  }
  std::string algo_spec;
  if (args.has("algo")) {
    algo_spec = args.get_string("algo", "");
    try {
      AlgoRegistry::global().validate(AlgoSpec::parse(algo_spec));
    } catch (const AlgoSpecError& e) {
      std::fprintf(stderr, "%s\n(see `dyngossip algorithms`)\n", e.what());
      return 2;
    }
  }

  // The global fault axis: --fault=SPEC / --trial-timeout=S, validated up
  // front like the other axes.
  if ((args.has("fault") || args.has("trial-timeout")) && !scenario->fault_axis) {
    std::fprintf(stderr,
                 "scenario '%s' does not support the --fault/--trial-timeout "
                 "axis; `dyngossip list` marks the scenarios that do\n",
                 name.c_str());
    return 2;
  }
  std::string fault_spec;
  if (args.has("fault")) {
    fault_spec = args.get_string("fault", "");
    try {
      (void)FaultSpec::parse(fault_spec);
    } catch (const FaultSpecError& e) {
      std::fprintf(stderr, "%s\n(see `dyngossip faults`)\n", e.what());
      return 2;
    }
  }
  const double trial_timeout = args.get_double("trial-timeout", 0.0);
  if (trial_timeout < 0.0) {
    std::fprintf(stderr, "--trial-timeout must be >= 0 seconds\n");
    return 2;
  }

  // The global observability axes: --probe=SPEC / --timeline=FILE.  The
  // timeline applies to every scenario (the pool's spans cover any run);
  // --probe, like --cache below, only to the scenarios that consume it.
  if (args.has("probe") && !scenario->probe_axis) {
    std::fprintf(stderr,
                 "scenario '%s' registers no probe series, so --probe would "
                 "be ignored; `dyngossip list --json` marks the scenarios "
                 "with a probe_axis\n",
                 name.c_str());
    return 2;
  }
  bool probe_on = false;
  ProbeSpec probe_spec;
  if (args.has("probe")) {
    try {
      probe_spec = ProbeSpec::parse(args.get_string("probe", ""));
      probe_on = true;
    } catch (const ProbeSpecError& e) {
      std::fprintf(stderr, "%s\n(see `dyngossip probes`)\n", e.what());
      return 2;
    }
  }
  std::string timeline_path;
  if (args.has("timeline")) {
    timeline_path = args.get_string("timeline", "");
    if (timeline_path.empty()) {
      std::fprintf(stderr, "--timeline requires a file path\n");
      return 2;
    }
  }

  // The global --cache= axis: a content-addressed result cache directory
  // (created if needed).  Opened up front so an unusable path dies as a
  // flag error before any run starts.
  if (args.has("cache") && !scenario->cache_axis) {
    std::fprintf(stderr,
                 "scenario '%s' does not run keyed trials, so --cache would "
                 "be ignored; `dyngossip list --json` marks the scenarios "
                 "with a cache_axis\n",
                 name.c_str());
    return 2;
  }
  std::unique_ptr<ResultCache> cache;
  if (args.has("cache")) {
    const std::string dir = args.get_string("cache", "");
    if (dir.empty()) {
      std::fprintf(stderr, "--cache requires a directory path\n");
      return 2;
    }
    try {
      cache = std::make_unique<ResultCache>(dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  std::vector<std::string> allowed = {"threads", "trials",  "scale",
                                      "quick",   "csv",     "json",
                                      "probe",   "timeline", "cache"};
  for (const ParamSpec& p : scenario->params) allowed.push_back(p.name);
  args.allow_only(allowed, "dyngossip run " + name +
                               " [--threads=N] [--trials=T] [--scale=S]"
                               " [--quick] [--csv] [--json[=PATH]] [--<param>=v]");

  std::map<std::string, std::string> params;
  for (const ParamSpec& p : scenario->params) {
    // The axis flags are global (threaded via ScenarioContext), never
    // scenario params, even though they appear in `list` as declared specs.
    if (p.name == "adversary" || p.name == "trace" || p.name == "algo" ||
        p.name == "fault" || p.name == "trial-timeout") {
      continue;
    }
    if (args.has(p.name)) params[p.name] = args.get_string(p.name, "");
  }
  const std::int64_t trials_raw = args.get_int("trials", 0);
  const std::int64_t threads_raw = args.get_int("threads", 0);
  if (trials_raw < 0 || threads_raw < 0 || threads_raw > 4096) {
    std::fprintf(stderr, "--trials must be >= 0 and --threads in [0, 4096]\n");
    return 2;
  }
  const auto trials = static_cast<std::size_t>(trials_raw);
  const auto threads = static_cast<std::size_t>(threads_raw);

  ScenarioScale scale =
      args.get_bool("quick", false) ? ScenarioScale::kQuick : ScenarioScale::kDefault;
  if (args.has("scale")) {
    const std::string text = args.get_string("scale", "default");
    if (!parse_scenario_scale(text, &scale)) {
      std::fprintf(stderr, "--scale must be quick, default, large, or xlarge (got '%s')\n",
                   text.c_str());
      return 2;
    }
    if (args.get_bool("quick", false) && scale != ScenarioScale::kQuick) {
      std::fprintf(stderr, "--quick conflicts with --scale=%s\n", text.c_str());
      return 2;
    }
  }

  // The recorder outlives the pool (declared first) so workers can never
  // touch a dead recorder during pool teardown.
  TimelineRecorder recorder;
  ProbeSink sink(probe_spec);
  ThreadPool pool(threads);
  ScenarioContext ctx(pool, trials, scale, std::move(params));
  ctx.set_adversary_spec(adversary_spec);
  ctx.set_algo_spec(algo_spec);
  ctx.set_fault_spec(fault_spec);
  ctx.set_trial_timeout(trial_timeout);
  if (probe_on) ctx.set_probe_sink(&sink);
  if (!timeline_path.empty()) {
    ctx.set_timeline(&recorder);
    pool.set_timeline(&recorder);
  }
  if (cache != nullptr) ctx.set_cache(cache.get());
  const auto start = std::chrono::steady_clock::now();
  ScenarioResult result;
  try {
    result = scenario->run(ctx);
  } catch (const AdversarySpecError& e) {
    std::fprintf(stderr, "adversary spec error: %s\n", e.what());
    return 2;
  } catch (const AlgoSpecError& e) {
    std::fprintf(stderr, "algorithm spec error: %s\n", e.what());
    return 2;
  } catch (const FaultSpecError& e) {
    std::fprintf(stderr, "fault spec error: %s\n", e.what());
    return 2;
  } catch (const TraceError& e) {
    std::fprintf(stderr, "trace error: %s\n", e.what());
    return 1;
  }
  RunInfo info;
  info.trials = trials;
  info.threads = pool.size();
  info.quick = scale == ScenarioScale::kQuick;
  info.scale = scale;
  info.elapsed_seconds = seconds_since(start);
  if (cache != nullptr) {
    const CacheStats stats = cache->stats();
    info.cache_attached = true;
    info.cache_dir = cache->dir();
    info.cache_hits = stats.hits;
    info.cache_misses = stats.misses;
    info.cache_stores = stats.stores;
    std::fprintf(stderr, "[dyngossip] cache: %zu hit(s), %zu miss(es), "
                 "%zu store(s) -> %s\n",
                 stats.hits, stats.misses, stats.stores, cache->dir().c_str());
  }

  if (probe_on) {
    const std::string error = sink.write();
    if (!error.empty()) {
      std::fprintf(stderr, "probe: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "[dyngossip] probe: %zu series -> %s\n",
                 sink.series_count(), sink.spec().out.c_str());
  }
  if (!timeline_path.empty()) {
    const std::string error = recorder.write_file(timeline_path);
    if (!error.empty()) {
      std::fprintf(stderr, "timeline: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "[dyngossip] timeline: %zu events -> %s\n",
                 recorder.event_count(), timeline_path.c_str());
  }

  if (args.has("json")) {
    const std::string path = args.get_string("json", "-");
    const std::string text = scenario_result_to_json(result, info).dump(2);
    if (path == "-" || path == "true") {
      std::cout << text << "\n";
    } else {
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return 2;
      }
      out << text << "\n";
    }
  } else if (args.get_bool("csv", false)) {
    print_scenario_csv(result, std::cout);
  } else {
    print_scenario_tables(result, std::cout);
  }
  std::fprintf(stderr, "[dyngossip] %s: %zu threads, %.2fs\n", name.c_str(),
               info.threads, info.elapsed_seconds);
  return 0;
}

bool summaries_identical(const Summary& a, const Summary& b) {
  // The checksum alone certifies bit-identity of the underlying samples in
  // trial order; the statistic compares stay as a self-check of Summary::of.
  return a.checksum == b.checksum && a.count == b.count && a.mean == b.mean &&
         a.stddev == b.stddev && a.min == b.min && a.max == b.max &&
         a.median == b.median && a.p90 == b.p90 && a.p99 == b.p99;
}

int cmd_speedup(const CliArgs& args) {
  args.allow_only({"threads", "trials", "n", "min"},
                  "dyngossip speedup [--threads=N] [--trials=T] [--n=SIZE]"
                  " [--min=X]");
  const std::int64_t threads_raw = args.get_int(
      "threads", static_cast<std::int64_t>(ThreadPool::hardware_threads()));
  const std::int64_t trials_raw = args.get_int("trials", 16);
  const std::int64_t n_raw = args.get_int("n", 48);
  if (threads_raw < 1 || threads_raw > 4096 || trials_raw < 1 || n_raw < 4) {
    std::fprintf(stderr,
                 "--threads in [1, 4096], --trials >= 1, --n >= 4 required\n");
    return 2;
  }
  const auto threads = static_cast<std::size_t>(threads_raw);
  const auto trials = static_cast<std::size_t>(trials_raw);
  const auto n = static_cast<std::size_t>(n_raw);
  const double min_speedup = args.get_double("min", 0.0);

  // A representative paper workload: Algorithm 1 under churn, one full run
  // per trial, seeded by a SplitMix64 chain.  The same keyed trials run
  // through the scenario executor twice — on a 1-worker pool, then on an
  // N-worker pool — and their samples must fold bit-identically.
  constexpr std::uint64_t kBaseSeed = 0x5eedfeed;
  const auto k = static_cast<std::uint32_t>(2 * n);
  AdversarySpec churn{"churn", {}};
  churn.set("edges", static_cast<std::uint64_t>(3 * n))
      .set("churn", static_cast<std::uint64_t>(std::max<std::size_t>(1, n / 8)))
      .set("sigma", std::uint64_t{3});
  const std::string churn_text = churn.to_string();
  const std::string fault_text = FaultSpec{}.to_string();
  std::vector<KeyedTrial> sweep(trials);
  std::uint64_t chain = kBaseSeed;
  for (KeyedTrial& trial : sweep) {
    trial.key = make_run_key("single_source", churn_text, fault_text, n, k, 1,
                             static_cast<Round>(100 * n * k), splitmix64(chain));
  }
  const auto timed_sweep = [&sweep](ThreadPool& on, double* seconds) {
    const ScenarioContext ctx(on, 0, ScenarioScale::kDefault);
    const auto start = std::chrono::steady_clock::now();
    std::vector<MemoOutcome> out = memoized_sweep(sweep, ctx);
    *seconds = seconds_since(start);
    return out;
  };
  const auto summarize = [](const std::vector<MemoOutcome>& rows) {
    std::vector<double> samples;
    samples.reserve(rows.size());
    for (const MemoOutcome& o : rows) {
      samples.push_back(static_cast<double>(o.row.metrics.unicast.total()));
    }
    return Summary::of(std::move(samples));
  };
  double serial_s = 0.0;
  double parallel_s = 0.0;
  ThreadPool serial_pool(1);
  const std::vector<MemoOutcome> rows = timed_sweep(serial_pool, &serial_s);
  ThreadPool pool(threads);
  const Summary serial = summarize(rows);
  const Summary parallel = summarize(timed_sweep(pool, &parallel_s));

  const bool identical = summaries_identical(serial, parallel);
  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;

  JsonValue doc = JsonValue::object();
  doc.set("trials", JsonValue::number(static_cast<double>(trials)));
  doc.set("threads", JsonValue::number(static_cast<double>(pool.size())));
  doc.set("n", JsonValue::number(static_cast<double>(n)));
  doc.set("serial_seconds", JsonValue::number(serial_s));
  doc.set("parallel_seconds", JsonValue::number(parallel_s));
  doc.set("speedup", JsonValue::number(speedup));
  doc.set("bit_identical", JsonValue::boolean(identical));
  doc.set("checksum_serial", JsonValue::str(checksum_hex(serial.checksum)));
  doc.set("checksum_parallel", JsonValue::str(checksum_hex(parallel.checksum)));
  // Run health (satellite of the observer plane): how each trial ended and
  // the worst residual coverage — all "completed" / 1.0 on this fault-free
  // workload, but the keys keep the record shape uniform with faulty runs.
  std::map<std::string, std::size_t> status_counts;
  double min_coverage = 1.0;
  for (const MemoOutcome& o : rows) {
    ++status_counts[run_status_name(o.row.metrics.status)];
    min_coverage = std::min(min_coverage, o.row.metrics.coverage);
  }
  JsonValue status_json = JsonValue::object();
  for (const auto& [status, count] : status_counts) {
    status_json.set(status, JsonValue::number(static_cast<double>(count)));
  }
  doc.set("status_counts", std::move(status_json));
  doc.set("min_coverage", JsonValue::number(min_coverage));
  std::cout << doc.dump(2) << "\n";

  if (!identical) {
    std::fprintf(stderr, "FAIL: parallel sweep diverged from serial\n");
    return 1;
  }
  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below required %.2fx\n", speedup,
                 min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int dyngossip_main(ScenarioRegistry& registry, int argc, const char* const* argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string command = argv[1];

  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (command == "list") {
    return cmd_list(registry, sub_args(argc, argv, 2));
  }
  if (command == "adversaries") {
    return cmd_adversaries(sub_args(argc, argv, 2));
  }
  if (command == "algorithms") {
    return cmd_algorithms(sub_args(argc, argv, 2));
  }
  if (command == "faults") {
    return cmd_faults(sub_args(argc, argv, 2));
  }
  if (command == "probes") {
    return cmd_probes(sub_args(argc, argv, 2));
  }
  if (command == "version" || command == "--version") {
    return cmd_version(sub_args(argc, argv, 2));
  }
  if (command == "run") {
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
      std::fprintf(stderr, "usage: dyngossip run <scenario> [flags]\n");
      return 2;
    }
    return run_one_scenario(registry, argv[2], sub_args(argc, argv, 3));
  }
  if (command == "trace") {
    return trace_main(argc, argv);
  }
  if (command == "cache") {
    return cache_main(argc, argv);
  }
  if (command == "serve" || command == "request") {
    return serve_main(argc, argv);
  }
  if (command == "speedup") {
    return cmd_speedup(sub_args(argc, argv, 2));
  }
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}

}  // namespace dyngossip
