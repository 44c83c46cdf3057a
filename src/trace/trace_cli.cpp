#include "trace/trace_cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "common/cli.hpp"
#include "common/provenance.hpp"
#include "core/tokens.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "metrics/report.hpp"
#include "sim/runner/json.hpp"
#include "trace/run_payload.hpp"
#include "trace/trace_adversary.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {

namespace {

constexpr const char* kTraceUsage =
    "usage: dyngossip trace <record|replay|info|gen> [flags]\n"
    "\n"
    "  record --out=T.dgt [--algo=SPEC] [--n=64]\n"
    "         [--k=128] [--sources=4] [--adversary=SPEC] [--sigma=3]\n"
    "         [--churn=N/8] [--edges=3N] [--seed=7] [--cap=R] [--quick]\n"
    "         [--fault=SPEC] [--json[=PATH|-]]\n"
    "         run an algorithm against a live adversary, teeing the schedule\n"
    "         to a trace; --algo is any registry spec (`dyngossip\n"
    "         algorithms`, default single_source) and --adversary any\n"
    "         schedule spec (`dyngossip adversaries`, default churn — the\n"
    "         --sigma/--churn/--edges flags fill in unset keys of the\n"
    "         churn/fresh/sigma families); the run flags are embedded in the\n"
    "         trace metadata\n"
    "  replay --trace=T.dgt [--algo=SPEC] [--k=..] [--sources=..] [--cap=R]\n"
    "         [--fault=SPEC] [--json[=PATH|-]]\n"
    "         re-run an algorithm against a recorded schedule (flags default\n"
    "         to the recorded metadata, including the canonical algorithm\n"
    "         and fault specs; matching flags give a bit-identical payload,\n"
    "         which `diff` or the checksum field verifies)\n"
    "  info   --trace=T.dgt [--windows=W] [--json[=PATH|-]]\n"
    "         stream a trace and summarize it (no run); --windows=W adds\n"
    "         per-window round/edge-churn stats for long schedules\n"
    "  gen    --out=T.dgt --kind=SPEC|smoothed [--n=64] [--rounds=256]\n"
    "         [--sigma=4] [--churn=N] [--edges=3N] [--seed=7]\n"
    "         [--base=IN.dgt] [--flips=8]\n"
    "         synthesize a trace from any oblivious registry family\n"
    "         (smoothed perturbs --base)\n"
    "\n"
    "Trace paths ending in .jsonl use the text interchange codec; all other\n"
    "paths use the binary .dgt codec.  Readers sniff the format.\n";

/// Writes a JSON doc per the --json flag convention ("-"/bare to stdout).
int emit_json(const CliArgs& args, const JsonValue& doc) {
  const std::string path = args.get_string("json", "-");
  const std::string text = doc.dump(2);
  if (path == "-" || path == "true") {
    std::cout << text << "\n";
    return 0;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 2;
  }
  out << text << "\n";
  return 0;
}

/// Parses a record/gen --adversary/--kind value into a registry spec,
/// filling unset keys of the churn/fresh/sigma families from the legacy
/// numeric flags and routing the flag seed into any seeded family (so the
/// embedded metadata spec alone reproduces the schedule).
AdversarySpec effective_adversary_spec(const std::string& text, std::size_t edges,
                                       std::size_t churn, std::size_t sigma,
                                       std::uint64_t seed) {
  AdversarySpec spec = AdversarySpec::parse(text);
  auto inject = [&spec](const std::string& key, std::uint64_t value) {
    if (spec.params.count(key) == 0u) spec.set(key, value);
  };
  if (spec.family == "churn" || spec.family == "fresh" || spec.family == "sigma") {
    inject("edges", edges);
    if (spec.family != "fresh") inject("churn", churn);
    if (spec.family == "churn") inject("sigma", sigma);
    if (spec.family == "sigma") inject("interval", sigma);
  }
  const AdversaryFamily* family = AdversaryRegistry::global().find(spec.family);
  if (family != nullptr &&
      std::any_of(family->keys.begin(), family->keys.end(),
                  [](const AdversaryKeySpec& k) { return k.key == "seed"; })) {
    inject("seed", seed);
  }
  return spec;
}

int cmd_record(const CliArgs& args) {
  args.allow_only({"out", "algo", "n", "k", "sources", "adversary", "sigma", "churn",
                   "edges", "seed", "cap", "quick", "fault", "json"},
                  kTraceUsage);
  const std::string out_path = args.get_string("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "trace record requires --out=PATH\n");
    return 2;
  }
  const bool quick = args.get_bool("quick", false);
  const AlgoSpec algo = AlgoSpec::parse(args.get_string("algo", "single_source"));
  AlgoRegistry::global().validate(algo);
  AlgoBuildContext actx;
  actx.n = static_cast<std::size_t>(args.get_int("n", quick ? 32 : 64));
  actx.k = static_cast<std::uint32_t>(args.get_int("k", quick ? 64 : 128));
  actx.sources = static_cast<std::size_t>(args.get_int("sources", 4));
  actx.cap = static_cast<Round>(args.get_int("cap", 0));
  if (actx.n < 2 || actx.k < 1) {
    std::fprintf(stderr, "--n >= 2 and --k >= 1 required\n");
    return 2;
  }
  const std::string kind = args.get_string("adversary", "churn");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  actx.seed = seed;
  const auto sigma = static_cast<Round>(args.get_int("sigma", 3));
  const auto churn =
      static_cast<std::size_t>(args.get_int("churn", static_cast<std::int64_t>(
                                                         std::max<std::size_t>(
                                                             1, actx.n / 8))));
  const auto edges = static_cast<std::size_t>(
      args.get_int("edges", static_cast<std::int64_t>(3 * actx.n)));
  if (sigma < 1) {
    std::fprintf(stderr, "--sigma must be >= 1\n");
    return 2;
  }

  const AdversarySpec aspec = effective_adversary_spec(
      kind, edges, churn, static_cast<std::size_t>(sigma), seed);
  std::string why;
  if (!algo_schedule_compatible(*AlgoRegistry::global().find(algo.family),
                                aspec, &why)) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }
  AdversaryBuildContext bctx;
  bctx.n = actx.n;
  bctx.seed = seed;
  const std::unique_ptr<Adversary> inner =
      AdversaryRegistry::global().build(aspec, bctx);

  // Fault plane: the recording run can itself execute under a fault plan
  // (position-keyed off the run seed, so the recording is reproducible);
  // the canonical spec rides in the metadata so replay defaults to it.
  const std::string fault_text = args.get_string("fault", "");
  FaultSpec fspec;
  if (!fault_text.empty()) fspec = FaultSpec::parse(fault_text);
  FaultPlan plan(fspec, actx.n, seed);
  if (!fault_text.empty()) actx.faults = &plan;

  // The run flags become the trace metadata so replay can default to them;
  // the canonical algorithm + adversary specs make the recording
  // self-describing.
  std::string metadata = "algo=" + algo.to_string() +
                         " n=" + std::to_string(actx.n) +
                         " k=" + std::to_string(actx.k) +
                         " sources=" + std::to_string(actx.sources) +
                         " adversary=" + aspec.to_string() +
                         " seed=" + std::to_string(seed) +
                         " cap=" + std::to_string(actx.cap);
  if (!fault_text.empty()) metadata += " fault=" + fspec.to_string();
  // Provenance rides along as one more key=value token (compact form has no
  // spaces); replay ignores unknown keys, so old readers are unaffected.
  metadata += " build=" + provenance_compact();

  std::unique_ptr<TraceWriter> writer = open_trace_writer(
      out_path, static_cast<std::uint32_t>(actx.n), seed, std::move(metadata));
  TraceRecorder recorder(*inner, *writer);
  const RunResult r = run_algo(algo, actx, recorder);
  writer->finish();

  if (args.has("json")) {
    return emit_json(args,
                     run_payload_json(algo.to_string(), actx.n, actx.k_realized, r));
  }
  std::printf("recorded %u rounds to %s (n=%zu, checksum=%s)\n", writer->rounds(),
              out_path.c_str(), actx.n, checksum_hex(writer->checksum()).c_str());
  std::printf("%s", run_summary(r.metrics, actx.k_realized).c_str());
  return 0;
}

int cmd_replay(const CliArgs& args) {
  // No --n: the node count is the trace header's, never a flag.
  args.allow_only({"trace", "algo", "k", "sources", "cap", "fault", "json"},
                  kTraceUsage);
  const std::string trace_path = args.get_string("trace", "");
  if (trace_path.empty()) {
    std::fprintf(stderr, "trace replay requires --trace=PATH\n");
    return 2;
  }
  TraceAdversary adversary(trace_path);
  const TraceHeader& header = adversary.trace_header();
  const std::map<std::string, std::string> meta =
      parse_trace_metadata(header.metadata);
  auto meta_or = [&meta](const char* key, std::int64_t def) {
    const auto it = meta.find(key);
    if (it == meta.end()) return def;
    try {
      return static_cast<std::int64_t>(std::stoll(it->second));
    } catch (const std::exception&) {
      return def;  // foreign trace with free-form metadata: fall back
    }
  };

  // The recording's metadata embeds the canonical algorithm spec, so a
  // bare `trace replay` re-runs exactly the recorded algorithm; --algo=SPEC
  // replays the schedule under a different one (cross-algorithm replay).
  const AlgoSpec algo = AlgoSpec::parse(args.get_string(
      "algo", meta.count("algo") != 0u ? meta.at("algo") : "single_source"));
  AlgoRegistry::global().validate(algo);
  // A static-only algorithm over a dynamic recording would die on the
  // protocol's DG_CHECK; the shared policy inspects the recording's
  // embedded adversary metadata and rejects that cleanly before running.
  std::string why;
  if (!algo_schedule_compatible(
          *AlgoRegistry::global().find(algo.family),
          AdversarySpec{"trace", {{"file", trace_path}}}, &why)) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }
  AlgoBuildContext actx;
  actx.n = header.n;
  actx.k = static_cast<std::uint32_t>(args.get_int("k", meta_or("k", 128)));
  actx.sources =
      static_cast<std::size_t>(args.get_int("sources", meta_or("sources", 4)));
  actx.cap = static_cast<Round>(args.get_int("cap", meta_or("cap", 0)));
  actx.seed = static_cast<std::uint64_t>(meta_or("seed", 1));

  // Fault replay defaults to the recording's embedded spec (so a recording
  // made under faults reproduces bit-identically); --fault=SPEC overrides,
  // and --fault= (empty) strips it for a fault-free cross-replay.
  const std::string fault_text = args.get_string(
      "fault", meta.count("fault") != 0u ? meta.at("fault") : "");
  FaultSpec fspec;
  if (!fault_text.empty()) fspec = FaultSpec::parse(fault_text);
  FaultPlan plan(fspec, actx.n, actx.seed);
  if (!fault_text.empty()) actx.faults = &plan;

  const RunResult r = run_algo(algo, actx, adversary);

  if (args.has("json")) {
    return emit_json(args,
                     run_payload_json(algo.to_string(), actx.n, actx.k_realized, r));
  }
  std::printf("replayed %u trace rounds from %s (exhausted=%s)\n",
              adversary.rounds_replayed(), trace_path.c_str(),
              adversary.exhausted() ? "yes" : "no");
  std::printf("%s", run_summary(r.metrics, actx.k_realized).c_str());
  return 0;
}

/// Per-round sample kept while streaming so --windows can aggregate after
/// the total round count is known (JSONL only reveals it in the trailer).
/// 12 bytes/round: a 10^6-round schedule costs ~12 MB, far below the cost
/// of materializing any single round at that scale.
struct RoundSample {
  std::uint32_t edges = 0;
  std::uint32_t insertions = 0;
  std::uint32_t removals = 0;
};

/// Aggregates samples into `window_count` near-equal round ranges.
struct WindowStat {
  Round first = 0, last = 0;
  std::size_t min_edges = 0, max_edges = 0;
  std::uint64_t edge_sum = 0, insertions = 0, deletions = 0;

  [[nodiscard]] Round rounds() const { return last - first + 1; }
  [[nodiscard]] double avg_edges() const {
    return static_cast<double>(edge_sum) / static_cast<double>(rounds());
  }
  [[nodiscard]] double churn_per_round() const {
    return static_cast<double>(insertions + deletions) /
           static_cast<double>(rounds());
  }
};

std::vector<WindowStat> aggregate_windows(const std::vector<RoundSample>& samples,
                                          std::size_t window_count) {
  std::vector<WindowStat> windows;
  const std::size_t total = samples.size();
  if (total == 0) return windows;
  window_count = std::min(window_count, total);
  for (std::size_t w = 0; w < window_count; ++w) {
    // Round ranges [first, last] split as evenly as integer division allows.
    const std::size_t first = w * total / window_count;
    const std::size_t last = (w + 1) * total / window_count - 1;
    WindowStat stat;
    stat.first = static_cast<Round>(first + 1);
    stat.last = static_cast<Round>(last + 1);
    for (std::size_t i = first; i <= last; ++i) {
      const RoundSample& s = samples[i];
      stat.min_edges = i == first ? s.edges
                                  : std::min<std::size_t>(stat.min_edges, s.edges);
      stat.max_edges = std::max<std::size_t>(stat.max_edges, s.edges);
      stat.edge_sum += s.edges;
      stat.insertions += s.insertions;
      stat.deletions += s.removals;
    }
    windows.push_back(stat);
  }
  return windows;
}

int cmd_info(const CliArgs& args) {
  args.allow_only({"trace", "windows", "json"}, kTraceUsage);
  const std::string trace_path = args.get_string("trace", "");
  if (trace_path.empty()) {
    std::fprintf(stderr, "trace info requires --trace=PATH\n");
    return 2;
  }
  const std::int64_t windows_raw = args.get_int("windows", 0);
  if (windows_raw < 0 || windows_raw > 1'000'000) {
    std::fprintf(stderr, "--windows must be in [0, 10^6] (0 disables windowing)\n");
    return 2;
  }
  const auto window_count = static_cast<std::size_t>(windows_raw);

  const std::unique_ptr<TraceSource> source = open_trace_source(trace_path);
  Graph g(source->header().n);
  std::uint64_t insertions = 0;
  std::uint64_t deletions = 0;
  std::uint64_t edge_sum = 0;
  std::size_t min_edges = 0;
  std::size_t max_edges = 0;
  Round rounds = 0;
  std::vector<RoundSample> samples;
  while (source->next_round(g)) {
    ++rounds;
    const std::size_t m = g.num_edges();
    insertions += source->last_insertions();
    deletions += source->last_removals();
    min_edges = rounds == 1 ? m : std::min(min_edges, m);
    max_edges = std::max(max_edges, m);
    edge_sum += m;
    if (window_count > 0) {
      samples.push_back({static_cast<std::uint32_t>(m),
                         static_cast<std::uint32_t>(source->last_insertions()),
                         static_cast<std::uint32_t>(source->last_removals())});
    }
  }
  const std::vector<WindowStat> windows = aggregate_windows(samples, window_count);
  const TraceHeader& header = source->header();
  const double avg_edges =
      rounds == 0 ? 0.0 : static_cast<double>(edge_sum) / static_cast<double>(rounds);

  if (args.has("json")) {
    JsonValue doc = JsonValue::object();
    doc.set("n", JsonValue::number(static_cast<double>(header.n)));
    doc.set("rounds", JsonValue::number(static_cast<double>(header.rounds)));
    doc.set("seed", JsonValue::str(checksum_hex(header.seed)));
    doc.set("checksum", JsonValue::str(checksum_hex(header.checksum)));
    doc.set("metadata", JsonValue::str(header.metadata));
    doc.set("min_edges", JsonValue::number(static_cast<double>(min_edges)));
    doc.set("avg_edges", JsonValue::number(avg_edges));
    doc.set("max_edges", JsonValue::number(static_cast<double>(max_edges)));
    doc.set("tc", JsonValue::number(static_cast<double>(insertions)));
    doc.set("deletions", JsonValue::number(static_cast<double>(deletions)));
    if (window_count > 0) {
      JsonValue window_docs = JsonValue::array();
      for (const WindowStat& w : windows) {
        JsonValue entry = JsonValue::object();
        entry.set("first_round", JsonValue::number(static_cast<double>(w.first)));
        entry.set("last_round", JsonValue::number(static_cast<double>(w.last)));
        entry.set("min_edges", JsonValue::number(static_cast<double>(w.min_edges)));
        entry.set("avg_edges", JsonValue::number(w.avg_edges()));
        entry.set("max_edges", JsonValue::number(static_cast<double>(w.max_edges)));
        entry.set("insertions",
                  JsonValue::number(static_cast<double>(w.insertions)));
        entry.set("deletions", JsonValue::number(static_cast<double>(w.deletions)));
        entry.set("churn_per_round", JsonValue::number(w.churn_per_round()));
        window_docs.push(std::move(entry));
      }
      doc.set("windows", std::move(window_docs));
    }
    return emit_json(args, doc);
  }
  std::printf("trace %s\n", trace_path.c_str());
  std::printf("  n         %u\n", header.n);
  std::printf("  rounds    %u\n", header.rounds);
  std::printf("  seed      %s\n", checksum_hex(header.seed).c_str());
  std::printf("  checksum  %s\n", checksum_hex(header.checksum).c_str());
  std::printf("  edges     min=%zu avg=%.1f max=%zu\n", min_edges, avg_edges,
              max_edges);
  std::printf("  TC(E)     %llu insertions, %llu deletions\n",
              static_cast<unsigned long long>(insertions),
              static_cast<unsigned long long>(deletions));
  std::printf("  metadata  %s\n",
              header.metadata.empty() ? "(none)" : header.metadata.c_str());
  if (window_count > 0) {
    std::printf("  windows   %zu\n", windows.size());
    std::printf("    %-15s %-6s %-36s %-10s %-10s %s\n", "rounds", "len",
                "edges (min/avg/max)", "ins", "del", "churn/round");
    for (const WindowStat& w : windows) {
      std::printf("    %6u..%-7u %-6u min=%-6zu avg=%-8.1f max=%-8zu %-10llu "
                  "%-10llu %.2f\n",
                  w.first, w.last, w.rounds(), w.min_edges, w.avg_edges(),
                  w.max_edges, static_cast<unsigned long long>(w.insertions),
                  static_cast<unsigned long long>(w.deletions),
                  w.churn_per_round());
    }
  }
  return 0;
}

int cmd_gen(const CliArgs& args) {
  args.allow_only(
      {"out", "kind", "n", "rounds", "sigma", "churn", "edges", "seed", "base",
       "flips"},
      kTraceUsage);
  const std::string out_path = args.get_string("out", "");
  const std::string kind = args.get_string("kind", "sigma");
  if (out_path.empty()) {
    std::fprintf(stderr, "trace gen requires --out=PATH\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  const AdversarySpec kind_spec = AdversarySpec::parse(kind);
  if (kind_spec.family == "smoothed") {
    // Both spellings — bare `smoothed` with flags, or a full
    // `smoothed:base=...,flips=...` spec — take the trace-to-trace
    // transform, so the output always has exactly the base's round count
    // (the adversary form would pad --rounds with held duplicate graphs).
    AdversaryRegistry::global().validate(kind_spec);
    const auto param_u64 = [&kind_spec](const char* key, std::uint64_t def) {
      const auto it = kind_spec.params.find(key);
      if (it == kind_spec.params.end()) return def;
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(it->second.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || it->second.empty() || errno == ERANGE ||
          v < 0) {
        throw AdversarySpecError(std::string("smoothed: key '") + key +
                                 "' expects a non-negative integer (got '" +
                                 it->second + "')");
      }
      return static_cast<std::uint64_t>(v);
    };
    const std::string base_path = kind_spec.params.count("base") != 0u
                                      ? kind_spec.params.at("base")
                                      : args.get_string("base", "");
    if (base_path.empty()) {
      std::fprintf(stderr, "trace gen --kind=smoothed requires --base=PATH\n");
      return 2;
    }
    SmoothedTraceConfig sc;
    sc.flips_per_round = static_cast<std::size_t>(
        param_u64("flips", static_cast<std::uint64_t>(args.get_int("flips", 8))));
    sc.seed = param_u64("seed", seed);
    const std::unique_ptr<TraceSource> base = open_trace_source(base_path);
    const std::string metadata =
        "kind=smoothed base=" + base_path +
        " flips=" + std::to_string(sc.flips_per_round) +
        " seed=" + std::to_string(sc.seed);
    std::unique_ptr<TraceWriter> writer =
        open_trace_writer(out_path, base->header().n, sc.seed, metadata);
    smooth_trace(*base, sc, *writer);
    writer->finish();
    std::printf("smoothed %u rounds (%zu flips/round) -> %s (checksum=%s)\n",
                writer->rounds(), sc.flips_per_round, out_path.c_str(),
                checksum_hex(writer->checksum()).c_str());
    return 0;
  }

  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  const auto rounds = static_cast<Round>(args.get_int("rounds", 256));
  const auto sigma = static_cast<Round>(args.get_int("sigma", 4));
  const auto churn = static_cast<std::size_t>(
      args.get_int("churn", static_cast<std::int64_t>(n)));
  const auto edges = static_cast<std::size_t>(
      args.get_int("edges", static_cast<std::int64_t>(3 * n)));
  if (n < 2 || sigma < 1) {
    std::fprintf(stderr, "--n >= 2 and --sigma >= 1 required\n");
    return 2;
  }

  // Build (and thereby validate) the generator before open_trace_writer
  // truncates --out: a typo'd kind must not destroy an existing trace file.
  const AdversarySpec aspec = effective_adversary_spec(
      kind, edges, churn, static_cast<std::size_t>(sigma), seed);
  AdversaryBuildContext bctx;
  bctx.n = n;
  bctx.seed = seed;
  std::unique_ptr<Adversary> generator =
      AdversaryRegistry::global().build(aspec, bctx);
  auto* oblivious = dynamic_cast<ObliviousAdversary*>(generator.get());
  if (oblivious == nullptr) {
    std::fprintf(stderr,
                 "--kind=%s is an adaptive family — its schedule is not data "
                 "until a run exists; use `trace record --adversary=%s` to tee "
                 "a live run instead\n",
                 aspec.family.c_str(), aspec.family.c_str());
    return 2;
  }

  const std::string metadata = "kind=" + aspec.to_string() +
                               " n=" + std::to_string(n) +
                               " rounds=" + std::to_string(rounds) +
                               " seed=" + std::to_string(seed);
  std::unique_ptr<TraceWriter> writer =
      open_trace_writer(out_path, static_cast<std::uint32_t>(n), seed, metadata);
  record_schedule(*oblivious, rounds, *writer);
  writer->finish();
  std::printf("generated %u rounds of '%s' -> %s (n=%zu, checksum=%s)\n",
              writer->rounds(), aspec.to_string().c_str(), out_path.c_str(), n,
              checksum_hex(writer->checksum()).c_str());
  return 0;
}

}  // namespace

int trace_main(int argc, const char* const* argv) {
  if (argc < 3) {
    std::fputs(kTraceUsage, stderr);
    return 2;
  }
  const std::string sub = argv[2];
  std::vector<const char*> rest = {argv[0]};
  for (int i = 3; i < argc; ++i) rest.push_back(argv[i]);
  const CliArgs args(static_cast<int>(rest.size()), rest.data());

  try {
    if (sub == "record") return cmd_record(args);
    if (sub == "replay") return cmd_replay(args);
    if (sub == "info") return cmd_info(args);
    if (sub == "gen") return cmd_gen(args);
  } catch (const AdversarySpecError& e) {
    std::fprintf(stderr, "%s\n(see `dyngossip adversaries`)\n", e.what());
    return 2;
  } catch (const AlgoSpecError& e) {
    std::fprintf(stderr, "%s\n(see `dyngossip algorithms`)\n", e.what());
    return 2;
  } catch (const FaultSpecError& e) {
    std::fprintf(stderr, "%s\n(see `dyngossip faults`)\n", e.what());
    return 2;
  } catch (const TraceError& e) {
    std::fprintf(stderr, "trace error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown trace subcommand '%s'\n%s", sub.c_str(), kTraceUsage);
  return 2;
}

}  // namespace dyngossip
