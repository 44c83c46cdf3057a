// Central algorithm registry: every dissemination protocol runnable from
// one spec.
//
// The paper's central story is a comparison across algorithms on a shared
// schedule — Algorithm 1's O(n² + nk) request-based unicast versus the
// O(n²k) local-broadcast flooding baseline (Theorems 3.1 vs 2.3), the
// trivial push and spanning-tree ceilings of Section 1, and the oblivious
// funnel of Section 3.2.2.  Until now only two of those were reachable from
// a spec string; the other protocols in src/core/ were hand-constructed per
// scenario with incompatible signatures.  This registry mirrors the
// adversary registry (PR 4) on the algorithm axis: each family declares its
// engine (unicast / local broadcast), its keys, and a factory from a shared
// AlgoBuildContext, so any experiment runs any algorithm from a single spec
// such as
//
//     single_source:priority=reversed     multi_source:sources=8
//     flooding:                           random_flooding:seed=5
//
// `dyngossip algorithms` enumerates what exists; the global --algo= flag
// (RunAxes) lets any opted-in scenario swap its algorithm, and
// `dyngossip trace record|replay` dispatch through here so a recording's
// metadata pins the exact algorithm spec it ran.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "adversary/registry.hpp"
#include "common/knowledge_set.hpp"
#include "common/spec.hpp"
#include "sim/config.hpp"
#include "sim/run_options.hpp"

namespace dyngossip {

/// Thrown on malformed algorithm spec text, unknown families/keys,
/// out-of-range values, or a build context a family cannot honour.  A
/// dedicated type so CLI layers can turn registry misuse into flag errors
/// (exit 2), exactly like AdversarySpecError on the schedule axis.
class AlgoSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed algorithm spec: family name plus key=value parameters.
///
/// Same grammar, strict parse, and canonical rendering as AdversarySpec
/// (common/spec.hpp): `family[:key=value[,key=value...]]`, keys stored
/// sorted, parse(s).to_string() round-trips.  A bare family name renders
/// without the colon, so the canonical spec of the default single-source
/// run is just "single_source" — byte-compatible with the algo= metadata
/// field PR-3/PR-4 recordings already embed.
struct AlgoSpec {
  std::string family;
  std::map<std::string, std::string> params;

  /// Parses spec text; throws AlgoSpecError with the offending part.
  [[nodiscard]] static AlgoSpec parse(const std::string& text);

  /// Canonical `family:k=v,k=v` rendering (keys sorted, no spaces).
  [[nodiscard]] std::string to_string() const;

  /// Chainable param setters (scenarios build specs programmatically).
  AlgoSpec& set(const std::string& key, const std::string& value);
  AlgoSpec& set(const std::string& key, std::uint64_t value);
  AlgoSpec& set(const std::string& key, double value);
};

[[nodiscard]] bool operator==(const AlgoSpec& a, const AlgoSpec& b);

/// One declared spec key of a family (the shared grammar's SpecKey).
using AlgoKeySpec = SpecKey;

/// Run-side inputs shared by every algorithm factory: the RunOptions
/// (sim/run_options.hpp) forwarded to every engine the family builds, plus
/// the task.  The spec's own keys (sources=, seed=, ...) always win over
/// the context's defaults, so a fully-pinned spec reproduces one run while
/// a bare family follows the scenario row.
struct AlgoBuildContext : RunOptions {
  std::size_t n = 64;       ///< nodes
  std::uint32_t k = 128;    ///< requested token count
  /// Default source count for the inherently multi-source families
  /// (multi_source, oblivious); spec sources= wins.  The single-task
  /// families (flooding, random_flooding, neighbor_exchange, spanning_tree)
  /// default to 1 source instead so `--algo=flooding:` is the flooding
  /// analogue of the same single-source task.
  std::size_t sources = 4;
  Round cap = 0;            ///< round cap; 0 derives 200·n·k
  /// Seed for algorithm-side randomness (random_flooding's token picks,
  /// the oblivious walk/center election); spec seed= wins.  Deterministic
  /// families ignore it.
  std::uint64_t seed = 1;
  /// Optional explicit K_v(0) override.  `upper_bounds` sets it for its
  /// random one-holder-per-token placement (flooding, neighbor_exchange),
  /// and `lb_broadcast` and the `ablations` lb trial for flooding against
  /// an lb adversary built from the same K_v(0).  Only the knowledge-shaped
  /// families (flooding, random_flooding, neighbor_exchange, the async
  /// pair) accept it; the token-labelling families derive K_v(0) from
  /// their TokenSpace and reject an override.
  const std::vector<KnowledgeSet>* initial_knowledge = nullptr;
  /// Out: realized token count (k rounded to the realized labelling, e.g.
  /// s·⌊k/s⌋ under an s-source split).  Set by every factory.
  std::uint64_t k_realized = 0;
};

/// Which engine a family runs on: Definition 1.1's two synchronous
/// communication modes, plus the continuous-time event-queue engine
/// (src/async/).  Documentation for `dyngossip algorithms` and the matrix
/// scenario; the factory itself embeds the choice.  Cache identity depends
/// on it too: RunKey folds the family's engine into the canonical key.
enum class AlgoEngine : std::uint8_t { kUnicast = 0, kBroadcast = 1, kAsync = 2 };

[[nodiscard]] const char* algo_engine_name(AlgoEngine engine);

/// A registered algorithm family.
struct AlgoFamily {
  std::string name;         ///< registry key, e.g. "single_source"
  std::string description;  ///< one line for `dyngossip algorithms`
  std::string example;      ///< a representative spec string
  AlgoEngine engine = AlgoEngine::kUnicast;
  /// True when the protocol asserts a never-changing neighborhood
  /// (spanning_tree's static-topology guard DG_CHECKs otherwise); callers
  /// must pair such a family with a static schedule.
  bool requires_static = false;
  std::vector<AlgoKeySpec> keys;
  /// Runs the family against `adversary`; sets ctx.k_realized.
  std::function<RunResult(const AlgoSpec&, AlgoBuildContext&, Adversary&)> run;
};

/// Name → family registry (mirrors AdversaryRegistry: explicit
/// registration, private instances for tests, thread-safe global()).
class AlgoRegistry {
 public:
  /// Registers a family.  Throws std::invalid_argument on an invalid name,
  /// a missing run function, or a duplicate.
  void add(AlgoFamily family);

  /// Family by name, or nullptr when unknown.
  [[nodiscard]] const AlgoFamily* find(const std::string& name) const noexcept;

  /// All families, sorted by name.
  [[nodiscard]] std::vector<const AlgoFamily*> list() const;

  /// Number of registered families.
  [[nodiscard]] std::size_t size() const noexcept { return families_.size(); }

  /// Checks the spec against the declared families/keys without running.
  /// Throws AlgoSpecError naming the unknown family or key.
  void validate(const AlgoSpec& spec) const;

  /// Validates, then runs.  ctx.k_realized receives the realized token
  /// count.  Throws AlgoSpecError on registry misuse.
  [[nodiscard]] RunResult run(const AlgoSpec& spec, AlgoBuildContext& ctx,
                              Adversary& adversary) const;

  /// Process-wide registry with every family installed.
  [[nodiscard]] static AlgoRegistry& global();

 private:
  std::map<std::string, AlgoFamily> families_;
};

/// Installs the full family catalogue; a no-op when already installed.
void register_all_algorithms(AlgoRegistry& registry);

/// The single requires_static policy, shared by every dispatch site (the
/// scenario axis tables, algo_matrix, `trace record|replay`): can `family`
/// run over the schedule described by `adversary`?
///
/// Non-static-only families accept everything.  A static-only family
/// (spanning_tree) accepts the static family and a file-backed schedule
/// (trace:/scripted:) whose recording metadata names a static adversary —
/// or names none (foreign traces get the benefit of the doubt; the
/// protocol's own static-topology guard still backstops).  Every other
/// combination returns false with a human-readable reason in *why (may be
/// nullptr), which callers throw as AlgoSpecError or print as a flag
/// error.
[[nodiscard]] bool algo_schedule_compatible(const AlgoFamily& family,
                                            const AdversarySpec& adversary,
                                            std::string* why = nullptr);

/// Convenience: runs `spec` through the global registry.  This is the
/// registry-backed replacement for the old TracedRunSpec/run_traced_algo
/// pair — `dyngossip trace record|replay`, the scenarios' axis tables, and
/// the record→replay probe all dispatch through it, so one code path
/// defines what each algorithm spec means (in particular the multi-source
/// token-splitting rule exists exactly once).
[[nodiscard]] RunResult run_algo(const AlgoSpec& spec, AlgoBuildContext& ctx,
                                 Adversary& adversary);

}  // namespace dyngossip
