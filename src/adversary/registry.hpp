// Central adversary registry: every schedule constructible from one spec.
//
// The paper's bounds are quantified over *adversary classes* (oblivious vs
// strongly adaptive, Section 1.3), and most of the experimental science
// lives in swapping the schedule under a fixed algorithm.  This registry
// makes the adversary a first-class, enumerable axis: each family (static,
// churn, fresh, sigma, star, path, cutter, lb, scripted, smoothed, trace)
// registers a declared key set and a factory, so any schedule is
// constructible from a single spec string such as
//
//     churn:rate=0.01        sigma:interval=16,turnover=0.03
//     trace:file=run.dgt     smoothed:base=run.dgt,flips=8
//
// Scenarios and the CLI build every adversary through here — the
// per-file unique_ptr<Adversary> switches are gone, `dyngossip adversaries`
// enumerates what exists, and the global --adversary=/--trace= flags let
// any opted-in experiment run over any registered family or a recorded
// schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/knowledge_set.hpp"
#include "common/spec.hpp"

namespace dyngossip {

/// Thrown on malformed spec text, unknown families/keys, out-of-range
/// values, or a build context missing what a family requires.  A dedicated
/// type so CLI layers can turn registry misuse into flag errors (exit 2)
/// while real I/O failures (TraceError) keep their own channel.
class AdversarySpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed adversary spec: family name plus key=value parameters.
///
/// Text form: `family[:key=value[,key=value...]]`.  Keys are unordered
/// (stored sorted), values are uninterpreted strings until a factory reads
/// them; to_string() renders the canonical form, so
/// parse(s).to_string() == parse(parse(s).to_string()).to_string().
struct AdversarySpec {
  std::string family;                          ///< registry key, e.g. "churn"
  std::map<std::string, std::string> params;   ///< key=value pairs, sorted

  /// Parses spec text; throws AdversarySpecError with the offending part.
  [[nodiscard]] static AdversarySpec parse(const std::string& text);

  /// Canonical `family:k=v,k=v` rendering (keys sorted, no spaces).
  [[nodiscard]] std::string to_string() const;

  /// Chainable param setters (scenarios build specs programmatically).
  AdversarySpec& set(const std::string& key, const std::string& value);
  AdversarySpec& set(const std::string& key, std::uint64_t value);
  AdversarySpec& set(const std::string& key, double value);
};

[[nodiscard]] bool operator==(const AdversarySpec& a, const AdversarySpec& b);

/// Run-side inputs a factory may need beyond the spec itself.
struct AdversaryBuildContext {
  /// Node count.  0 means "take it from the data" — only the file-backed
  /// families (trace, scripted, smoothed) accept that; when non-zero it is
  /// cross-checked against the file header.
  std::size_t n = 0;
  /// Seed used when the spec carries no explicit seed= key; scenarios pass
  /// their per-trial seed here so sweeps stay seed-diverse under an
  /// overridden family while an explicit seed= pins the whole schedule.
  std::uint64_t seed = 1;
  /// Token count (required by the lb family's K' sampling).
  std::size_t k = 0;
  /// Initial knowledge K_v(0) (required by the lb family).  Not owned.
  const std::vector<KnowledgeSet>* initial_knowledge = nullptr;
  /// Explicit round-graph script (programmatic alternative to
  /// scripted:file=...; tests use this).
  std::vector<Graph> script;
};

/// One declared spec key of a family (documentation + validation; the
/// shared grammar's SpecKey, aliased for call-site clarity).
using AdversaryKeySpec = SpecKey;

/// A registered adversary family.
struct AdversaryFamily {
  std::string name;         ///< registry key, e.g. "churn"
  std::string description;  ///< one line for `dyngossip adversaries`
  std::string example;      ///< a representative spec string
  std::vector<AdversaryKeySpec> keys;  ///< declared parameters (validated)
  /// Factory: (validated spec, run context) → adversary instance.
  std::function<std::unique_ptr<Adversary>(const AdversarySpec&,
                                           const AdversaryBuildContext&)>
      build;
  /// True when the factory needs run-side context beyond the spec (lb:
  /// k + initial knowledge).  Such a family is buildable inside a run but
  /// NOT replayable from its spec alone — record the schedule and replay
  /// it through `trace:file=` instead.  `dyngossip adversaries` prints
  /// this caveat so it stops being folklore.
  bool needs_run_context = false;
};

/// Name → family registry (mirrors ScenarioRegistry: explicit registration,
/// no static-initializer magic, private instances for tests).
class AdversaryRegistry {
 public:
  /// Registers a family.  Throws std::invalid_argument on an empty name, a
  /// missing factory, or a duplicate.
  void add(AdversaryFamily family);

  /// Family by name, or nullptr when unknown.
  [[nodiscard]] const AdversaryFamily* find(const std::string& name) const noexcept;

  /// All families, sorted by name.
  [[nodiscard]] std::vector<const AdversaryFamily*> list() const;

  /// Number of registered families.
  [[nodiscard]] std::size_t size() const noexcept { return families_.size(); }

  /// Checks the spec against the declared families/keys without building.
  /// Throws AdversarySpecError naming the unknown family or key.
  void validate(const AdversarySpec& spec) const;

  /// One-line human description of a family, with the build-vs-replay
  /// caveat appended for context-dependent families (needs_run_context).
  /// "" for unknown names.
  [[nodiscard]] std::string describe(const std::string& name) const;

  /// Validates, then builds.  Throws AdversarySpecError on registry misuse
  /// (factories may additionally surface I/O errors, e.g. TraceError).
  [[nodiscard]] std::unique_ptr<Adversary> build(
      const AdversarySpec& spec, const AdversaryBuildContext& ctx) const;

  /// Convenience: parse + build.
  [[nodiscard]] std::unique_ptr<Adversary> build(
      const std::string& spec_text, const AdversaryBuildContext& ctx) const;

  /// Process-wide registry with every family installed.
  [[nodiscard]] static AdversaryRegistry& global();

 private:
  std::map<std::string, AdversaryFamily> families_;
};

/// Installs the full family catalogue; a no-op when already installed.
void register_all_adversaries(AdversaryRegistry& registry);

/// Convenience: builds `spec` through the global registry with just a node
/// count and a seed (the common case for scenarios).
[[nodiscard]] std::unique_ptr<Adversary> build_adversary(const AdversarySpec& spec,
                                                         std::size_t n,
                                                         std::uint64_t seed);

}  // namespace dyngossip
