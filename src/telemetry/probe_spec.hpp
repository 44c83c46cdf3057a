// Probe spec: the observability axis of a run.
//
// The fault plane perturbs the execution and the adversary registries
// perturb the topology; the probe axis *observes* — it selects which
// per-round series a run emits, and where, without ever feeding back into
// the run.  It shares the `family[:key=value,...]` grammar of
// common/spec.hpp:
//
//     round_series:out=probe.jsonl,format=jsonl,every=1
//
// The only family is `round_series`; the CLI additionally accepts a bare
// parameter list (`--probe=out=series.csv,format=csv`) as shorthand,
// exactly like `--fault=`.  `dyngossip probes [--json]` lists the family
// from probe_family_doc(), the same way `faults` lists the fault family.
//
// Observation contract: probes never perturb.  A probed run's payload
// checksum is byte-identical to the unprobed run's — the probe only reads
// engine state that already exists (CI gates this, like the inactive-fault
// identity).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/spec.hpp"

namespace dyngossip {

/// Thrown on malformed probe spec text, unknown keys, or out-of-range
/// values, so CLI layers map probe-axis misuse to flag errors (exit 2)
/// exactly like AdversarySpecError / FaultSpecError.
class ProbeSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed, validated probe spec.
struct ProbeSpec {
  enum class Format : std::uint8_t { kJsonl = 0, kCsv = 1 };

  std::string out = "probe.jsonl";  ///< output path ("-": stdout)
  Format format = Format::kJsonl;   ///< row encoding
  std::uint64_t every = 1;          ///< sample stride in rounds (>= 1)

  /// Parses `round_series[:key=value,...]` — or a bare `key=value,...`
  /// parameter list, treated as `round_series:` shorthand.  Strict:
  /// unknown keys, an unknown format, and every < 1 all throw
  /// ProbeSpecError.
  [[nodiscard]] static ProbeSpec parse(const std::string& text);

  /// Canonical `round_series:k=v,...` rendering (keys sorted, defaults
  /// omitted; an all-default spec renders as the bare family name), so
  /// parse(s).to_string() round-trips like the sibling axes.
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] bool operator==(const ProbeSpec& a, const ProbeSpec& b);

/// Declared keys of the round_series family (documentation + validation).
[[nodiscard]] const std::vector<SpecKey>& probe_spec_keys();

/// Listing entry for `dyngossip probes` (there is exactly one family).
[[nodiscard]] SpecFamilyDoc probe_family_doc();

}  // namespace dyngossip
