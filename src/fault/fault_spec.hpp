// Fault-plane spec: the execution-perturbation axis of a run.
//
// The paper's bounds assume a perfect network: every sent message is
// delivered and every node stays up.  The adversary registries perturb the
// *topology*; this spec perturbs the *execution* — per-delivery message
// loss/duplication and per-round node crash/recovery — as a first-class,
// strictly validated axis sharing the `family[:key=value,...]` grammar of
// common/spec.hpp:
//
//     fault:drop=0.01,crash=0.0005,recover=0.1,dup=0.002,amnesia=1,seed=7
//
// The only family is `fault`; the CLI additionally accepts a bare parameter
// list (`--fault=drop=0.05,seed=7`) as shorthand.  A spec with all rates at
// zero is *inactive*: engines take the exact fault-free code path, so an
// all-zero --fault run is byte-identical to no --fault at all (CI-gated).
//
// Determinism contract: a FaultPlan built from this spec keys every
// decision by position — (round, arc, payload-sequence) for drop/dup,
// (round, node) for crash/recover — under a SplitMix64 hash, never by
// evaluation order, so outcomes are bit-identical at any thread count (see
// fault_plan.hpp and docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/spec.hpp"

namespace dyngossip {

/// Thrown on malformed fault spec text, unknown keys, or out-of-range
/// values.  A dedicated type so CLI layers can map fault-axis misuse to
/// flag errors (exit 2), exactly like AdversarySpecError / AlgoSpecError.
class FaultSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed, validated fault spec.
struct FaultSpec {
  double drop = 0.0;     ///< per-delivery loss probability [0, 1]
  double crash = 0.0;    ///< per-round crash probability of a live node
  double recover = 0.0;  ///< per-round recovery probability of a down node
  double dup = 0.0;      ///< per-delivery duplication probability [0, 1]
  bool amnesia = false;  ///< crashed nodes lose their knowledge (wiped mirror)
  bool has_seed = false; ///< spec pinned its own fault stream seed
  std::uint64_t seed = 0;

  /// Parses `fault[:key=value,...]` — or a bare `key=value,...` parameter
  /// list, which is treated as `fault:` shorthand.  Strict: unknown keys,
  /// non-fraction rates, and drop+dup > 1 all throw FaultSpecError.
  [[nodiscard]] static FaultSpec parse(const std::string& text);

  /// Canonical `fault:k=v,...` rendering (keys sorted, defaults omitted;
  /// an all-default spec renders as the bare family name), so
  /// parse(s).to_string() round-trips like the sibling registries.
  [[nodiscard]] std::string to_string() const;

  /// True when any probability is nonzero — i.e. the plan can alter a run.
  /// Inactive specs guarantee the byte-identical fault-free path.
  [[nodiscard]] bool active() const noexcept {
    return drop > 0.0 || crash > 0.0 || dup > 0.0;
  }
};

[[nodiscard]] bool operator==(const FaultSpec& a, const FaultSpec& b);

/// Declared keys of the fault family (documentation + validation; shape
/// shared with the adversary/algorithm listings).
[[nodiscard]] const std::vector<SpecKey>& fault_spec_keys();

/// Listing entry for `dyngossip faults` (there is exactly one family).
[[nodiscard]] SpecFamilyDoc fault_family_doc();

}  // namespace dyngossip
