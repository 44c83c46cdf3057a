// The scenario side of the global --adversary=/--trace=/--algo= axes.
//
// RunAxes resolves a ScenarioContext's overrides once per run: when the
// user supplied an adversary spec, every per-trial adversary is built from
// it (through the global AdversaryRegistry, with the trial seed unless the
// spec pins seed=); when the user supplied an algorithm spec, the flagship
// scenarios dispatch it through the global AlgoRegistry instead of their
// default family.  Either way the scenario never names a concrete
// adversary or algorithm type, so every experiment is an
// algorithm × adversary × scale point selected by flags.
//
// Trace overrides additionally pin the run shape: the node count comes from
// the recording's header, and k / sources / cap / algo default to the
// metadata the recording embedded.  run_axes_table is the shared override
// table for the algorithm-backed flagships (single_source, multi_source,
// sigma_stable_churn): it dispatches through run_algo — the same entry
// point `dyngossip trace record|replay` uses — and puts the deterministic
// payload checksum in the last column, so a scenario run over
// `trace:file=X.dgt` is bit-verifiable against the recording run with a
// string compare.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "fault/fault_spec.hpp"
#include "sim/runner/scenario.hpp"

namespace dyngossip {

/// Parsed, validated overrides (or the absence of them).
class RunAxes {
 public:
  /// Parses + validates ctx.adversary_spec() / ctx.algo_spec() against the
  /// global registries.  Throws AdversarySpecError / AlgoSpecError on a
  /// malformed or unknown spec.
  [[nodiscard]] static RunAxes resolve(const ScenarioContext& ctx);

  /// True when any axis is overridden (the flagships switch to the shared
  /// override table in that case).
  [[nodiscard]] bool overridden() const noexcept {
    return adversary_overridden_ || algo_overridden_ || fault_overridden_;
  }

  [[nodiscard]] bool adversary_overridden() const noexcept {
    return adversary_overridden_;
  }
  [[nodiscard]] bool is_trace() const noexcept {
    return adversary_overridden_ && adversary_spec_.family == "trace";
  }
  /// The adversary override spec (only meaningful when
  /// adversary_overridden()).
  [[nodiscard]] const AdversarySpec& adversary_spec() const noexcept {
    return adversary_spec_;
  }
  /// Canonical adversary spec string for row labels / table titles.
  [[nodiscard]] std::string adversary_label() const {
    return adversary_spec_.to_string();
  }

  [[nodiscard]] bool algo_overridden() const noexcept { return algo_overridden_; }
  /// The algorithm override spec (only meaningful when algo_overridden()).
  [[nodiscard]] const AlgoSpec& algo_spec() const noexcept { return algo_spec_; }
  /// Effective algorithm: the --algo override when set, else `def`.
  [[nodiscard]] AlgoSpec algo_or(const AlgoSpec& def) const {
    return algo_overridden_ ? algo_spec_ : def;
  }

  /// The fault override spec (the inactive default when --fault is absent).
  [[nodiscard]] const FaultSpec& fault_spec() const noexcept {
    return fault_spec_;
  }

  /// Builds the effective adversary: the override when set, else `def`.
  /// `seed` is the trial seed (an explicit seed= in either spec wins).
  [[nodiscard]] std::unique_ptr<Adversary> build(const AdversarySpec& def,
                                                 std::size_t n,
                                                 std::uint64_t seed) const;

  /// Variant for families needing more context (lb: k + initial knowledge).
  [[nodiscard]] std::unique_ptr<Adversary> build(const AdversarySpec& def,
                                                 AdversaryBuildContext ctx) const;

 private:
  bool adversary_overridden_ = false;
  bool algo_overridden_ = false;
  bool fault_overridden_ = false;
  AdversarySpec adversary_spec_;
  AlgoSpec algo_spec_;
  FaultSpec fault_spec_;
};

/// Run shape pinned by a file-backed adversary override (trace, scripted,
/// smoothed): n from the file's header, the rest defaulted from the
/// recording's embedded metadata (0 / "" when the file carries none).
/// nullopt when the override is not file-backed (or absent).
struct TracePinned {
  std::size_t n = 0;
  std::uint32_t k = 0;
  std::size_t sources = 0;
  Round cap = 0;
  std::string algo;  ///< canonical algorithm spec of the recording run
};
[[nodiscard]] std::optional<TracePinned> trace_pinned(const RunAxes& axes);

/// One row of the override table (ignored under a trace override, which
/// pins its own shape).
struct AxisRowSpec {
  std::size_t n = 0;
  std::uint32_t k = 0;
  Round cap = 0;        ///< 0: run_algo derives 200·n·k
  std::size_t sources = 4;
  /// The scenario's canonical default schedule for this row — consulted
  /// when only the algorithm axis is overridden (an --adversary override
  /// replaces it).
  AdversarySpec def{"churn", {}};
};

/// The declared CLI params every adversary-axis scenario shares, so
/// `dyngossip list` shows the axis without reading source.
[[nodiscard]] std::vector<ParamSpec> scenario_axis_params();

/// scenario_axis_params plus the --algo axis (the algorithm-backed
/// flagships and the matrix scenario).
[[nodiscard]] std::vector<ParamSpec> scenario_algo_axis_params();

/// scenario_algo_axis_params plus the --fault axis (the flagships that run
/// through run_axes_table, which injects a per-trial FaultPlan).
[[nodiscard]] std::vector<ParamSpec> scenario_fault_axis_params();

/// The shared override table: runs the effective algorithm (the --algo
/// override, else `default_algo`) against the effective adversary (the
/// --adversary override, else each row's default spec) for every
/// row × trial and reports the run payload checksum per row
/// (bit-comparable with `dyngossip trace record|replay --json` output).
[[nodiscard]] ScenarioTable run_axes_table(const ScenarioContext& ctx,
                                           const RunAxes& axes,
                                           const AlgoSpec& default_algo,
                                           std::vector<AxisRowSpec> rows,
                                           std::uint64_t seed_base);

}  // namespace dyngossip
