// Scenario model for the parallel scenario engine.
//
// A scenario is one registered experiment — an algorithm × adversary × size
// grid (a paper table, figure, or ablation).  Its run function receives a
// ScenarioContext (thread pool, trial count, quick mode, parameter
// overrides) and returns ScenarioTables that the emitters render as aligned
// text, CSV, or JSON.  Adding a future experiment means writing one
// registration function, not a new binary + CMake target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/runner/thread_pool.hpp"

namespace dyngossip {

class ProbeSink;
class ResultCache;
class TimelineRecorder;

/// One declared scenario parameter (documentation + CLI validation).
struct ParamSpec {
  enum class Kind { kInt, kDouble, kBool, kString };

  std::string name;
  Kind kind = Kind::kInt;
  std::string default_value;  ///< rendered in `dyngossip list`
  std::string help;
};

/// One rendered table: title, column headers, string cells, trailing note.
struct ScenarioTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  std::string note;  ///< "expected shape" prose printed after the table
};

/// A scenario run's full output (some scenarios emit several tables).
struct ScenarioResult {
  std::string scenario;
  std::vector<ScenarioTable> tables;
};

[[nodiscard]] bool operator==(const ScenarioTable& a, const ScenarioTable& b);
[[nodiscard]] bool operator==(const ScenarioResult& a, const ScenarioResult& b);
inline bool operator!=(const ScenarioResult& a, const ScenarioResult& b) {
  return !(a == b);
}

/// Grid-size axis of a scenario run.  `quick` shrinks the default grids to
/// CI-smoke settings; `large` stretches the flagship scenarios to
/// n ~ 10⁴ (single trial, churn-style adversaries) to exercise the
/// flat-snapshot engine path at scale; `xlarge` pushes single_source /
/// sigma_stable_churn to n = 10⁵, where the parked-node frontier, the
/// delta round ingest and the sparse KnowledgeSet representation carry the
/// run.
enum class ScenarioScale : std::uint8_t {
  kQuick = 0,
  kDefault = 1,
  kLarge = 2,
  kXLarge = 3,
};

/// Parses "quick" / "default" / "large" / "xlarge"; returns false on
/// anything else.
[[nodiscard]] bool parse_scenario_scale(const std::string& text, ScenarioScale* out);

/// Execution context handed to a scenario's run function.
class ScenarioContext {
 public:
  /// `trials` = 0 lets the scenario pick its default (see trials_or).
  ScenarioContext(ThreadPool& pool, std::size_t trials, ScenarioScale scale,
                  std::map<std::string, std::string> params = {})
      : pool_(&pool), trials_(trials), scale_(scale), params_(std::move(params)) {}

  /// Back-compat convenience: bool quick flag (tests construct these).
  ScenarioContext(ThreadPool& pool, std::size_t trials, bool quick,
                  std::map<std::string, std::string> params = {})
      : ScenarioContext(pool, trials,
                        quick ? ScenarioScale::kQuick : ScenarioScale::kDefault,
                        std::move(params)) {}

  /// Pool scenario jobs run on.
  [[nodiscard]] ThreadPool& pool() const noexcept { return *pool_; }

  /// Requested trials per configuration, or `def` when unset.
  [[nodiscard]] std::size_t trials_or(std::size_t def) const noexcept {
    return trials_ == 0 ? def : trials_;
  }

  /// Grid-size axis (see ScenarioScale).
  [[nodiscard]] ScenarioScale scale() const noexcept { return scale_; }

  /// Quick mode: smaller grids, fewer trials (CI smoke settings).
  [[nodiscard]] bool quick() const noexcept {
    return scale_ == ScenarioScale::kQuick;
  }

  /// Scale-up mode: n ~ 10⁴ grids on the scenarios that support them.
  [[nodiscard]] bool large() const noexcept {
    return scale_ == ScenarioScale::kLarge;
  }

  /// Frontier mode: n = 10⁵ grids on the flagship scenarios (scenarios
  /// without an xlarge grid treat it as large).
  [[nodiscard]] bool xlarge() const noexcept {
    return scale_ == ScenarioScale::kXLarge;
  }

  /// Global --adversary=/--trace= axis: an adversary spec string (see
  /// adversary/registry.hpp) overriding the scenario's default schedule
  /// family, or "" when the scenario should run its own defaults.  Set by
  /// the CLI after validation; only scenarios registered with
  /// adversary_axis accept it.
  [[nodiscard]] const std::string& adversary_spec() const noexcept {
    return adversary_;
  }
  [[nodiscard]] bool has_adversary_override() const noexcept {
    return !adversary_.empty();
  }
  void set_adversary_spec(std::string spec) { adversary_ = std::move(spec); }

  /// Global --algo= axis: an algorithm spec string (see algo/registry.hpp)
  /// overriding the scenario's default algorithm family, or "" when the
  /// scenario should run its own default.  Set by the CLI after validation;
  /// only scenarios registered with algo_axis accept it.
  [[nodiscard]] const std::string& algo_spec() const noexcept { return algo_; }
  [[nodiscard]] bool has_algo_override() const noexcept { return !algo_.empty(); }
  void set_algo_spec(std::string spec) { algo_ = std::move(spec); }

  /// Global --fault= axis: a fault spec string (see fault/fault_spec.hpp)
  /// injecting drop/crash/duplicate faults into every trial, or "" for the
  /// fault-free default.  Set by the CLI after validation; only scenarios
  /// registered with fault_axis accept it.
  [[nodiscard]] const std::string& fault_spec() const noexcept { return fault_; }
  [[nodiscard]] bool has_fault_override() const noexcept {
    return !fault_.empty();
  }
  void set_fault_spec(std::string spec) { fault_ = std::move(spec); }

  /// Global --trial-timeout= axis: a wall-clock budget per trial in seconds
  /// (0: none).  Over-budget trials stop with RunStatus::kTimeout — a
  /// host-dependent, non-reproducible outcome by design.
  [[nodiscard]] double trial_timeout() const noexcept { return trial_timeout_; }
  void set_trial_timeout(double seconds) { trial_timeout_ = seconds; }

  /// Global --probe= axis: the sink collecting per-round series from every
  /// instrumented trial, or null (the default) for the exact legacy code
  /// path.  Set by the CLI after parsing the probe spec, only for scenarios
  /// registered with probe_axis.
  [[nodiscard]] ProbeSink* probe_sink() const noexcept { return probe_sink_; }
  void set_probe_sink(ProbeSink* sink) { probe_sink_ = sink; }

  /// Global --timeline= axis: the wall-clock span recorder shared by the
  /// engines and the thread pool, or null (the default).
  [[nodiscard]] TimelineRecorder* timeline() const noexcept { return timeline_; }
  void set_timeline(TimelineRecorder* timeline) { timeline_ = timeline; }

  /// Global --cache= axis: the content-addressed result cache consulted by
  /// the memoized sweep scheduler (cache/memo_sweep.hpp), or null (the
  /// default) for always-cold runs.  Attached observers force cold runs so
  /// probe/timeline series stay complete; results are bit-identical either
  /// way (the purity invariant the cache is built on).
  [[nodiscard]] ResultCache* cache() const noexcept { return cache_; }
  void set_cache(ResultCache* cache) { cache_ = cache; }

  /// Typed parameter access with defaults; exits with a message on a value
  /// that does not parse (mirrors CliArgs behaviour).
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;

  /// get_int plus range validation; exits with a usage message when the
  /// value falls outside [lo, hi].  Scenarios use this for size params so a
  /// negative --n dies as a flag error, not a bad_alloc.
  [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t def,
                                     std::size_t lo, std::size_t hi) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& def) const;

 private:
  ThreadPool* pool_;
  std::size_t trials_;
  ScenarioScale scale_;
  std::map<std::string, std::string> params_;
  std::string adversary_;
  std::string algo_;
  std::string fault_;
  double trial_timeout_ = 0.0;
  ProbeSink* probe_sink_ = nullptr;
  TimelineRecorder* timeline_ = nullptr;
  ResultCache* cache_ = nullptr;
};

/// A registered experiment.
struct Scenario {
  std::string name;         ///< registry key, e.g. "table1"
  std::string description;  ///< one line for `dyngossip list`
  std::vector<ParamSpec> params;
  std::function<ScenarioResult(const ScenarioContext&)> run;
  /// True when the scenario honours the global --adversary=/--trace= axis
  /// (ScenarioContext::adversary_spec); the CLI rejects the flags otherwise.
  bool adversary_axis = false;
  /// True when the scenario additionally honours the global --algo= axis
  /// (ScenarioContext::algo_spec); the CLI rejects the flag otherwise.
  bool algo_axis = false;
  /// True when the scenario additionally honours the global --fault= axis
  /// (ScenarioContext::fault_spec); the CLI rejects the flag otherwise.
  bool fault_axis = false;
  /// True when the scenario registers per-round series with the global
  /// --probe= sink (ScenarioContext::probe_sink); the CLI rejects the flag
  /// otherwise, rather than write an empty series file.
  bool probe_axis = false;
  /// True when the scenario's trials run through memoized_sweep, the one
  /// consumer of the global --cache= axis; the CLI rejects the flag
  /// otherwise, rather than report a cache that was never consulted.
  bool cache_axis = false;
};

}  // namespace dyngossip
