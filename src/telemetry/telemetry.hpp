// The observer handle the engines carry: at most one probe and one timeline
// recorder per run, both non-owning and both optional.
//
// Zero-cost-when-off contract: every telemetry touch inside an engine is
// gated on the pointer (`if (control_.probing()) ...`), so a run
// built without probes takes the exact legacy code path — and a probed run
// only *reads* engine state (counters the payload checksum already folds,
// plus an O(n) coverage scan per sampled round), so payload checksums are
// byte-identical with probes on or off.  Both halves are CI-gated.
#pragma once

namespace dyngossip {

class RoundProbe;
class TimelineRecorder;

/// Non-owning observer pointers, passed by value inside RunOptions
/// (sim/run_options.hpp) to every engine of a run.
struct Telemetry {
  RoundProbe* probe = nullptr;
  TimelineRecorder* timeline = nullptr;

  [[nodiscard]] bool active() const noexcept {
    return probe != nullptr || timeline != nullptr;
  }
};

}  // namespace dyngossip
