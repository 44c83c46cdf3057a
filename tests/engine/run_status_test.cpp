// Tests for run termination classification (RunStatus) and the residual
// coverage metric, on each of the three engines (local-broadcast flooding,
// unicast single_source, continuous-time async_push), which share one run
// contract (sim/run_control.hpp): starved runs report round_cap with
// partial coverage, total loss stalls instead of spinning to the cap, a full
// crash without recovery is terminal, and the wall-clock watchdog
// classifies timeouts.
#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "algo/registry.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "metrics/accounting.hpp"

namespace dyngossip {
namespace {

ChurnAdversary make_adversary(std::size_t n) {
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = 17;
  return ChurnAdversary(cc);
}

/// One engine per parameter: the algorithm family that runs on it.
class EngineRunStatus : public ::testing::TestWithParam<std::string> {
 protected:
  /// A 24-node, 24-token run of the family on a churn schedule, all tokens
  /// starting at node 0.
  [[nodiscard]] RunMetrics run(Round cap, FaultPlan* faults,
                               double timeout_seconds = 0.0) const {
    ChurnAdversary adversary = make_adversary(24);
    AlgoBuildContext ctx;
    ctx.n = 24;
    ctx.k = 24;
    ctx.cap = cap;
    ctx.faults = faults;
    ctx.timeout_seconds = timeout_seconds;
    return run_algo(AlgoSpec::parse(GetParam()), ctx, adversary).metrics;
  }
};

TEST_P(EngineRunStatus, CompletedRunReportsFullCoverage) {
  const RunMetrics m = run(6'000, nullptr);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kCompleted);
  EXPECT_DOUBLE_EQ(m.coverage, 1.0);
}

TEST_P(EngineRunStatus, StarvedRunHitsRoundCapWithResidualCoverage) {
  // Five rounds cannot finish a 24-token spread: the run must classify as
  // round_cap and report the partial coverage it reached (the source alone
  // holds 1/n of the universe, so strictly > 0).
  const RunMetrics m = run(5, nullptr);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kRoundCap);
  EXPECT_EQ(m.rounds, 5u);
  EXPECT_GT(m.coverage, 0.0);
  EXPECT_LT(m.coverage, 1.0);
}

TEST_P(EngineRunStatus, TotalLossStallsInsteadOfSpinningToTheCap) {
  // drop=1 delivers nothing, ever.  The fault-active stall window
  // (max(256, 2n) quiet rounds, or max(4096, 64n) quiet events on the async
  // engine) must end the run as `stalled` long before the 6000-round cap —
  // terminating, not spinning.
  FaultSpec spec;
  spec.drop = 1.0;
  FaultPlan plan(spec, 24, 9);
  const RunMetrics m = run(6'000, &plan);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kStalled);
  EXPECT_LT(m.rounds, 1'000u);
  EXPECT_LT(m.coverage, 1.0);
}

TEST_P(EngineRunStatus, AllDownWithoutRecoveryIsTerminal) {
  FaultSpec spec;
  spec.crash = 1.0;  // recover stays 0: the outage is permanent
  FaultPlan plan(spec, 24, 9);
  const RunMetrics m = run(6'000, &plan);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kAllDown);
  EXPECT_LT(m.rounds, 16u);  // detected as soon as the mask empties
}

TEST_P(EngineRunStatus, WatchdogClassifiesOverBudgetTrialsAsTimeout) {
  // An unmeetable budget on a run that cannot complete (drop=1): the
  // watchdog (checked every 32 rounds, or every 64 events) must fire before
  // the stall window would — timeout outranks stalled in the
  // classification.
  FaultSpec spec;
  spec.drop = 1.0;
  FaultPlan plan(spec, 24, 9);
  const RunMetrics m = run(6'000, &plan, 1e-9);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kTimeout);
  EXPECT_LT(m.rounds, 256u);  // fired before the quiet window elapsed
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineRunStatus,
                         ::testing::Values("flooding", "single_source",
                                           "async_push"),
                         [](const auto& info) { return info.param; });

TEST(RunStatus, StatusNamesAreStable) {
  // JSON/CSV consumers key on these strings; renames are format breaks.
  EXPECT_STREQ(run_status_name(RunStatus::kCompleted), "completed");
  EXPECT_STREQ(run_status_name(RunStatus::kRoundCap), "round_cap");
  EXPECT_STREQ(run_status_name(RunStatus::kStalled), "stalled");
  EXPECT_STREQ(run_status_name(RunStatus::kAllDown), "all_down");
  EXPECT_STREQ(run_status_name(RunStatus::kTimeout), "timeout");
}

}  // namespace
}  // namespace dyngossip
