// A schedule read from a file whose round graph is disconnected is bad
// input, not an internal bug: every engine reports it through
// Adversary::on_disconnected, which TraceAdversary turns into a TraceError
// naming the round (decorators forward it), and both CLIs print
// `trace error: ...` and exit 1 instead of aborting.  A built-in adversary
// that returns a disconnected graph still aborts.
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "async/async_engine.hpp"
#include "core/flooding.hpp"
#include "core/single_source.hpp"
#include "engine/broadcast_engine.hpp"
#include "engine/unicast_engine.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/runner/scenario_cli.hpp"
#include "trace/trace_adversary.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

/// n = 4; round 1 is {0,1} + {2,3} (two components); round 2 joins them.
std::string fixture() {
  return (std::filesystem::path(__FILE__).parent_path() / "fixtures" /
          "disconnected_round1.jsonl")
      .string();
}

constexpr std::size_t kN = 4;
constexpr std::uint32_t kK = 3;

/// Runs `run` and expects a TraceError whose message contains `want`.
template <typename Run>
void expect_trace_error(Run&& run,
                        const std::string& want = "round 1 is disconnected (2 components)") {
  try {
    run();
    ADD_FAILURE() << "no TraceError";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
}

TEST(HostileTrace, UnicastEngineThrowsTraceError) {
  TraceAdversary adversary(fixture());
  const SingleSourceConfig cfg{kN, kK, 0};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                       SingleSourceNode::initial_knowledge(cfg), kK);
  expect_trace_error([&] { (void)engine.run(10); });
}

TEST(HostileTrace, BroadcastEngineThrowsTraceError) {
  TraceAdversary adversary(fixture());
  std::vector<KnowledgeSet> init(kN, KnowledgeSet(kK));
  init[0].set_all();
  BroadcastEngine engine(PhaseFloodingNode::make_all(kN, kK, init), adversary,
                         init, kK);
  expect_trace_error([&] { (void)engine.run(10); });
}

TEST(HostileTrace, AsyncEngineThrowsTraceError) {
  TraceAdversary adversary(fixture());
  std::vector<KnowledgeSet> init(kN, KnowledgeSet(kK));
  init[0].set_all();
  AsyncEngine engine(adversary, init, kK, AsyncEngineOptions{});
  expect_trace_error([&] { (void)engine.run(10); });
}

TEST(HostileTrace, TraceRecorderForwardsTheError) {
  TraceAdversary inner(fixture());
  std::stringstream buf;
  JsonlTraceWriter writer(buf, kN, 1, "");
  TraceRecorder recorder(inner, writer);
  const SingleSourceConfig cfg{kN, kK, 0};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), recorder,
                       SingleSourceNode::initial_knowledge(cfg), kK);
  expect_trace_error([&] { (void)engine.run(10); });
}

TEST(HostileTrace, ScriptedFileNamesTheRound) {
  expect_trace_error(
      [] {
        (void)build_adversary(AdversarySpec::parse("scripted:file=" + fixture()), kN, 1);
      },
      "round 1 is disconnected");
}

/// Runs the CLI in-process; returns (exit code, stderr).
std::pair<int, std::string> run_cli(std::vector<std::string> words) {
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  words.insert(words.begin(), "dyngossip");
  std::vector<const char*> argv;
  for (const std::string& w : words) argv.push_back(w.c_str());
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int code =
      dyngossip_main(registry, static_cast<int>(argv.size()), argv.data());
  (void)::testing::internal::GetCapturedStdout();
  return {code, ::testing::internal::GetCapturedStderr()};
}

TEST(HostileTrace, CliRunAndReplayExitOneWithATraceError) {
  for (const std::vector<std::string>& words :
       {std::vector<std::string>{"run", "single_source", "--quick", "--threads=1",
                                 "--trace=" + fixture()},
        std::vector<std::string>{"trace", "replay", "--trace=" + fixture()}}) {
    const auto [code, err] = run_cli(words);
    EXPECT_EQ(code, 1) << words[0] << ": " << err;
    EXPECT_NE(err.find("trace error: trace round 1 is disconnected"), std::string::npos)
        << words[0] << ": " << err;
  }
}

/// A generator that breaks connectivity: an internal bug.
class BrokenAdversary final : public ObliviousAdversary {
 public:
  [[nodiscard]] std::size_t num_nodes() const override { return kN; }

 protected:
  [[nodiscard]] const Graph& next_graph(Round /*r*/) override { return graph_; }

 private:
  Graph graph_{kN, std::vector<EdgeKey>{edge_key(0, 1), edge_key(2, 3)}};
};

TEST(HostileTraceDeath, BuiltInAdversaryBugStillAborts) {
  BrokenAdversary adversary;
  const SingleSourceConfig cfg{kN, kK, 0};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                       SingleSourceNode::initial_knowledge(cfg), kK);
  EXPECT_DEATH((void)engine.run(10), "round 1 graph has 2 connected components");
}

}  // namespace
}  // namespace dyngossip
