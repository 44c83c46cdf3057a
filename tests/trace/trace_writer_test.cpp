// Crash-safety of file-backed trace writers (stage to .tmp, publish on
// finish) and the recoverable TraceError paths that used to abort.
#include "trace/trace_writer.hpp"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "trace/trace_adversary.hpp"
#include "trace/trace_reader.hpp"

namespace dyngossip {
namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

void append_one_round(TraceWriter& writer) {
  const std::vector<EdgeKey> ins = {edge_key(0, 1)};
  writer.append_delta(ins, {});
}

TEST(TraceWriterCrashSafety, FinishPublishesTmpToFinalPath) {
  const std::string path = temp_path("publish.dgt");
  std::remove(path.c_str());
  {
    std::unique_ptr<TraceWriter> writer = open_trace_writer(path, 4, 7, "");
    append_one_round(*writer);
    // Until finish(), only the staged .tmp exists — a reader polling the
    // final path never sees a half-written trace.
    EXPECT_FALSE(file_exists(path));
    EXPECT_TRUE(file_exists(path + ".tmp"));
    writer->finish();
  }
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  // The published file is a complete, sealed trace.
  const std::unique_ptr<TraceSource> source = open_trace_source(path);
  Graph g(4);
  EXPECT_TRUE(source->next_round(g));
  EXPECT_FALSE(source->next_round(g));
  std::remove(path.c_str());
}

TEST(TraceWriterCrashSafety, DestructorAlsoPublishes) {
  // Destroying an unfinished writer finishes it — including the rename.
  const std::string path = temp_path("dtor_publish.dgt");
  std::remove(path.c_str());
  {
    std::unique_ptr<TraceWriter> writer = open_trace_writer(path, 4, 7, "");
    append_one_round(*writer);
  }
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(TraceWriterCrashSafetyDeathTest, KillMidWriteLeavesNoTraceAtFinalPath) {
  // A recording process killed mid-write (no finish(), no destructors) must
  // leave the final path untouched: at worst a stale .tmp survives.
  const std::string path = temp_path("killed.dgt");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  EXPECT_EXIT(
      {
        std::unique_ptr<TraceWriter> writer = open_trace_writer(path, 4, 7, "");
        append_one_round(*writer);
        std::_Exit(7);  // hard kill: skips finish() and every destructor
      },
      ::testing::ExitedWithCode(7), "");
  EXPECT_FALSE(file_exists(path));
  EXPECT_TRUE(file_exists(path + ".tmp"));
  // ...and the stale .tmp is visibly unsealed, not silently loadable.
  EXPECT_THROW((void)open_trace_source(path + ".tmp"), TraceError);
  std::remove((path + ".tmp").c_str());
}

TEST(TraceWriterCrashSafety, StreamBackedWritersSkipStaging) {
  // Stream-ctor writers (tests, in-memory tees) have no path to publish;
  // finish() just seals the stream.
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter writer(buf, 4, 7, "");
  append_one_round(writer);
  writer.finish();
  BinaryTraceReader reader(buf);
  Graph g(4);
  EXPECT_TRUE(reader.next_round(g));
  EXPECT_FALSE(reader.next_round(g));
}

TEST(TraceErrors, SteppingPastTraceEndThrowsActionably) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  {
    BinaryTraceWriter writer(buf, 4, 7, "");
    append_one_round(writer);
    writer.finish();
  }
  TraceAdversaryOptions opts;
  opts.hold_last_graph = false;
  TraceAdversary adversary(std::make_unique<BinaryTraceReader>(buf), opts);
  BroadcastRoundView view;  // oblivious: the view contents are ignored
  view.round = 1;
  (void)adversary.broadcast_round(view);
  view.round = 2;
  try {
    (void)adversary.broadcast_round(view);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    // The message carries the fix, not just the failure.
    EXPECT_NE(std::string(e.what()).find("re-record"), std::string::npos);
  }
}

TEST(TraceErrors, NodeCountMismatchThrowsWithBothSides) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  {
    BinaryTraceWriter writer(buf, 4, 7, "");
    append_one_round(writer);
    writer.finish();
  }
  BinaryTraceReader reader(buf);
  Graph wrong(9);  // trace is over n=4
  try {
    (void)reader.next_round(wrong);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("n=4"), std::string::npos);
    EXPECT_NE(what.find("n=9"), std::string::npos);
  }
}

}  // namespace
}  // namespace dyngossip
