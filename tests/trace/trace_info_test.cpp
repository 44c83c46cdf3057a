// `trace info` reports a schedule's net TC(E): a JSONL round may list one
// key in both its insertion and deletion lists (the reader removes, then
// re-inserts it — a no-op for the graph), and such a key must count in
// neither total.  The fixture's round 3 re-adds {1,2}; info's totals and
// per-window totals must equal what `trace replay` counts from the graphs.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/runner/json.hpp"
#include "trace/trace_cli.hpp"

namespace dyngossip {
namespace {

/// n = 4, 4 rounds; round 3's lists are ins {0,2},{1,2} and del {0,1},{1,2}.
std::string fixture() {
  return (std::filesystem::path(__FILE__).parent_path() / "fixtures" /
          "readded_edge_round3.jsonl")
      .string();
}

/// Runs `dyngossip trace ...` in-process with --json on stdout.
JsonValue run_trace(std::vector<std::string> words) {
  words.insert(words.begin(), {"dyngossip", "trace"});
  words.push_back("--trace=" + fixture());
  words.emplace_back("--json");
  std::vector<const char*> argv;
  for (const std::string& w : words) argv.push_back(w.c_str());
  ::testing::internal::CaptureStdout();
  const int code = trace_main(static_cast<int>(argv.size()), argv.data());
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 0) << words[2];
  return JsonValue::parse(out);
}

double number(const JsonValue& doc, const std::string& key) {
  const JsonValue* v = doc.find(key);
  EXPECT_NE(v, nullptr) << key;
  return v != nullptr ? v->as_number() : -1.0;
}

TEST(TraceInfo, ReaddedKeyCountsInNeitherTotal) {
  const JsonValue replay = run_trace({"replay"});
  EXPECT_EQ(number(replay, "tc"), 5.0);
  EXPECT_EQ(number(replay, "deletions"), 1.0);

  for (const int windows : {1, 2, 4}) {
    SCOPED_TRACE("windows=" + std::to_string(windows));
    const JsonValue info = run_trace({"info", "--windows=" + std::to_string(windows)});
    EXPECT_EQ(number(info, "tc"), number(replay, "tc"));
    EXPECT_EQ(number(info, "deletions"), number(replay, "deletions"));
    const JsonValue* list = info.find("windows");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->items().size(), static_cast<std::size_t>(windows));
    double insertions = 0.0;
    double deletions = 0.0;
    for (const JsonValue& w : list->items()) {
      insertions += number(w, "insertions");
      deletions += number(w, "deletions");
    }
    EXPECT_EQ(insertions, number(replay, "tc"));
    EXPECT_EQ(deletions, number(replay, "deletions"));
    if (windows == 4) {
      // Round 3 on its own: {0,2} inserted, {0,1} removed, {1,2} kept.
      EXPECT_EQ(number(list->items()[2], "insertions"), 1.0);
      EXPECT_EQ(number(list->items()[2], "deletions"), 1.0);
    }
  }
}

}  // namespace
}  // namespace dyngossip
