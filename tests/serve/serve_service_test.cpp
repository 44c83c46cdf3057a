// The sweep service behind `dyngossip serve`, driven in-process through the
// same transport-free emit callback the socket layer uses: protocol framing,
// cache sharing between overlapping requests, round-robin fairness between
// concurrent sessions, and error surfacing.
#include "serve/server.hpp"

#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.hpp"
#include "sim/runner/json.hpp"

namespace dyngossip {
namespace {

std::string fresh_cache_dir(const char* name) {
  const std::string dir =
      ::testing::TempDir() + "dg_serve_" + std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

SweepRequest small_request(std::size_t trials, std::uint64_t seed_base) {
  SweepRequest req;
  req.adversary = "churn:rate=0.5";
  req.n = 24;
  req.k = 4;
  req.sources = 1;
  req.trials = trials;
  req.seed_base = seed_base;
  return req;
}

struct ParsedLine {
  std::string type;
  JsonValue doc;
};

ParsedLine parse_line(const std::string& line) {
  ParsedLine p;
  p.doc = JsonValue::parse(line);
  const JsonValue* type = p.doc.find("type");
  if (type != nullptr && type->type() == JsonValue::Type::kString) {
    p.type = type->as_string();
  }
  return p;
}

std::vector<std::string> run_and_collect(SweepService& service,
                                         const SweepRequest& req) {
  std::vector<std::string> lines;
  service.run_sweep(req, [&](const std::string& line) { lines.push_back(line); });
  return lines;
}

TEST(SweepService, StreamsAcceptedRowsDoneInTrialOrder) {
  ThreadPool pool(2);
  SweepService service(pool, nullptr);
  const std::vector<std::string> lines =
      run_and_collect(service, small_request(3, 100));
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(parse_line(lines[0]).type, "accepted");
  for (std::size_t i = 0; i < 3; ++i) {
    const ParsedLine row = parse_line(lines[1 + i]);
    EXPECT_EQ(row.type, "row");
    EXPECT_EQ(row.doc.find("trial")->as_number(), static_cast<double>(i));
    EXPECT_EQ(row.doc.find("seed")->as_number(), static_cast<double>(100 + i));
    EXPECT_FALSE(row.doc.find("cached")->as_bool());
    EXPECT_EQ(row.doc.find("checksum")->as_string().size(), 16u);
  }
  const ParsedLine done = parse_line(lines[4]);
  EXPECT_EQ(done.type, "done");
  EXPECT_EQ(done.doc.find("hits")->as_number(), 0.0);
  EXPECT_EQ(done.doc.find("misses")->as_number(), 3.0);
}

TEST(SweepService, OverlappingRequestsShareTheCache) {
  ResultCache cache(fresh_cache_dir("share"));
  ThreadPool pool(2);
  SweepService service(pool, &cache);

  const std::vector<std::string> first =
      run_and_collect(service, small_request(3, 100));
  // Second request overlaps trials 100..102 and adds 103: the overlap must
  // come back as hits with identical checksums — the acceptance criterion
  // for concurrent clients sharing entries.
  const std::vector<std::string> second =
      run_and_collect(service, small_request(4, 100));
  ASSERT_EQ(second.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    const ParsedLine a = parse_line(first[1 + i]);
    const ParsedLine b = parse_line(second[1 + i]);
    EXPECT_TRUE(b.doc.find("cached")->as_bool()) << "overlap trial " << i;
    EXPECT_EQ(a.doc.find("checksum")->as_string(),
              b.doc.find("checksum")->as_string());
  }
  EXPECT_FALSE(parse_line(second[4]).doc.find("cached")->as_bool());
  const ParsedLine done = parse_line(second[5]);
  EXPECT_EQ(done.doc.find("hits")->as_number(), 3.0);
  EXPECT_EQ(done.doc.find("misses")->as_number(), 1.0);
}

TEST(SweepService, ConcurrentSessionsBothCompleteWithConsistentRows) {
  ResultCache cache(fresh_cache_dir("concurrent"));
  ThreadPool pool(2);
  SweepService service(pool, &cache);

  std::vector<std::string> a_lines;
  std::vector<std::string> b_lines;
  std::thread a([&] {
    service.run_sweep(small_request(4, 100), [&](const std::string& line) {
      a_lines.push_back(line);
    });
  });
  std::thread b([&] {
    service.run_sweep(small_request(4, 100), [&](const std::string& line) {
      b_lines.push_back(line);
    });
  });
  a.join();
  b.join();

  ASSERT_EQ(a_lines.size(), 6u);
  ASSERT_EQ(b_lines.size(), 6u);
  // Identical keys computed once (dedup or cache) and byte-equal rows: the
  // purity invariant holds across sessions.
  for (std::size_t i = 1; i <= 4; ++i) {
    const ParsedLine ra = parse_line(a_lines[i]);
    const ParsedLine rb = parse_line(b_lines[i]);
    EXPECT_EQ(ra.doc.find("checksum")->as_string(),
              rb.doc.find("checksum")->as_string());
    EXPECT_EQ(ra.doc.find("messages")->as_number(),
              rb.doc.find("messages")->as_number());
  }
  const double a_hits = parse_line(a_lines[5]).doc.find("hits")->as_number();
  const double b_hits = parse_line(b_lines[5]).doc.find("hits")->as_number();
  EXPECT_EQ(a_hits + b_hits, 4.0) << "each overlapping key computed once";
}

TEST(SweepService, InvalidRequestEmitsOneErrorLine) {
  ThreadPool pool(1);
  SweepService service(pool, nullptr);
  SweepRequest req = small_request(1, 0);
  req.adversary = "no_such_family:x=1";
  const std::vector<std::string> lines = run_and_collect(service, req);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(parse_line(lines[0]).type, "error");
}

TEST(FairScheduler, RotatesBetweenSessions) {
  FairScheduler sched;
  const std::uint64_t a = sched.open_session();
  const std::uint64_t b = sched.open_session();
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.enqueue(a, [&order] { order.push_back(1); });
  }
  for (int i = 0; i < 3; ++i) {
    sched.enqueue(b, [&order] { order.push_back(2); });
  }
  while (std::function<void()> trial = sched.next()) trial();
  // Strict alternation: a 3-trial session cannot starve its sibling.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
  sched.close_session(a);
  sched.close_session(b);
  EXPECT_FALSE(static_cast<bool>(sched.next()));
}

TEST(FairScheduler, ClosedSessionsQueueDrainsBeforeRetirement) {
  FairScheduler sched;
  const std::uint64_t a = sched.open_session();
  int ran = 0;
  sched.enqueue(a, [&ran] { ++ran; });
  sched.enqueue(a, [&ran] { ++ran; });
  // Closing with work still queued must not drop it: other sessions may
  // have deduped onto those trials.
  sched.close_session(a);
  while (std::function<void()> trial = sched.next()) trial();
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(static_cast<bool>(sched.next()));
}

}  // namespace
}  // namespace dyngossip
