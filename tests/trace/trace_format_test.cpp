// Tests for the .dgt trace format: round-trip fidelity, codec interchange,
// and the corrupt/truncated-input error paths.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "adversary/churn.hpp"
#include "common/rng.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/round_view.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

/// A small committed schedule to round-trip (churn keeps deltas non-trivial).
std::vector<Graph> sample_schedule(std::size_t n, Round rounds, std::uint64_t seed) {
  ChurnConfig cfg;
  cfg.n = n;
  cfg.target_edges = 3 * n;
  cfg.churn_per_round = n / 4;
  cfg.sigma = 2;
  cfg.seed = seed;
  ChurnAdversary adversary(cfg);
  std::vector<Graph> out;
  UnicastRoundView v;
  for (Round r = 1; r <= rounds; ++r) {
    v.round = r;
    out.push_back(adversary.unicast_round(v));
  }
  return out;
}

std::string write_binary(const std::vector<Graph>& schedule, std::uint32_t n,
                         std::uint64_t* checksum = nullptr) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter writer(buf, n, /*seed=*/99, "unit-test schedule");
  for (const Graph& g : schedule) writer.append_round(g);
  writer.finish();
  if (checksum != nullptr) *checksum = writer.checksum();
  return buf.str();
}

TEST(TraceFormat, BinaryRoundTripIsBitIdentical) {
  const std::vector<Graph> schedule = sample_schedule(16, 40, 7);
  std::uint64_t written_sum = 0;
  const std::string bytes = write_binary(schedule, 16, &written_sum);

  std::istringstream in(bytes);
  BinaryTraceReader reader(in);
  EXPECT_EQ(reader.header().n, 16u);
  EXPECT_EQ(reader.header().rounds, 40u);
  EXPECT_EQ(reader.header().seed, 99u);
  EXPECT_EQ(reader.header().checksum, written_sum);
  EXPECT_EQ(reader.header().metadata, "unit-test schedule");

  Graph g(16);
  RoundGraphView replayed;
  RoundGraphView recorded;
  for (Round r = 1; r <= 40; ++r) {
    ASSERT_TRUE(reader.next_round(g)) << "round " << r;
    // Bit-identical RoundGraphView: same sorted neighbor spans everywhere.
    replayed.rebuild(g);
    recorded.rebuild(schedule[r - 1]);
    ASSERT_EQ(replayed.num_arcs(), recorded.num_arcs()) << "round " << r;
    for (NodeId v = 0; v < 16; ++v) {
      const auto a = replayed.neighbors(v);
      const auto b = recorded.neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "round " << r << " node " << v;
    }
  }
  EXPECT_FALSE(reader.next_round(g));
  EXPECT_EQ(reader.rounds_read(), 40u);
}

TEST(TraceFormat, JsonlRoundTripMatchesBinaryChecksum) {
  const std::vector<Graph> schedule = sample_schedule(12, 25, 3);
  std::uint64_t binary_sum = 0;
  write_binary(schedule, 12, &binary_sum);

  std::stringstream buf;
  JsonlTraceWriter writer(buf, 12, /*seed=*/5, "jsonl test");
  for (const Graph& g : schedule) writer.append_round(g);
  writer.finish();
  EXPECT_EQ(writer.checksum(), binary_sum);  // codec-independent identity

  JsonlTraceReader reader(buf);
  Graph g(12);
  Round rounds = 0;
  while (reader.next_round(g)) ++rounds;
  EXPECT_EQ(rounds, 25u);
  EXPECT_EQ(reader.header().rounds, 25u);  // learned from the trailer
  EXPECT_EQ(reader.header().checksum, binary_sum);
  EXPECT_EQ(g.sorted_edges(), schedule.back().sorted_edges());
}

TEST(TraceFormat, JsonlToBinaryTranscodePreservesChecksum) {
  const std::vector<Graph> schedule = sample_schedule(10, 15, 11);
  std::stringstream jsonl;
  {
    JsonlTraceWriter writer(jsonl, 10, 1, "");
    for (const Graph& g : schedule) writer.append_round(g);
    writer.finish();
  }
  // Stream the JSONL through a binary writer round by round.
  JsonlTraceReader reader(jsonl);
  std::stringstream binary(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter writer(binary, 10, 1, "");
  Graph g(10);
  while (reader.next_round(g)) writer.append_round(g);
  writer.finish();
  EXPECT_EQ(writer.checksum(), reader.header().checksum);
}

TEST(TraceFormat, EmptyScheduleRoundTrips) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter writer(buf, 8, 0, "");
  writer.finish();
  BinaryTraceReader reader(buf);
  EXPECT_EQ(reader.header().rounds, 0u);
  Graph g(8);
  EXPECT_FALSE(reader.next_round(g));
}

TEST(TraceFormat, LargeEdgeKeysSurviveVarintCoding) {
  // Keys near the top of the 32-bit id space exercise multi-byte varints.
  const std::uint32_t n = 70000;
  Graph g(n);
  g.add_edge(0, 1);
  g.add_edge(65535, 65536);
  g.add_edge(69998, 69999);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter writer(buf, n, 0, "");
  writer.append_round(g);
  g.remove_edge(65535, 65536);
  writer.append_round(g);
  writer.finish();

  BinaryTraceReader reader(buf);
  Graph replay(n);
  ASSERT_TRUE(reader.next_round(replay));
  EXPECT_EQ(replay.num_edges(), 3u);
  EXPECT_TRUE(replay.has_edge(65535, 65536));
  ASSERT_TRUE(reader.next_round(replay));
  EXPECT_EQ(replay.num_edges(), 2u);
  EXPECT_FALSE(replay.has_edge(65535, 65536));
  EXPECT_FALSE(reader.next_round(replay));
}

TEST(TraceFormat, TruncatedFileThrows) {
  const std::vector<Graph> schedule = sample_schedule(16, 20, 1);
  const std::string bytes = write_binary(schedule, 16);
  // Drop the trailer and half the final block.
  std::istringstream in(bytes.substr(0, bytes.size() - 12));
  BinaryTraceReader reader(in);
  Graph g(16);
  EXPECT_THROW(
      {
        while (reader.next_round(g)) {
        }
      },
      TraceError);
}

TEST(TraceFormat, UnfinishedWriterIsRejected) {
  const std::vector<Graph> schedule = sample_schedule(16, 5, 1);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  auto* writer = new BinaryTraceWriter(buf, 16, 0, "");
  for (const Graph& g : schedule) writer->append_round(g);
  // Snapshot the stream BEFORE finish() patches the header.
  const std::string bytes = buf.str();
  delete writer;
  std::istringstream in(bytes);
  EXPECT_THROW(BinaryTraceReader r(in), TraceError);
}

TEST(TraceFormat, CorruptByteFailsChecksum) {
  const std::vector<Graph> schedule = sample_schedule(16, 20, 1);
  std::string bytes = write_binary(schedule, 16);
  // Flip one bit in the middle of the block region (past the ~50-byte
  // header, before the trailer).
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  std::istringstream in(bytes);
  Graph g(16);
  EXPECT_THROW(
      {
        BinaryTraceReader reader(in);
        while (reader.next_round(g)) {
        }
      },
      TraceError);
}

TEST(TraceFormat, BadMagicThrows) {
  std::istringstream in("NOPE such trace");
  EXPECT_THROW(BinaryTraceReader r(in), TraceError);
}

TEST(TraceFormat, JsonlMissingTrailerThrows) {
  const std::vector<Graph> schedule = sample_schedule(10, 8, 2);
  std::stringstream buf;
  JsonlTraceWriter writer(buf, 10, 0, "");
  for (const Graph& g : schedule) writer.append_round(g);
  writer.finish();
  std::string text = buf.str();
  text.erase(text.rfind("{\"end\""));  // drop the trailer line
  std::istringstream in(text);
  JsonlTraceReader reader(in);
  Graph g(10);
  EXPECT_THROW(
      {
        while (reader.next_round(g)) {
        }
      },
      TraceError);
}

TEST(TraceFormat, HandWrittenJsonlLoadsWithoutChecksumOrSortedEdges) {
  // An external producer's trace: unsorted edge pairs, reversed endpoint
  // order, and a bare {"end":true} trailer with no rounds/checksum.
  const std::string text =
      "{\"dgt\":1,\"n\":5,\"metadata\":\"contact dataset\"}\n"
      "{\"r\":1,\"ins\":[[3,2],[0,1],[4,0]],\"del\":[]}\n"
      "{\"r\":2,\"ins\":[[1,2]],\"del\":[[0,4]]}\n"
      "{\"end\":true}\n";
  std::istringstream in(text);
  JsonlTraceReader reader(in);
  EXPECT_EQ(reader.header().metadata, "contact dataset");
  Graph g(5);
  ASSERT_TRUE(reader.next_round(g));
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(2, 3));
  ASSERT_TRUE(reader.next_round(g));
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_FALSE(g.has_edge(0, 4));
  EXPECT_FALSE(reader.next_round(g));
  EXPECT_EQ(reader.header().rounds, 2u);  // defaulted from the stream
}

TEST(TraceFormat, MismatchedDeltaThrows) {
  // Removing an edge that is not live must be rejected by the reader.
  std::stringstream buf;
  JsonlTraceWriter writer(buf, 6, 0, "");
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  writer.append_round(g);
  writer.finish();
  std::string text = buf.str();
  // Rewrite the (valid) round line to delete an edge that never existed.
  const std::size_t pos = text.find("\"del\":[]");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "\"del\":[[3,4]]");
  std::istringstream in(text);
  JsonlTraceReader reader(in);
  Graph replay(6);
  EXPECT_THROW(reader.next_round(replay), TraceError);
}

TEST(TraceFormat, WriterTracksRunningEdgeSetAcrossDeltas) {
  // append_delta streams pre-computed deltas (the transform path).
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter writer(buf, 5, 0, "");
  const std::vector<EdgeKey> ins1 = {edge_key(0, 1), edge_key(1, 2)};
  writer.append_delta(ins1, {});
  const std::vector<EdgeKey> ins2 = {edge_key(2, 3)};
  const std::vector<EdgeKey> del2 = {edge_key(0, 1)};
  writer.append_delta(ins2, del2);
  writer.finish();

  BinaryTraceReader reader(buf);
  Graph g(5);
  ASSERT_TRUE(reader.next_round(g));
  EXPECT_EQ(g.num_edges(), 2u);
  ASSERT_TRUE(reader.next_round(g));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(reader.next_round(g));
}

TEST(TraceFormat, SmoothedTracePerturbsAndStaysConnected) {
  std::stringstream base_buf(std::ios::in | std::ios::out | std::ios::binary);
  {
    BinaryTraceWriter base_writer(base_buf, 20, 1, "");
    SigmaStableChurnConfig sc;
    sc.n = 20;
    sc.target_edges = 50;
    sc.churn_per_interval = 50;
    sc.sigma = 4;
    sc.seed = 13;
    generate_sigma_churn_trace(sc, 30, base_writer);
    base_writer.finish();
  }
  BinaryTraceReader base(base_buf);
  std::stringstream out_buf(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter out(out_buf, 20, 2, "");
  SmoothedTraceConfig cfg;
  cfg.flips_per_round = 6;
  cfg.seed = 77;
  smooth_trace(base, cfg, out);
  out.finish();
  EXPECT_EQ(out.rounds(), 30u);
  EXPECT_NE(out.checksum(), base.header().checksum);  // actually perturbed

  BinaryTraceReader reader(out_buf);
  Graph g(20);
  while (reader.next_round(g)) {
    EXPECT_TRUE(is_connected(g)) << "round " << reader.rounds_read();
  }
}

TEST(TraceFormat, MetadataIntegersFallBackOnForeignText) {
  const std::map<std::string, std::string> meta =
      parse_trace_metadata("k=64 cap=-3 algo=flooding: note free-form seed=x9");
  EXPECT_EQ(trace_metadata_int(meta, "k", 128), 64);
  EXPECT_EQ(trace_metadata_int(meta, "cap", 0), -3);
  EXPECT_EQ(trace_metadata_int(meta, "sources", 4), 4);  // absent
  EXPECT_EQ(trace_metadata_int(meta, "algo", 7), 7);     // not an integer
  EXPECT_EQ(trace_metadata_int(meta, "seed", 1), 1);
}

}  // namespace
}  // namespace dyngossip
