// Differential test of Multi-Source-Unicast's per-round bookkeeping.
//
// MultiSourceNode finds the minimum owed source per edge, the target source
// and the first missing token with word scans and cursors.  The reference
// node below keeps the plain O(deg·s) loops (per-source R_v(x) sets, a full
// scan for the target, a token walk from position 0): both must send the
// same payloads to the same neighbors in the same order, every round.
//
// Each case runs once with a pair of nodes per vertex (both see the same
// deliveries; their outboxes are compared record by record, the new node's
// is forwarded) and once with each kind of node alone (final RunMetrics,
// knowledge and payload checksum compared).  The grid covers source counts
// around the 64-bit word boundaries, n-gossip, k > n, sources that
// complete out of index order, phase-2 style initial knowledge
// (make_all_with), and the drop/crash/dup/amnesia fault plane.  Literal
// pins of Multi-Source-Unicast runs and run_oblivious_multi_source guard
// the payloads against both implementations drifting together.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "common/rng.hpp"
#include "core/knowledge.hpp"
#include "core/multi_source.hpp"
#include "engine/unicast_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "sim/simulator.hpp"
#include "trace/run_payload.hpp"

namespace dyngossip {
namespace {

/// Multi-Source-Unicast with the straightforward per-round loops: per
/// source x the sets R_v(x) and S_v(x), a scan over all (neighbor, source)
/// pairs for announcements, a scan over all sources for the target, and a
/// missing-token walk from the start of the target's token list.
class ReferenceNode final : public UnicastAlgorithm {
 public:
  ReferenceNode(NodeId self, const MultiSourceConfig& cfg,
                const KnowledgeSet& initial_tokens)
      : cfg_(cfg),
        tokens_(cfg.space->total_tokens()),
        in_flight_(cfg.space->total_tokens()) {
    (void)self;
    per_source_.resize(cfg_.space->num_sources());
    for (auto& ps : per_source_) {
      ps.informed = KnowledgeSet(cfg_.n);
      ps.announcers = KnowledgeSet(cfg_.n);
    }
    for (const std::size_t t : initial_tokens.set_bits()) {
      account_token(static_cast<TokenId>(t));
    }
  }

  void send(Round r, std::span<const NodeId> neighbors, Outbox& out) override {
    classifier_.begin_round(r, neighbors);
    const std::size_t s = per_source_.size();

    // Task 1: per edge, the minimum complete source not yet announced.
    for (const NodeId w : neighbors) {
      for (std::size_t x = 0; x < s; ++x) {
        if (!per_source_[x].complete || per_source_[x].informed.test(w)) continue;
        out.send(w, Message::completeness(cfg_.space->source_node(x),
                                          cfg_.space->count_of(x)));
        per_source_[x].informed.set(w);
        break;
      }
    }

    // Task 2: answer last round's requests over surviving edges.
    for (const auto& [requester, token] : pending_answers_) {
      if (std::binary_search(neighbors.begin(), neighbors.end(), requester)) {
        const std::size_t x = cfg_.space->source_of_token(token);
        out.send(requester, Message::token_msg(token, cfg_.space->source_node(x)));
      }
    }
    pending_answers_.clear();

    // Task 3: the minimum incomplete source with an announcer.
    std::size_t target = kNotASource;
    for (std::size_t x = 0; x < s; ++x) {
      if (!per_source_[x].complete && per_source_[x].announcers.count() > 0) {
        target = x;
        break;
      }
    }

    surviving_.clear();
    for (const auto& [w, tok] : sent_requests_) {
      if (std::binary_search(neighbors.begin(), neighbors.end(), w)) {
        in_flight_.set(tok);
        surviving_.push_back({w, tok});
      }
    }

    next_requests_.clear();
    if (target != kNotASource) {
      const PerSource& ps = per_source_[target];
      const std::span<const TokenId> pool = cfg_.space->tokens_of(target);
      std::size_t pos = 0;
      const auto next_missing = [&]() -> TokenId {
        while (pos < pool.size() &&
               (tokens_.test(pool[pos]) || in_flight_.test(pool[pos]))) {
          ++pos;
        }
        return pos < pool.size() ? pool[pos++] : kNoToken;
      };
      classifier_.partition(
          surviving_, [&ps](NodeId w) { return ps.announcers.test(w); }, by_class_);
      const EdgeClass priority[3] = {EdgeClass::kNew, EdgeClass::kIdle,
                                     EdgeClass::kContributive};
      for (const EdgeClass c : priority) {
        for (const NodeId w : by_class_[static_cast<std::size_t>(c)]) {
          const TokenId b = next_missing();
          if (b == kNoToken) break;
          out.send(w, Message::request(b, cfg_.space->source_node(target)));
          next_requests_.push_back({w, b});
        }
      }
    }
    carry_surviving_requests(next_requests_, surviving_, in_flight_);
    std::swap(sent_requests_, next_requests_);
  }

  void on_receive(Round /*r*/, NodeId from, const Message& m) override {
    switch (m.type) {
      case MsgType::kToken: {
        if (!tokens_.test(m.token)) {
          account_token(m.token);
          classifier_.note_learning_over(from);
        }
        const auto* entry = find_request(sent_requests_, from);
        if (entry != nullptr && entry->second == m.token) {
          sent_requests_.erase(sent_requests_.begin() +
                               (entry - sent_requests_.data()));
        }
        break;
      }
      case MsgType::kCompleteness:
        per_source_[cfg_.space->index_of_node(m.source)].announcers.set(from);
        break;
      case MsgType::kRequest:
        pending_answers_.emplace_back(from, m.token);
        break;
      case MsgType::kControl:
        break;
    }
  }

 private:
  struct PerSource {
    bool complete = false;
    std::uint32_t held = 0;
    KnowledgeSet informed;
    KnowledgeSet announcers;
  };

  void account_token(TokenId t) {
    if (!tokens_.set(t)) return;
    const std::size_t x = cfg_.space->source_of_token(t);
    PerSource& ps = per_source_[x];
    ++ps.held;
    if (ps.held == cfg_.space->count_of(x)) ps.complete = true;
  }

  MultiSourceConfig cfg_;
  KnowledgeSet tokens_;
  std::vector<PerSource> per_source_;
  EdgeClassifier classifier_;
  RequestList sent_requests_;
  std::vector<std::pair<NodeId, TokenId>> pending_answers_;
  RequestList surviving_;
  RequestList next_requests_;
  KnowledgeSet in_flight_;
  std::vector<NodeId> by_class_[3];
};

/// Outbox mismatches seen by the paired nodes.
struct Mismatches {
  std::uint64_t count = 0;
  std::uint64_t sends = 0;
  Round first_round = 0;
};

bool same_record(const SentRecord& a, const SentRecord& b) {
  return a.to == b.to && a.msg.type == b.msg.type && a.msg.token == b.msg.token &&
         a.msg.source == b.msg.source && a.msg.aux == b.msg.aux;
}

/// One vertex running the reference and the new node side by side: both
/// get every delivery, their round outboxes must match, and the new node's
/// records go on the wire.
class PairNode final : public UnicastAlgorithm {
 public:
  PairNode(NodeId self, const MultiSourceConfig& cfg, const KnowledgeSet& initial,
           Mismatches& mismatches)
      : reference_(self, cfg, initial),
        node_(self, cfg, initial),
        mismatches_(mismatches) {}

  void send(Round r, std::span<const NodeId> neighbors, Outbox& out) override {
    Outbox want;
    Outbox got;
    reference_.send(r, neighbors, want);
    node_.send(r, neighbors, got);
    ++mismatches_.sends;
    const std::span<const SentRecord> a = want.queued();
    const std::span<const SentRecord> b = got.queued();
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end(), same_record)) {
      if (mismatches_.count++ == 0) mismatches_.first_round = r;
    }
    for (const SentRecord& rec : b) out.send(rec.to, rec.msg);
  }

  void on_receive(Round r, NodeId from, const Message& m) override {
    reference_.on_receive(r, from, m);
    node_.on_receive(r, from, m);
  }

 private:
  ReferenceNode reference_;
  MultiSourceNode node_;
  Mismatches& mismatches_;
};

enum class Nodes { kPair, kReference, kNew };

struct Case {
  std::string name;
  std::size_t n = 0;
  TokenSpacePtr space;
  std::string adversary = "churn:rate=0.1,sigma=2";
  std::uint64_t seed = 1;
  bool phase2 = false;     ///< random extra initial knowledge (make_all_with)
  std::string fault;       ///< FaultSpec string, empty for none
};

struct Outcome {
  RunMetrics metrics;
  std::uint64_t checksum = 0;
  std::vector<std::vector<std::size_t>> knowledge;
  std::uint64_t mismatches = 0;
  std::uint64_t sends = 0;
  Round first_mismatch = 0;
};

/// Phase-2 style K_v(0): every source holds its own tokens, and every
/// node also holds each token with probability 1/3 (so some nodes start
/// complete w.r.t. high-index sources but not low-index ones).
std::vector<KnowledgeSet> initial_knowledge(const Case& c) {
  std::vector<KnowledgeSet> initial = c.space->initial_knowledge(c.n);
  if (!c.phase2) return initial;
  Rng rng(c.seed * 7919 + 5);
  for (KnowledgeSet& ks : initial) {
    for (TokenId t = 0; t < c.space->total_tokens(); ++t) {
      if (rng.bernoulli(1.0 / 3.0)) ks.set(t);
    }
  }
  return initial;
}

Outcome run_case(const Case& c, Nodes kind) {
  const std::unique_ptr<Adversary> adversary =
      build_adversary(AdversarySpec::parse(c.adversary), c.n, c.seed);
  FaultPlan plan(c.fault.empty() ? FaultSpec{} : FaultSpec::parse(c.fault), c.n,
                 c.seed);
  const MultiSourceConfig cfg{c.n, c.space};
  const std::vector<KnowledgeSet> initial = initial_knowledge(c);
  Mismatches mismatches;
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  switch (kind) {
    case Nodes::kNew:
      nodes = MultiSourceNode::make_all_with(cfg, initial);
      break;
    case Nodes::kReference:
      for (NodeId v = 0; v < c.n; ++v) {
        nodes.push_back(std::make_unique<ReferenceNode>(v, cfg, initial[v]));
      }
      break;
    case Nodes::kPair:
      for (NodeId v = 0; v < c.n; ++v) {
        nodes.push_back(std::make_unique<PairNode>(v, cfg, initial[v], mismatches));
      }
      break;
  }
  UnicastEngineOptions opts;
  if (!c.fault.empty()) opts.faults = &plan;
  const std::uint32_t k = c.space->total_tokens();
  UnicastEngine engine(std::move(nodes), *adversary, initial, k, opts);
  Outcome out;
  out.metrics = engine.run(static_cast<Round>(std::min<std::size_t>(
      20 * c.n * k + 1000, 60'000)));
  out.checksum = run_payload_checksum(c.n, k, to_run_result(out.metrics));
  for (NodeId v = 0; v < c.n; ++v) {
    out.knowledge.push_back(engine.knowledge_of(v).set_positions());
  }
  out.mismatches = mismatches.count;
  out.sends = mismatches.sends;
  out.first_mismatch = mismatches.first_round;
  return out;
}

/// s sources spread over the n nodes (every (n/s)-th id), `per` tokens each.
TokenSpacePtr spread(std::size_t n, std::size_t s, std::uint32_t per) {
  std::vector<TokenSpace::SourceSpec> specs;
  for (std::size_t i = 0; i < s; ++i) {
    specs.push_back({static_cast<NodeId>(i * n / s), per});
  }
  return std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
}

/// Sources with interleaved, non-contiguous token lists and uneven counts
/// (the shape of Algorithm 2's relabelled phase-2 space): source i owns
/// the tokens t with t % s == i, and the highest-id sources own fewest.
TokenSpacePtr interleaved(std::size_t n, std::size_t s, std::uint32_t k) {
  std::vector<std::pair<NodeId, std::vector<TokenId>>> lists(s);
  for (std::size_t i = 0; i < s; ++i) {
    lists[i].first = static_cast<NodeId>(n - 1 - i * (n / s));
  }
  for (TokenId t = 0; t < k; ++t) lists[t % s].second.push_back(t);
  return std::make_shared<TokenSpace>(k, std::move(lists));
}

std::vector<Case> cases() {
  constexpr const char* kFaults =
      "fault:drop=0.05,crash=0.01,recover=0.3,dup=0.05,amnesia=1";
  std::vector<Case> out;
  // Source counts around the word boundaries, one token per source
  // (n-gossip when s == n) and a few tokens per source.
  // (The two-word counts run one shape each: the reference's O(deg·s)
  // rounds dominate the test's time there.)
  for (const std::size_t s : {1u, 2u, 63u, 64u, 65u, 128u, 130u}) {
    Case c;
    c.name = "s=" + std::to_string(s) + " n-gossip";
    c.n = std::max<std::size_t>(s, 12);
    c.space = spread(c.n, s, 1);
    c.seed = 100 + s;
    if (s != 130) out.push_back(c);
    if (s == 128) continue;
    Case d;
    d.name = "s=" + std::to_string(s) + " k>n";
    d.n = std::max<std::size_t>(s + 6, 16);
    d.space = spread(d.n, s, s > 64 ? 2 : 5);
    d.adversary = "sigma:interval=3,turnover=0.3";
    d.seed = 200 + s;
    out.push_back(d);
  }
  // Phase-2 initial knowledge: sources complete out of index order.
  for (const std::size_t s : {3u, 66u, 100u}) {
    Case c;
    c.name = "s=" + std::to_string(s) + " phase2";
    c.n = s + 10;
    c.space = interleaved(c.n, s, static_cast<std::uint32_t>(2 * s + 3));
    c.phase2 = true;
    c.adversary = "churn:rate=0.3";
    c.seed = 300 + s;
    out.push_back(c);
  }
  // The fault plane: drops and crashes leave gaps in the token prefix,
  // duplicates repeat announcements and requests, amnesia filters sends.
  for (const std::size_t s : {4u, 65u}) {
    Case c;
    c.name = "s=" + std::to_string(s) + " faults";
    c.n = s + 12;
    c.space = spread(c.n, s, 3);
    c.fault = kFaults;
    c.seed = 400 + s;
    out.push_back(c);
    Case d = c;
    d.name += " phase2 cutter";
    d.space = interleaved(d.n, s, static_cast<std::uint32_t>(3 * s));
    d.phase2 = true;
    d.adversary = "cutter:p=0.7";
    out.push_back(d);
  }
  Case stat;
  stat.name = "s=70 static";
  stat.n = 90;
  stat.space = spread(stat.n, 70, 2);
  stat.adversary = "static:graph=gnp,p=0.1";
  out.push_back(stat);
  return out;
}

TEST(MultiSourceDiff, OutboxesAndMetricsMatchReference) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Outcome pair = run_case(c, Nodes::kPair);
    EXPECT_EQ(pair.mismatches, 0u) << "first differing round " << pair.first_mismatch;
    EXPECT_GT(pair.sends, 0u);
    const Outcome ref = run_case(c, Nodes::kReference);
    const Outcome got = run_case(c, Nodes::kNew);
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.checksum, pair.checksum);
    EXPECT_EQ(got.metrics.unicast.token, ref.metrics.unicast.token);
    EXPECT_EQ(got.metrics.unicast.completeness, ref.metrics.unicast.completeness);
    EXPECT_EQ(got.metrics.unicast.request, ref.metrics.unicast.request);
    EXPECT_EQ(got.metrics.tc, ref.metrics.tc);
    EXPECT_EQ(got.metrics.deletions, ref.metrics.deletions);
    EXPECT_EQ(got.metrics.learnings, ref.metrics.learnings);
    EXPECT_EQ(got.metrics.duplicate_token_deliveries,
              ref.metrics.duplicate_token_deliveries);
    EXPECT_EQ(got.metrics.rounds, ref.metrics.rounds);
    EXPECT_EQ(got.metrics.status, ref.metrics.status);
    EXPECT_EQ(got.metrics.coverage, ref.metrics.coverage);
    EXPECT_EQ(got.knowledge, ref.knowledge);
    // Fault-free runs must finish, else the comparison covers a stub.
    if (c.fault.empty()) {
      EXPECT_TRUE(got.metrics.completed);
    }
  }
}

// Literal pins: the metrics and payload checksums of Multi-Source-Unicast and
// run_oblivious_multi_source on fixed seeds.  A change that moves any of
// them changed the protocol's behaviour, not just its bookkeeping.
struct Pin {
  const char* adversary;
  std::size_t n;
  std::size_t s;
  std::uint32_t per_source;
  std::uint64_t seed;
  bool faults;
  std::uint64_t tokens, completeness, requests, tc;
  Round rounds;
  RunStatus status;
  std::uint64_t checksum;
};

constexpr const char* kPinFaults = "fault:drop=0.05,crash=0.01,recover=0.3,dup=0.05";

std::string describe(const RunMetrics& m, std::uint64_t checksum) {
  std::ostringstream os;
  os << m.unicast.token << ", " << m.unicast.completeness << ", "
     << m.unicast.request << ", " << m.tc << ", " << m.rounds << ", status "
     << static_cast<int>(m.status) << ", 0x" << std::hex << checksum;
  return os.str();
}

// clang-format off
constexpr Pin kMultiSourcePins[] = {
    {"churn:rate=0.1,sigma=2", 24, 3, 4, 1, false,
     276, 791, 309, 244, 27, RunStatus::kCompleted, 0x66beefa4a291824aull},
    {"churn:rate=0.3", 40, 40, 1, 2, false,
     1560, 52472, 2230, 9570, 278, RunStatus::kCompleted, 0xb116ab61ca8cc68dull},
    {"sigma:interval=3,turnover=0.3", 80, 70, 2, 3, false,
     11060, 302171, 12301, 18510, 781, RunStatus::kCompleted, 0x8d5d081572ffeb52ull},
    {"cutter:p=0.7", 30, 5, 6, 4, false,
     870, 3507, 3316, 2288, 2655, RunStatus::kCompleted, 0xf40fb096489dad31ull},
    {"churn:rate=0.1,sigma=2", 70, 66, 1, 5, true,
     5075, 230012, 5783, 15651, 744, RunStatus::kCompleted, 0xcccca540d530e818ull},
};
// clang-format on

TEST(MultiSourceDiff, MultiSourcePayloadPinsMatchLiteralValues) {
  for (const Pin& pin : kMultiSourcePins) {
    SCOPED_TRACE(::testing::Message() << pin.adversary << " n=" << pin.n
                                      << " s=" << pin.s << " seed=" << pin.seed
                                      << (pin.faults ? " faults" : ""));
    const std::unique_ptr<Adversary> adversary =
        build_adversary(AdversarySpec::parse(pin.adversary), pin.n, pin.seed);
    const TokenSpacePtr space = spread(pin.n, pin.s, pin.per_source);
    FaultPlan plan(FaultSpec::parse(kPinFaults), pin.n, pin.seed);
    UnicastEngineOptions opts;
    if (pin.faults) opts.faults = &plan;
    UnicastEngine engine(MultiSourceNode::make_all({pin.n, space}), *adversary,
                         space->initial_knowledge(pin.n), space->total_tokens(), opts);
    const RunMetrics m = engine.run(static_cast<Round>(200 * pin.n * pin.s));
    const std::uint64_t checksum =
        run_payload_checksum(pin.n, space->total_tokens(), to_run_result(m));
    SCOPED_TRACE(describe(m, checksum));
    EXPECT_EQ(m.unicast.token, pin.tokens);
    EXPECT_EQ(m.unicast.completeness, pin.completeness);
    EXPECT_EQ(m.unicast.request, pin.requests);
    EXPECT_EQ(m.tc, pin.tc);
    EXPECT_EQ(m.rounds, pin.rounds);
    EXPECT_EQ(m.status, pin.status);
    EXPECT_EQ(checksum, pin.checksum);
  }
}

struct ObliviousPin {
  const char* adversary;
  std::size_t n;
  std::uint64_t seed;
  std::size_t f_override;
  std::size_t num_centers;
  std::uint64_t tokens, completeness, requests, tc;
  Round rounds;
  std::uint64_t checksum;
};

// clang-format off
constexpr ObliviousPin kObliviousPins[] = {
    {"churn:rate=0.1,sigma=3", 48, 1, 6,
     7, 2292, 7776, 2264, 4522, 320, 0x96267605d2dac83dull},
    {"churn:rate=0.1,sigma=3", 96, 2, 70,
     73, 9120, 398813, 10141, 23690, 844, 0xf6971312725e6ed3ull},
    {"sigma:interval=3,turnover=0.2", 64, 3, 0,
     64, 4032, 137059, 4275, 5632, 441, 0x04b7c430278ab576ull},
};
// clang-format on

TEST(MultiSourceDiff, ObliviousPayloadPinsMatchLiteralValues) {
  for (const ObliviousPin& pin : kObliviousPins) {
    SCOPED_TRACE(::testing::Message() << pin.adversary << " n=" << pin.n
                                      << " seed=" << pin.seed
                                      << " f=" << pin.f_override);
    const std::unique_ptr<Adversary> adversary =
        build_adversary(AdversarySpec::parse(pin.adversary), pin.n, pin.seed);
    // n-gossip: every node a source with one token.
    const TokenSpacePtr space = spread(pin.n, pin.n, 1);
    ObliviousMsOptions opts;
    opts.seed = pin.seed;
    opts.force_phase1 = true;
    opts.f_override = pin.f_override;
    const ObliviousMsResult r =
        run_oblivious_multi_source(pin.n, space, *adversary, opts);
    const RunMetrics& m = r.total;
    const std::uint64_t checksum =
        run_payload_checksum(pin.n, space->total_tokens(), to_run_result(m));
    SCOPED_TRACE(describe(m, checksum) + ", centers " + std::to_string(r.num_centers));
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.num_centers, pin.num_centers);
    EXPECT_EQ(m.unicast.token, pin.tokens);
    EXPECT_EQ(m.unicast.completeness, pin.completeness);
    EXPECT_EQ(m.unicast.request, pin.requests);
    EXPECT_EQ(m.tc, pin.tc);
    EXPECT_EQ(m.rounds, pin.rounds);
    EXPECT_EQ(checksum, pin.checksum);
  }
}

}  // namespace
}  // namespace dyngossip
