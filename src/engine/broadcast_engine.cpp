#include "engine/broadcast_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {

BroadcastEngine::BroadcastEngine(
    std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes, Adversary& adversary,
    std::vector<KnowledgeSet> initial_knowledge, std::size_t k,
    BroadcastEngineOptions opts)
    : nodes_(std::move(nodes)),
      adversary_(adversary),
      knowledge_(std::move(initial_knowledge)),
      k_(k),
      tracker_(nodes_.size()),
      ingest_(tracker_),
      control_(opts, kRoundCadence, knowledge_, k, complete_nodes_, metrics_),
      log_(opts.record_learning_events),
      min_parallel_nodes_(opts.min_parallel_nodes) {
  DG_CHECK(!nodes_.empty());
  DG_CHECK(nodes_.size() == knowledge_.size());
  DG_CHECK(adversary_.num_nodes() == nodes_.size());
  intents_.resize(nodes_.size(), kNoToken);
}

Round BroadcastEngine::step() {
  const Round r = ++round_;
  const TimelineSpan round_span(control_.timeline(), "round", "round");
  const std::size_t n = nodes_.size();
  const std::size_t shards = control_.plan_shards(min_parallel_nodes_);
  const std::size_t chunk = shards > 1 ? (n + shards - 1) / shards : n;
  if (shards > 1) shards_.resize(shards);

  // 0. Fault plane: advance liveness serially before the sharded intent
  // phase; amnesia wipes the mirrors of nodes that crashed this round.
  control_.begin_round(r);

  // Per-node intent under the fault plane: a crashed node is silent (its
  // algorithm is not even polled), and under amnesia an intent for a token
  // absent from the wiped mirror becomes silence instead of an invariant
  // failure (post-recovery algorithm state legitimately diverges).
  const auto intend = [this](NodeId v, Round round) -> TokenId {
    if (control_.down(v)) return kNoToken;
    TokenId t = nodes_[v]->choose_broadcast(round);
    DG_CHECK(t == kNoToken || t < k_);
    if (t != kNoToken && !knowledge_[v].test(t)) {
      // Token-forwarding constraint: only held tokens may be broadcast.
      DG_CHECK(control_.amnesia());
      t = kNoToken;
    }
    return t;
  };

  // 1. Nodes commit broadcast intents (before seeing the round graph).
  // intents_[v] is written only by v's shard; counters are per-shard and
  // folded in shard order, so totals match the serial loop exactly.
  {
  const TimelineSpan intent_span(control_.timeline(), "intent_phase", "phase");
  if (shards > 1) {
    parallel_for(*control_.pool(), shards, [&](std::size_t s) {
      const TimelineSpan span(control_.timeline(), "intent_shard", "shard");
      Shard& sh = shards_[s];
      sh.broadcasts = 0;
      const auto lo = static_cast<NodeId>(s * chunk);
      const auto hi = static_cast<NodeId>(std::min(n, (s + 1) * chunk));
      for (NodeId v = lo; v < hi; ++v) {
        const TokenId t = intend(v, r);
        intents_[v] = t;
        if (t != kNoToken) ++sh.broadcasts;
      }
    });
    for (const Shard& sh : shards_) metrics_.broadcasts += sh.broadcasts;
  } else {
    for (NodeId v = 0; v < n; ++v) {
      const TokenId t = intend(v, r);
      intents_[v] = t;
      if (t != kNoToken) ++metrics_.broadcasts;
    }
  }
  }

  // 2. The (possibly strongly adaptive) adversary fixes the round graph.
  BroadcastRoundView view;
  view.round = r;
  view.intents = intents_;
  view.knowledge = &knowledge_;
  const Graph& g = adversary_.broadcast_round(view);
  DG_CHECK(g.num_nodes() == n);
  const GraphDiff& diff = ingest_.ingest(g, r, [this](Round rr, std::size_t c) {
    adversary_.on_disconnected(rr, c);
  });
  metrics_.tc += diff.inserted.size();
  metrics_.deletions += diff.removed.size();

  // Per-recipient inbox under the fault plane: a crashed recipient receives
  // nothing; each (broadcaster, recipient) edge rolls one position-keyed
  // fate — dropped, delivered, or delivered twice.  The fault-free path is
  // the exact legacy loop.  `dropped`/`duplicated` are probe-only tallies
  // (a crashed-deaf recipient's suppressed deliveries count as drops, a
  // duplicate fate counts its extra copy) — pure reads of the same
  // position-keyed fates, so a probed faulty run delivers exactly what the
  // unprobed one does.
  const bool probe_counting = control_.probing() && control_.fault_active();
  const auto build_inbox = [this, r, probe_counting](
                               NodeId v, std::vector<TokenId>& inbox,
                               std::uint64_t& dropped,
                               std::uint64_t& duplicated) {
    inbox.clear();
    if (control_.down(v)) {  // crashed: deaf
      if (probe_counting) {
        for (const NodeId u : ingest_.view().neighbors(v)) {
          if (intents_[u] != kNoToken) ++dropped;
        }
      }
      return;
    }
    const bool delivery_faults =
        control_.fault_active() && control_.faults()->has_delivery_faults();
    for (const NodeId u : ingest_.view().neighbors(v)) {
      const TokenId t = intents_[u];
      if (t == kNoToken) continue;
      if (delivery_faults) {
        const FaultPlan::Fate fate =
            control_.faults()->delivery_fate(r, ingest_.view().arc_index(u, v), 0);
        if (fate == FaultPlan::Fate::kDrop) {
          if (probe_counting) ++dropped;
          continue;
        }
        inbox.push_back(t);
        if (fate == FaultPlan::Fate::kDuplicate) {
          if (probe_counting) ++duplicated;
          inbox.push_back(t);
        }
      } else {
        inbox.push_back(t);
      }
    }
  };

  // 3 + 4. Deliver broadcasts; record learnings before handing tokens to the
  // algorithms so the mirror stays authoritative.  Each recipient's inbox
  // depends only on frozen intents and its own knowledge, so recipient
  // shards are independent; the sharded path needs batch learning counts,
  // so individual event recording keeps the serial loop.
  {
  const TimelineSpan deliver_span(control_.timeline(), "deliver_phase",
                                  "phase");
  if (shards > 1 && !log_.recording_events()) {
    parallel_for(*control_.pool(), shards, [&](std::size_t s) {
      const TimelineSpan span(control_.timeline(), "deliver_shard", "shard");
      Shard& sh = shards_[s];
      sh.learnings = 0;
      sh.newly_complete = 0;
      sh.dropped = 0;
      sh.duplicated = 0;
      const auto lo = static_cast<NodeId>(s * chunk);
      const auto hi = static_cast<NodeId>(std::min(n, (s + 1) * chunk));
      for (NodeId v = lo; v < hi; ++v) {
        build_inbox(v, sh.inbox, sh.dropped, sh.duplicated);
        if (sh.inbox.empty()) continue;
        const bool was_complete = knowledge_[v].all();
        for (const TokenId t : sh.inbox) {
          if (knowledge_[v].set(t)) ++sh.learnings;
        }
        if (!was_complete && knowledge_[v].all()) ++sh.newly_complete;
        nodes_[v]->on_receive(r, sh.inbox);
      }
    });
    for (const Shard& sh : shards_) {
      metrics_.learnings += sh.learnings;
      complete_nodes_ += sh.newly_complete;
      log_.add_batch(sh.learnings, r);
      if (probe_counting) {
        control_.probe_dropped += sh.dropped;
        control_.probe_duplicated += sh.duplicated;
      }
    }
  } else {
    for (NodeId v = 0; v < n; ++v) {
      build_inbox(v, inbox_scratch_, control_.probe_dropped,
                  control_.probe_duplicated);
      if (inbox_scratch_.empty()) continue;
      const bool was_complete = knowledge_[v].all();
      for (const TokenId t : inbox_scratch_) {
        if (knowledge_[v].set(t)) {
          ++metrics_.learnings;
          log_.add(v, t, r);
        }
      }
      if (!was_complete && knowledge_[v].all()) ++complete_nodes_;
      nodes_[v]->on_receive(r, inbox_scratch_);
    }
  }
  }

  metrics_.rounds = r;
  control_.round_graph(g.num_edges());
  control_.round_done(r);
  return r;
}

RunMetrics BroadcastEngine::run(Round max_rounds) {
  return control_.run(
      round_, /*start_offset=*/0,
      [&] { return !run_complete() && round_ < max_rounds; },
      [this] {
        step();
        return true;
      });
}

}  // namespace dyngossip
