#include "engine/unicast_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {

UnicastEngine::UnicastEngine(std::vector<std::unique_ptr<UnicastAlgorithm>> nodes,
                             Adversary& adversary,
                             std::vector<KnowledgeSet> initial_knowledge,
                             std::size_t k, UnicastEngineOptions opts)
    : nodes_(std::move(nodes)),
      adversary_(adversary),
      knowledge_(std::move(initial_knowledge)),
      k_(k),
      control_(opts, kRoundCadence, knowledge_, k, complete_nodes_, metrics_),
      log_(opts.record_learning_events),
      start_offset_(opts.start_round - 1),
      round_(opts.start_round - 1),
      max_payloads_per_edge_(opts.max_payloads_per_edge),
      min_parallel_nodes_(opts.min_parallel_nodes),
      parking_(!control_.fault_active()),
      asleep_(nodes_.size(), 0),
      dirty_(nodes_.size(), 0) {
  DG_CHECK(!nodes_.empty());
  DG_CHECK(nodes_.size() == knowledge_.size());
  DG_CHECK(adversary_.num_nodes() == nodes_.size());
  DG_CHECK(opts.start_round >= 1);
  if (opts.tracker != nullptr) {
    tracker_ = opts.tracker;
    DG_CHECK(tracker_->num_nodes() == nodes_.size());
    DG_CHECK(tracker_->rounds() == round_);
  } else {
    DG_CHECK(opts.start_round == 1);
    owned_tracker_ = std::make_unique<DynamicGraphTracker>(nodes_.size());
    tracker_ = owned_tracker_.get();
  }
}

void UnicastEngine::validate_sent(NodeId v, std::vector<SentRecord>& sink,
                                  std::size_t mark, MessageCounts& counts) {
  const std::size_t n = nodes_.size();
  std::size_t w = mark;
  for (std::size_t i = mark; i < sink.size(); ++i) {
    const SentRecord& rec = sink[i];
    DG_CHECK(rec.to < n && rec.to != v);
    const std::size_t arc = view_.arc_index(v, rec.to);
    DG_CHECK(arc != kNoArc);  // may only address current neighbors
    // Token-forwarding: only held tokens may be shipped.
    if (rec.msg.type == MsgType::kToken) {
      DG_CHECK(rec.msg.token < k_);
      if (!knowledge_[v].test(rec.msg.token)) {
        // Under amnesia a recovered node's algorithm state legitimately
        // diverges from its wiped knowledge mirror; such sends are filtered
        // (not counted, not delivered) instead of tripping the invariant.
        DG_CHECK(control_.amnesia());
        continue;
      }
    }
    // Race-free across shards: the arcs of sender v form one contiguous
    // CSR block and v belongs to exactly one shard.
    const std::uint32_t used = ++arc_budget_[arc];
    DG_CHECK(used <= max_payloads_per_edge_);
    counts.add(rec.msg.type);
    if (w != i) sink[w] = sink[i];
    ++w;
  }
  sink.resize(w);
}

void UnicastEngine::wake_from_diff(const GraphDiff& diff) {
  for (const EdgeKey key : diff.removed) {
    const auto [a, b] = edge_endpoints(key);
    dirty_[a] |= asleep_[a];
    dirty_[b] |= asleep_[b];
  }
  const auto inserted_at = [this](NodeId x, NodeId y) {
    if (asleep_[x] == 0) return;
    dirty_[x] = 1;
    if (nodes_[x]->wakes_on(y)) asleep_[x] = 0;
  };
  for (const EdgeKey key : diff.inserted) {
    const auto [a, b] = edge_endpoints(key);
    inserted_at(a, b);
    inserted_at(b, a);
  }
}

void UnicastEngine::send_node(Round r, NodeId v, std::vector<SentRecord>& sink,
                              MessageCounts& counts) {
  const std::span<const NodeId> neigh = view_.neighbors(v);
  if (dirty_[v] != 0) {
    nodes_[v]->resume(r, neigh, *tracker_);
    dirty_[v] = 0;
  }
  Outbox out(v, sink);
  const std::size_t mark = sink.size();
  nodes_[v]->send(r, neigh, out);
  validate_sent(v, sink, mark, counts);
  if (parking_) asleep_[v] = nodes_[v]->parked() ? 1 : 0;
}

void UnicastEngine::send_phase_sharded(Round r, std::size_t shards) {
  const std::size_t n = nodes_.size();
  const std::size_t chunk = (n + shards - 1) / shards;
  send_shards_.resize(shards);
  parallel_for(*control_.pool(), shards, [&](std::size_t s) {
    const TimelineSpan span(control_.timeline(), "send_shard", "shard");
    SendShard& sh = send_shards_[s];
    sh.traffic.clear();
    sh.counts = MessageCounts{};
    const auto lo = static_cast<NodeId>(s * chunk);
    const auto hi = static_cast<NodeId>(std::min(n, (s + 1) * chunk));
    for (NodeId v = lo; v < hi; ++v) {
      if (control_.down(v) || asleep_[v] != 0) continue;  // crashed or parked
      send_node(r, v, sh.traffic, sh.counts);
    }
  });
  // Deterministic reduction: shards cover [0, n) in increasing node order,
  // so appending per-shard outboxes in shard order reproduces the serial
  // traffic buffer byte-for-byte.
  std::size_t total = 0;
  for (const SendShard& sh : send_shards_) total += sh.traffic.size();
  traffic_.clear();
  traffic_.reserve(total);
  for (const SendShard& sh : send_shards_) {
    traffic_.insert(traffic_.end(), sh.traffic.begin(), sh.traffic.end());
    metrics_.unicast += sh.counts;
  }
}

void UnicastEngine::deliver_sharded(Round r, std::size_t shards) {
  const std::size_t n = nodes_.size();
  // Serial stable bucketization by recipient (counts → prefix sums →
  // order-preserving scatter): each recipient then sees its records in the
  // exact subsequence the serial delivery loop would hand it, which is all
  // that node-local on_receive state can observe.
  recipient_begin_.assign(n + 1, 0);
  for (const SentRecord& rec : traffic_) ++recipient_begin_[rec.to + 1];
  for (std::size_t v = 0; v < n; ++v) {
    recipient_begin_[v + 1] += recipient_begin_[v];
  }
  record_of_.resize(traffic_.size());
  recipient_cursor_.assign(recipient_begin_.begin(), recipient_begin_.end());
  for (std::size_t i = 0; i < traffic_.size(); ++i) {
    record_of_[recipient_cursor_[traffic_[i].to]++] = i;
  }
  const std::size_t chunk = (n + shards - 1) / shards;
  deliver_shards_.resize(shards);
  parallel_for(*control_.pool(), shards, [&](std::size_t s) {
    const TimelineSpan span(control_.timeline(), "deliver_shard", "shard");
    DeliverShard& sh = deliver_shards_[s];
    sh = DeliverShard{};
    const auto lo = static_cast<NodeId>(s * chunk);
    const auto hi = static_cast<NodeId>(std::min(n, (s + 1) * chunk));
    constexpr auto kDrop = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
    constexpr auto kDup =
        static_cast<std::uint8_t>(FaultPlan::Fate::kDuplicate);
    for (NodeId v = lo; v < hi; ++v) {
      if (recipient_begin_[v] != recipient_begin_[v + 1]) asleep_[v] = 0;
      for (std::size_t j = recipient_begin_[v]; j < recipient_begin_[v + 1]; ++j) {
        const std::size_t idx = record_of_[j];
        const SentRecord& rec = traffic_[idx];
        const std::uint8_t fate = control_.fault_active() ? fate_[idx] : 0;
        if (fate == kDrop) continue;
        const int copies = fate == kDup ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          if (rec.msg.type == MsgType::kToken) {
            const bool was_complete = knowledge_[v].all();
            if (knowledge_[v].set(rec.msg.token)) {
              ++sh.learnings;
              if (!was_complete && knowledge_[v].all()) ++sh.newly_complete;
            } else {
              ++sh.duplicates;
            }
          }
          nodes_[v]->on_receive(r, rec.from, rec.msg);
        }
      }
    }
  });
  for (const DeliverShard& sh : deliver_shards_) {
    metrics_.learnings += sh.learnings;
    metrics_.duplicate_token_deliveries += sh.duplicates;
    complete_nodes_ += sh.newly_complete;
    log_.add_batch(sh.learnings, r);
  }
}

Round UnicastEngine::step() {
  const Round r = ++round_;
  const std::size_t n = nodes_.size();
  const TimelineSpan round_span(control_.timeline(), "round", "round");

  // 0. Fault plane: advance the liveness mask into round r (serial, before
  // any sharded phase — the mask is the plan's only mutable state).
  control_.begin_round(r);

  // 1. Adversary fixes G_r with full visibility of state and history.  The
  // returned reference is adversary-owned and stays valid through the round;
  // the engine snapshots it into the reusable CSR view.
  UnicastRoundView view;
  view.round = r;
  view.prev_messages = &prev_messages_;
  view.knowledge = &knowledge_;
  const Graph& g = adversary_.unicast_round(view);
  DG_CHECK(g.num_nodes() == n);
  view_.rebuild(g);
  const std::size_t components = connectivity_.components(view_).count;
  if (components > 1) adversary_.on_disconnected(r, components);
  DG_CHECK(components <= 1);
  const GraphDiff& diff = tracker_->advance(view_, r);
  metrics_.tc += diff.inserted.size();
  metrics_.deletions += diff.removed.size();
  // Parked nodes: the diff wakes them (an edge their wakes_on accepts) and
  // marks them dirty (any edge change while asleep).
  if (parking_) wake_from_diff(diff);

  const std::size_t shards = control_.plan_shards(min_parallel_nodes_);

  // 2. Send step: each awake node sees its sorted neighbor span (served by
  // the CSR snapshot — no per-node allocation or sort) and queues
  // per-neighbor payloads; parked nodes are skipped.  Sharded: per-shard
  // outboxes, merged in node order.
  {
    const TimelineSpan span(control_.timeline(), "send_phase", "phase");
    arc_budget_.assign(view_.num_arcs(), 0);
    if (shards > 1) {
      send_phase_sharded(r, shards);
    } else {
      traffic_.clear();
      for (NodeId v = 0; v < n; ++v) {
        if (control_.down(v) || asleep_[v] != 0) continue;  // crashed or parked
        send_node(r, v, traffic_, metrics_.unicast);
      }
    }
  }

  // 2b. Fault plane: seal each record's delivery fate in one serial pass.
  // Fates are position-keyed hashes of (round, arc, per-arc sequence) — not
  // of evaluation order — so the sharded delivery below observes the same
  // fates the serial loop would.  A payload addressed to a crashed node is
  // dropped outright; drops still cost the sender (counted at send time).
  if (control_.fault_active()) {
    fate_.assign(traffic_.size(), 0);
    const bool delivery_faults = control_.faults()->has_delivery_faults();
    if (delivery_faults) arc_seq_.assign(view_.num_arcs(), 0);
    for (std::size_t i = 0; i < traffic_.size(); ++i) {
      const SentRecord& rec = traffic_[i];
      if (control_.down(rec.to)) {
        fate_[i] = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
        continue;
      }
      if (!delivery_faults) continue;
      const std::size_t arc = view_.arc_index(rec.from, rec.to);
      fate_[i] = static_cast<std::uint8_t>(
          control_.faults()->delivery_fate(r, arc, arc_seq_[arc]++));
    }
  }

  // Probe-only fate accounting: a pure read of the sealed fates (never the
  // plan), so a probed faulty run delivers exactly what the unprobed one
  // does.
  if (control_.probing() && control_.fault_active()) {
    constexpr auto kDropF = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
    constexpr auto kDupF =
        static_cast<std::uint8_t>(FaultPlan::Fate::kDuplicate);
    for (const std::uint8_t fate : fate_) {
      control_.probe_dropped += fate == kDropF ? 1 : 0;
      control_.probe_duplicated += fate == kDupF ? 1 : 0;
    }
  }

  // 3 + 4. End-of-round delivery; learnings recorded against the mirror
  // before algorithms observe the payloads.  The sharded path needs batch
  // learning counts, so individual event recording keeps the serial loop.
  {
    const TimelineSpan span(control_.timeline(), "deliver_phase", "phase");
    if (shards > 1 && !log_.recording_events()) {
      deliver_sharded(r, shards);
    } else {
      constexpr auto kDrop = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
      constexpr auto kDup =
          static_cast<std::uint8_t>(FaultPlan::Fate::kDuplicate);
      for (std::size_t i = 0; i < traffic_.size(); ++i) {
        const SentRecord& rec = traffic_[i];
        asleep_[rec.to] = 0;
        const std::uint8_t fate = control_.fault_active() ? fate_[i] : 0;
        if (fate == kDrop) continue;
        const int copies = fate == kDup ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          if (rec.msg.type == MsgType::kToken) {
            const bool was_complete = knowledge_[rec.to].all();
            if (knowledge_[rec.to].set(rec.msg.token)) {
              ++metrics_.learnings;
              log_.add(rec.to, rec.msg.token, r);
              if (!was_complete && knowledge_[rec.to].all()) ++complete_nodes_;
            } else {
              ++metrics_.duplicate_token_deliveries;
            }
          }
          nodes_[rec.to]->on_receive(r, rec.from, rec.msg);
        }
      }
    }
  }

  metrics_.rounds = r - start_offset_;  // rounds executed by THIS engine/phase
  control_.round_graph(g.num_edges());
  control_.round_done(r);
  if (hook_) hook_(r, g, metrics_);
  // Swap (not move) so both buffers recycle.
  std::swap(prev_messages_, traffic_);
  return r;
}

RunMetrics UnicastEngine::run(Round max_rounds) {
  return run_until([](const UnicastEngine& e) { return e.run_complete(); },
                   max_rounds);
}

RunMetrics UnicastEngine::run_until(const StopPredicate& done, Round max_rounds) {
  return control_.run(
      round_, start_offset_,
      [&] { return !done(*this) && round_ < max_rounds; },
      [this] {
        step();
        return true;
      });
}

}  // namespace dyngossip
