#include "async/async_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"

namespace dyngossip {

namespace {
// Salts separating the engine's position-keyed choice streams from each
// other and from the clock-gap stream (PoissonClock::kClockSalt).
constexpr std::uint64_t kNeighborSalt = 0xa5c0117ac7ull;  ///< neighbor pick
constexpr std::uint64_t kPushSalt = 0x9705aa7eull;        ///< push token pick
constexpr std::uint64_t kPullSalt = 0x9a11e77eull;        ///< pull token pick

// Stall detection counts quiet *events*, not rounds: at rate λ a window
// holds ~n·λ·σ activations, so the window is max(4096, 64n) events; the
// watchdog reads the clock every 64 popped events.
constexpr RunCadence kEventCadence{4096, 64, 64};
}  // namespace

AsyncEngine::AsyncEngine(Adversary& adversary,
                         std::vector<KnowledgeSet> initial_knowledge,
                         std::size_t k, AsyncEngineOptions opts)
    : clocked_(adversary, opts.sigma),
      clock_(opts.seed, opts.rate),
      knowledge_(std::move(initial_knowledge)),
      k_(k),
      push_pull_(opts.push_pull),
      seed_(opts.seed),
      tracker_(adversary.num_nodes()),
      ingest_(tracker_),
      control_(opts, kEventCadence, knowledge_, k, complete_nodes_, metrics_),
      queue_(knowledge_.size(), opts.rate) {
  const std::size_t n = knowledge_.size();
  DG_CHECK(n >= 1);
  DG_CHECK(n == adversary.num_nodes());  // rate > 0 is the queue's check
  // Seed every node's first activation.  The queue holds exactly one
  // pending event per node from here on (each pop schedules its successor).
  next_gap_index_.assign(n, 1);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    queue_.push({clock_.gap(v, 0), v, seq_++});
  }
}

void AsyncEngine::advance_rounds(Round target) {
  while (round_ < target) {
    // Close the open window: one probe sample and one event-batch span for
    // the finished round (both observer-only; gated on the pointers).
    if (round_ > 0) {
      control_.round_done(round_);
      if (TimelineRecorder* timeline = control_.timeline()) {
        const auto now = TimelineRecorder::now();
        timeline->span("event_batch", "phase", batch_begin_, now);
        batch_begin_ = now;
      }
    }
    const Round r = round_ + 1;
    const TimelineSpan span(control_.timeline(), "async_round", "round");
    // Fault plane: liveness advances per schedule round, exactly as in the
    // round engines (crash/recovery rolls are position-keyed on (round,
    // node), so sync and async trials share crash realizations).
    control_.begin_round(r);
    const Graph& g = clocked_.next_round(knowledge_);
    const GraphDiff& diff = ingest_.ingest(g, r, [this](Round rr, std::size_t c) {
      clocked_.on_disconnected(rr, c);
    });
    metrics_.tc += diff.inserted.size();
    metrics_.deletions += diff.removed.size();
    control_.round_graph(g.num_edges());
    round_ = r;
    metrics_.rounds = r;
  }
}

TokenId AsyncEngine::pick_token(const KnowledgeSet& ks, std::uint64_t event_no,
                                std::uint64_t salt) const {
  const std::size_t cnt = ks.count();
  if (cnt == 0) return kNoToken;
  const auto rank =
      static_cast<std::size_t>(position_hash(seed_, salt, event_no) % cnt);
  return static_cast<TokenId>(ks.nth_set(rank));
}

void AsyncEngine::learn(NodeId to, TokenId tok) {
  const bool was_complete = knowledge_[to].all();
  if (knowledge_[to].set(tok)) {
    ++metrics_.learnings;
    if (!was_complete && knowledge_[to].all()) ++complete_nodes_;
  } else {
    ++metrics_.duplicate_token_deliveries;
  }
}

void AsyncEngine::deliver_leg(NodeId to, TokenId tok, std::uint32_t leg,
                              std::uint64_t event_no) {
  if (tok == kNoToken) return;  // empty knowledge: nothing to transmit
  metrics_.unicast.add(MsgType::kToken);  // the sender pays, delivered or not
  if (control_.fault_active()) {
    if (control_.down(to)) {  // addressed to a crashed node: lost
      if (control_.probing()) ++control_.probe_dropped;
      return;
    }
    if (control_.faults()->has_delivery_faults()) {
      // Event position replaces (round, arc, per-arc seq): the event's
      // global sequence number is the arc coordinate and the contact leg is
      // the per-position sequence — still a pure position hash, still
      // evaluation-order independent.
      const FaultPlan::Fate fate = control_.faults()->delivery_fate(
          round_, static_cast<std::size_t>(event_no), leg);
      if (fate == FaultPlan::Fate::kDrop) {
        if (control_.probing()) ++control_.probe_dropped;
        return;
      }
      if (fate == FaultPlan::Fate::kDuplicate) {
        if (control_.probing()) ++control_.probe_duplicated;
        learn(to, tok);  // duplicated: the payload arrives twice
      }
    }
  }
  learn(to, tok);
}

void AsyncEngine::process(const ActivationEvent& ev) {
  const NodeId v = ev.node;
  if (control_.down(v)) return;  // crashed: silent clock
  const std::span<const NodeId> neigh = ingest_.view().neighbors(v);
  if (neigh.empty()) return;  // isolated in this window
  const std::uint64_t pick = position_hash(seed_, kNeighborSalt, ev.seq);
  const NodeId w = neigh[static_cast<std::size_t>(pick % neigh.size())];
  // Push leg: v offers one uniformly random known token to w.
  deliver_leg(w, pick_token(knowledge_[v], ev.seq, kPushSalt), 0, ev.seq);
  // Pull leg: w answers with one of its own tokens in the same contact.
  // A crashed contact stays silent (its leg is never sent, not dropped).
  if (push_pull_ && !control_.down(w)) {
    deliver_leg(v, pick_token(knowledge_[w], ev.seq, kPullSalt), 1, ev.seq);
  }
}

RunMetrics AsyncEngine::run(Round max_rounds) {
  const double horizon = clocked_.window_end(max_rounds);
  if (control_.timeline() != nullptr) batch_begin_ = TimelineRecorder::now();
  const RunMetrics m = control_.run(
      round_, /*start_offset=*/0, [this] { return !run_complete(); },
      [&] {
        DG_CHECK(!queue_.empty());
        if (!(queue_.top().time < horizon)) return false;  // past the cap
        const ActivationEvent ev = queue_.pop();
        // Materialize every schedule round up to the one owning this event
        // (the min() guards the floating-point edge at the horizon itself).
        const Round target = std::min(clocked_.round_of(ev.time), max_rounds);
        if (target > round_) advance_rounds(target);
        ++metrics_.virtual_steps;  // one clock activation
        process(ev);
        queue_.push({ev.time + clock_.gap(ev.node, next_gap_index_[ev.node]++),
                     ev.node, seq_++});
        return true;
      });
  // The final flush sample covered the still-open window; so does its span.
  if (control_.timeline() != nullptr && round_ > 0) {
    control_.timeline()->span("event_batch", "phase", batch_begin_,
                              TimelineRecorder::now());
  }
  return m;
}

}  // namespace dyngossip
