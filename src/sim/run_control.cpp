#include "sim/run_control.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {

RunControl::RunControl(const RunOptions& opts, RunCadence cadence,
                       std::vector<KnowledgeSet>& knowledge, std::size_t k,
                       std::size_t& complete_nodes, RunMetrics& metrics)
    : faults_(opts.faults),
      fault_active_(opts.faults != nullptr && opts.faults->active()),
      amnesia_(fault_active_ && opts.faults->amnesia()),
      pool_(opts.pool),
      timeout_seconds_(opts.timeout_seconds),
      telemetry_(opts.telemetry),
      // Generous: request/answer protocols legitimately go many rounds
      // between learnings, and an async window holds ~n·λ·σ activations.
      stall_window_(std::max<std::uint64_t>(
          cadence.stall_floor, cadence.stall_per_node * knowledge.size())),
      watchdog_period_(cadence.watchdog_period),
      knowledge_(knowledge),
      k_(k),
      complete_nodes_(complete_nodes),
      metrics_(metrics) {
  complete_nodes_ = 0;
  for (const KnowledgeSet& kn : knowledge_) {
    DG_CHECK(kn.size() == k_);
    if (kn.all()) ++complete_nodes_;
  }
}

std::size_t RunControl::plan_shards(std::size_t min_parallel_nodes) const noexcept {
  const std::size_t n = knowledge_.size();
  if (pool_ == nullptr || pool_->size() < 2 || n < min_parallel_nodes) return 1;
  // 4× oversubscription: parallel_for self-schedules shard indices, so
  // extra shards absorb per-node cost imbalance (hub nodes, dense rows).
  return std::min(pool_->size() * 4, n);
}

void RunControl::begin_round(Round r) {
  if (!fault_active_) return;
  faults_->begin_round(r);
  if (!amnesia_) return;  // crashed nodes keep their knowledge
  for (const NodeId v : faults_->crashed_this_round()) {
    if (knowledge_[v].all()) --complete_nodes_;
    knowledge_[v].reset_all();
    if (knowledge_[v].all()) ++complete_nodes_;  // k = 0 universe only
  }
}

bool RunControl::live_nodes_complete() const {
  if (faults_->live_count() == 0) return false;
  const auto n = static_cast<NodeId>(knowledge_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (faults_->is_live(v) && !knowledge_[v].all()) return false;
  }
  return true;
}

double RunControl::coverage() const {
  const std::uint64_t universe =
      static_cast<std::uint64_t>(knowledge_.size()) * k_;
  if (universe == 0) return 1.0;
  std::uint64_t known = 0;
  for (const KnowledgeSet& kn : knowledge_) known += kn.count();
  return static_cast<double>(known) / static_cast<double>(universe);
}

RunMetrics RunControl::finish(Round last_round, bool ran) {
  metrics_.completed = run_complete();
  metrics_.status = metrics_.completed ? RunStatus::kCompleted : stop_;
  metrics_.coverage = coverage();
  if (telemetry_.probe != nullptr && ran) sample(last_round, /*flush=*/true);
  return metrics_;
}

void RunControl::sample(Round r, bool flush) {
  RoundProbe& probe = *telemetry_.probe;
  if (!flush && !probe.wants(r)) return;  // deltas keep accumulating
  if (flush && probe.last_round() == static_cast<std::uint64_t>(r)) return;
  RoundProbeSample s;
  s.round = r;
  s.coverage = coverage();
  s.learned = metrics_.learnings - probe_prev_.learnings;
  s.sent = metrics_.total_messages() - probe_prev_.total_messages();
  s.dropped = probe_dropped;
  s.duplicated = probe_duplicated;
  s.requests = metrics_.unicast.request - probe_prev_.unicast.request;
  s.served = metrics_.unicast.token - probe_prev_.unicast.token;
  s.edges_inserted = metrics_.tc - probe_prev_.tc;
  s.edges_removed = metrics_.deletions - probe_prev_.deletions;
  s.edges = probe_edges_;
  s.crashed = fault_active_ ? static_cast<std::uint64_t>(
                                  knowledge_.size() - faults_->live_count())
                            : 0;
  probe.record(s);
  probe_prev_ = metrics_;
  probe_dropped = 0;
  probe_duplicated = 0;
}

}  // namespace dyngossip
