// Adversary interface.
//
// Section 1.3 distinguishes two adversary strengths:
//  - strongly adaptive: chooses round r's topology knowing the algorithm's
//    state and its random choices *for round r* (in the local-broadcast
//    model, it sees each node's chosen broadcast token i_v(r) before fixing
//    the graph — exactly the order of play in Section 2);
//  - oblivious: commits to the whole topology sequence before execution;
//    modelled here as adversaries whose round graphs are a pure function of
//    their own seed and round number.
//
// The engines call `broadcast_round` / `unicast_round` once per round with a
// view of everything the respective model lets the adversary see.  Oblivious
// adversaries ignore the views (enforced by construction: ObliviousAdversary
// routes both calls to a view-free generator).  Every adversary must return
// a connected graph on the engine's node set (the model's standing
// connectivity assumption); the engines verify this every round and report
// a violation through on_disconnected.
//
// An incremental adversary that mutates one working Graph in place commits
// it at the end of every round (Graph::commit); the engines then patch
// their snapshot by the graph's net delta instead of rebuilding it.  Not
// committing is always correct, only slower.  A decorator may return the
// inner adversary's graph or a copy of it (a copy keeps the revision); one
// that alters the graph leaves it uncommitted, or commits it itself.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "engine/message.hpp"
#include "graph/graph.hpp"

namespace dyngossip {

/// What a strongly adaptive adversary sees in the local-broadcast model
/// before fixing round r's graph (Section 2's order of play).
struct BroadcastRoundView {
  Round round = 0;
  /// i_v(r): the token each node will broadcast this round (kNoToken = ⊥).
  std::span<const TokenId> intents;
  /// K_v(r-1): each node's knowledge entering the round.
  const std::vector<KnowledgeSet>* knowledge = nullptr;
};

/// What an adaptive adversary sees in the unicast model before fixing round
/// r's graph.  The paper's unicast algorithms are deterministic, so showing
/// the adversary the full state + previous-round traffic makes it exactly as
/// strong as the strongly adaptive adversary (it can predict round r's
/// messages).  The view carries no G_{r-1}: every adversary built G_{r-1}
/// itself, so one that needs topology history keeps it in its own state.
struct UnicastRoundView {
  Round round = 0;
  /// Every message sent in round r-1.
  const std::vector<SentRecord>* prev_messages = nullptr;
  /// K_v(r-1): each node's token knowledge entering the round.
  const std::vector<KnowledgeSet>* knowledge = nullptr;
};

/// Base class for all adversaries.
///
/// Round methods return a reference to adversary-owned storage that stays
/// valid until the next round call on the same adversary: at n ~ 10⁴ a
/// by-value Graph return would copy n adjacency vectors every round, which
/// the incremental adversaries (churn, request cutter) never need to pay.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Node count of the network this adversary controls.
  [[nodiscard]] virtual std::size_t num_nodes() const = 0;

  /// Round graph for the local-broadcast engine.  Default: defers to the
  /// view-free generator (oblivious behaviour).
  [[nodiscard]] virtual const Graph& broadcast_round(const BroadcastRoundView& view);

  /// Round graph for the unicast engine.  Default: defers to the view-free
  /// generator (oblivious behaviour).
  [[nodiscard]] virtual const Graph& unicast_round(const UnicastRoundView& view);

  /// Called by an engine when the graph this adversary returned for round
  /// r has `components` > 1 connected components.  Must not return.  The
  /// default aborts: a generator that breaks connectivity is a bug.
  /// Adversaries replaying outside data throw an actionable error instead,
  /// and decorators forward to the adversary they wrap.
  virtual void on_disconnected(Round r, std::size_t components);

 protected:
  /// View-free generator used by oblivious adversaries; adaptive adversaries
  /// that override both round methods need not implement it.  The returned
  /// reference must stay valid until the next round call (incremental
  /// generators return their working graph).
  [[nodiscard]] virtual const Graph& next_graph(Round r);
};

/// Convenience base for oblivious adversaries: subclasses implement only
/// next_graph(r), which must depend on nothing but construction-time state
/// (seed, parameters) and r — i.e. the sequence is committed in advance.
class ObliviousAdversary : public Adversary {
 public:
  [[nodiscard]] const Graph& broadcast_round(const BroadcastRoundView& view) final;
  [[nodiscard]] const Graph& unicast_round(const UnicastRoundView& view) final;
};

}  // namespace dyngossip
