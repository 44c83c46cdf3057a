// Net per-round edge changes, and their location in a CSR snapshot.
//
// The paper charges the adversary per inserted edge, TC(E) = Σ_r |E⁺_r|
// (Definition 1.3), and an incremental adversary changes only those edges.
// A Graph's change log (graph.hpp) turns the mutations between two commits
// into a RoundDelta, and the round ingest (graph/round_ingest.hpp) patches
// its CSR snapshot and the tracker by it in time proportional to the
// change instead of rebuilding and re-diffing every node block.
//
// The contract is a *net set difference*: `inserted` = E_r \ E_prev and
// `removed` = E_prev \ E_r, where E_prev is the edge set of the graph's
// previous revision.  An edge cut and re-added in between is in neither
// list.  Both lists hold canonical keys in strictly increasing order.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace dyngossip {

/// One round's net E⁺/E⁻ against the graph's previous revision.
struct RoundDelta {
  std::vector<EdgeKey> inserted;  ///< E⁺: sorted canonical keys
  std::vector<EdgeKey> removed;   ///< E⁻: sorted canonical keys

  /// Sets the lists to the net effect of successful insertions `added` and
  /// removals `cut` (each sorted; a key repeats once per call).  The calls
  /// on one key alternate, so a key is net inserted iff it was added more
  /// often than cut, net removed iff cut more often, and otherwise it ends
  /// as it began.
  void set_net(std::span<const EdgeKey> added, std::span<const EdgeKey> cut);
};

/// A RoundDelta bucketed by endpoint: for every node, its changed
/// neighbors in increasing order, each marked inserted or removed, and,
/// once applied to G_{r-1}'s CSR, the arc position there where the
/// neighbor sat (removed) or would sit (inserted).
///
/// Built with one counting pass over the node range and one scatter of the
/// delta in canonical key order.  Node x receives, in that order, first
/// the lower endpoints of keys {w, x} (w < x, increasing because keys are
/// sorted by lower endpoint) and then the upper endpoints of keys {x, w}
/// (w > x, increasing), so every bucket comes out sorted and no comparison
/// sort runs.  apply() then walks G_{r-1}'s arcs once, copying the
/// untouched blocks in runs and merging each touched block with its
/// bucket; the merge is what locates the changes, so a block costs its
/// length plus its changes, whatever its degree.  All changes in bucket
/// order are sorted by old arc position, so a consumer patches any other
/// per-arc array of G_{r-1}'s layout (the tracker's insertion rounds) with
/// one forward pass of segment copies.
class DeltaBuckets {
 public:
  /// One changed arc of a node.
  struct Change {
    NodeId neighbor;
    std::uint32_t inserted;  ///< 1 = edge inserted, 0 = edge removed
    std::size_t old_arc;     ///< position in G_{r-1}'s arc array (apply)
  };

  /// Buckets a copy of `delta` over the nodes [0, n).  DG_CHECKs that both
  /// lists are strictly increasing, canonical, in range and disjoint (a
  /// key in both lists is not a net delta).
  void build(const RoundDelta& delta, std::size_t n);

  /// Writes G_r's sorted neighbor blocks into `out`, given G_{r-1} as its
  /// CSR `offsets` (n + 1) and sorted blocks `targets`, and records every
  /// change's old arc.  `out` must hold G_{r-1}'s arc count plus the
  /// delta's net arc change (RoundGraphView::patch sizes it from the
  /// degrees it checks).  DG_CHECKs, before anything is written past a
  /// change, that every removed edge was present and every inserted edge
  /// absent.
  void apply(std::span<const std::size_t> offsets, std::span<const NodeId> targets,
             std::span<NodeId> out);

  /// The delta the buckets were built from.
  [[nodiscard]] const RoundDelta& delta() const noexcept { return delta_; }

  /// Every change, bucket after bucket (so by node, then neighbor).
  [[nodiscard]] std::span<const Change> all() const noexcept { return changes_; }

  /// Net degree change of every node.
  [[nodiscard]] std::span<const std::int32_t> degree_shift() const noexcept {
    return shift_;
  }

  /// Arc count of the G_{r-1} the changes were last applied to.
  [[nodiscard]] std::size_t base_arcs() const noexcept { return base_arcs_; }

 private:
  RoundDelta delta_;
  std::vector<std::size_t> begin_;  ///< n + 2 bucket offsets (scatter cursors)
  std::vector<Change> changes_;     ///< 2·|delta| entries, bucketed by node
  std::vector<std::int32_t> shift_; ///< per-node net degree change
  std::vector<NodeId> touched_;     ///< nodes with a change, increasing
  std::size_t base_arcs_ = 0;
};

}  // namespace dyngossip
