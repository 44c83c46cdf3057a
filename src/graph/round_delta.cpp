#include "graph/round_delta.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dyngossip {

void RoundDelta::set_net(std::span<const EdgeKey> added, std::span<const EdgeKey> cut) {
  inserted.clear();
  removed.clear();
  std::size_t a = 0;
  std::size_t c = 0;
  while (a < added.size() || c < cut.size()) {
    const EdgeKey key =
        c == cut.size() || (a < added.size() && added[a] < cut[c]) ? added[a] : cut[c];
    std::size_t adds = 0;
    std::size_t cuts = 0;
    for (; a < added.size() && added[a] == key; ++a) ++adds;
    for (; c < cut.size() && cut[c] == key; ++c) ++cuts;
    if (adds > cuts) inserted.push_back(key);
    if (cuts > adds) removed.push_back(key);
  }
}

void DeltaBuckets::build(const RoundDelta& delta, std::size_t n) {
  delta_.inserted.assign(delta.inserted.begin(), delta.inserted.end());
  delta_.removed.assign(delta.removed.begin(), delta.removed.end());
  base_arcs_ = 0;
  // Count each node's changes into begin_[v + 2]; the prefix sum then
  // leaves v's start in begin_[v + 1], and the scatter's post-increments
  // shift every start down to begin_[v].
  begin_.assign(n + 2, 0);
  shift_.assign(n, 0);
  const auto count = [this, n](const std::vector<EdgeKey>& keys, std::int32_t sign) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto [lo, hi] = edge_endpoints(keys[i]);
      DG_CHECK(lo < hi && hi < n);
      DG_CHECK(i == 0 || keys[i - 1] < keys[i]);
      ++begin_[lo + 2];
      ++begin_[hi + 2];
      shift_[lo] += sign;
      shift_[hi] += sign;
    }
  };
  count(delta_.inserted, 1);
  count(delta_.removed, -1);
  touched_.resize(n);
  std::size_t touched = 0;
  std::size_t sum = 0;
  for (std::size_t v = 0; v < n; ++v) {
    touched_[touched] = static_cast<NodeId>(v);
    touched += begin_[v + 2] != 0 ? 1 : 0;
    sum += begin_[v + 2];
    begin_[v + 2] = sum;
  }
  touched_.resize(touched);
  changes_.resize(begin_[n + 1]);

  // Scatter both lists merged in key order (see the class comment).
  const std::vector<EdgeKey>& ins = delta_.inserted;
  const std::vector<EdgeKey>& rem = delta_.removed;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ins.size() || j < rem.size()) {
    const bool inserted = j == rem.size() || (i < ins.size() && ins[i] < rem[j]);
    DG_CHECK(inserted || i == ins.size() || ins[i] != rem[j]);  // net: disjoint
    const EdgeKey key = inserted ? ins[i++] : rem[j++];
    const auto [lo, hi] = edge_endpoints(key);
    const std::uint32_t flag = inserted ? 1 : 0;
    changes_[begin_[lo + 1]++] = {hi, flag, 0};
    changes_[begin_[hi + 1]++] = {lo, flag, 0};
  }

}

void DeltaBuckets::apply(std::span<const std::size_t> offsets,
                         std::span<const NodeId> targets, std::span<NodeId> out) {
  DG_CHECK(offsets.size() + 1 == begin_.size() && offsets.back() == targets.size());
  base_arcs_ = targets.size();
  const NodeId* const old = targets.data();
  NodeId* dst = out.data();
  std::size_t from = 0;  // first old arc not yet copied
  for (const NodeId v : touched_) {
    std::size_t i = offsets[v];
    const std::size_t end = offsets[v + 1];
    dst = std::copy(old + from, old + i, dst);
    for (std::size_t c = begin_[v]; c < begin_[v + 1]; ++c) {
      Change& change = changes_[c];
      while (i < end && old[i] < change.neighbor) *dst++ = old[i++];
      const bool live = i < end && old[i] == change.neighbor;
      // A removed edge must have been present, an inserted one absent.
      DG_CHECK(live == (change.inserted == 0));
      change.old_arc = i;
      if (change.inserted != 0) {
        *dst++ = change.neighbor;
      } else {
        ++i;
      }
    }
    from = i;
  }
  dst = std::copy(old + from, old + targets.size(), dst);
  DG_CHECK(dst == out.data() + out.size());
}

}  // namespace dyngossip
