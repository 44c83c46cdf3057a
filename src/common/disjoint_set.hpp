// Disjoint-set union (union-find) with path halving and union by size.
//
// The Section-2 lower-bound adversary uses it to count the connected
// components of the free-edge graph F(r) and to patch them together with the
// minimum number of extra edges (ℓ−1 non-free edges connect ℓ components).
// Round-graph checks and repairs use ConnectivityChecker's reusable BFS
// (graph/connectivity.hpp), whose tests take this DSU as their reference.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"

namespace dyngossip {

/// Classic DSU over elements [0, n).
class DisjointSet {
 public:
  /// n singleton sets.
  explicit DisjointSet(std::size_t n = 0);

  /// Resets to n singleton sets.
  void reset(std::size_t n);

  /// Number of elements.
  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }

  /// Representative of x's set (path halving; amortized near-O(1)).
  [[nodiscard]] std::size_t find(std::size_t x) noexcept;

  /// Merges the sets of a and b; returns true iff they were distinct.
  bool unite(std::size_t a, std::size_t b) noexcept;

  /// True iff a and b are in the same set.
  [[nodiscard]] bool connected(std::size_t a, std::size_t b) noexcept {
    return find(a) == find(b);
  }

  /// Number of disjoint sets currently present.
  [[nodiscard]] std::size_t component_count() const noexcept { return components_; }

  /// Size of the set containing x.
  [[nodiscard]] std::size_t component_size(std::size_t x) noexcept {
    return size_[find(x)];
  }

  /// One representative element per component, in increasing order.
  [[nodiscard]] std::vector<std::size_t> representatives();

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t components_ = 0;
};

}  // namespace dyngossip
