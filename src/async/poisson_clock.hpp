// Per-node Poisson clocks for the asynchronous engine plane.
//
// The asynchronous rumor-spreading model (Pourmiri–Mans, PAPERS.md) gives
// every node an independent rate-λ Poisson clock: the node acts at the
// arrival times of its own Poisson process, i.e. after i.i.d. Exp(λ)
// inter-activation gaps.  PoissonClock samples those gaps by inverse CDF —
// gap = -ln(1 - u) / λ — with u drawn from a *position-keyed* SplitMix64
// hash of (trial seed, node, activation index), the same determinism
// contract as fault/fault_plan.hpp: no decision ever consumes shared stream
// state, so the gap sequence of node v is a pure function of (seed, v) and
// is unperturbed by how many other nodes exist, what order events pop, or
// how many threads the surrounding sweep uses.
//
// Every body lives in this header: the event loop draws one gap and up to
// three position hashes per activation.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace dyngossip {

/// Position-keyed 64-bit hash: SplitMix64 over (seed ^ salt, a, b).  The
/// shared primitive behind every stochastic decision of the async plane
/// (clock gaps, neighbor picks, token picks) — pure, stateless, and
/// therefore evaluation-order independent.
[[nodiscard]] inline std::uint64_t position_hash(std::uint64_t seed,
                                                 std::uint64_t salt,
                                                 std::uint64_t a,
                                                 std::uint64_t b = 0) noexcept {
  // Fold each coordinate through a full SplitMix64 step (golden-ratio
  // stride keeps adjacent positions decorrelated), then draw once more so
  // the returned bits mix all four inputs.
  std::uint64_t state = seed ^ salt;
  state += 0x9e3779b97f4a7c15ull * (a + 1);
  state ^= splitmix64(state);  // xor the mixed a-fold back in: (a, b) ≠ (b, a)
  state += 0x9e3779b97f4a7c15ull * (b + 1);
  return splitmix64(state);
}

/// Uniform double in [0, 1) from 53 high bits of a position hash.
[[nodiscard]] inline double position_uniform01(std::uint64_t seed,
                                               std::uint64_t salt,
                                               std::uint64_t a,
                                               std::uint64_t b = 0) noexcept {
  return static_cast<double>(position_hash(seed, salt, a, b) >> 11) *
         0x1.0p-53;
}

/// The exponential-gap sampler of one trial's clocks.  All nodes share the
/// rate λ (the model's homogeneous case); per-node streams are separated by
/// hashing the node id into the position key.
class PoissonClock {
 public:
  /// `seed` is the trial's SplitMix64 stream seed; `rate` is λ > 0 in
  /// activations per clock unit.
  PoissonClock(std::uint64_t seed, double rate) noexcept
      : seed_(seed), rate_(rate) {}

  /// The gap between node v's activation `index` and its predecessor
  /// (index 0 is the gap from time 0 to the first activation).  Strictly
  /// positive; Exp(rate)-distributed over the index/node/seed space.
  [[nodiscard]] double gap(NodeId v, std::uint64_t index) const noexcept {
    const double u = position_uniform01(seed_, kClockSalt,
                                        static_cast<std::uint64_t>(v), index);
    // Inverse CDF of Exp(rate).  u in [0, 1) makes 1 - u in (0, 1], so
    // -log1p(-u) is finite and >= 0; the +tiny floor keeps gaps strictly
    // positive (two activations of one node never share a timestamp).
    const double g = -std::log1p(-u) / rate_;
    return g > 0.0 ? g : 0x1.0p-60 / rate_;
  }

  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  /// Salt separating the clock-gap stream from the engine's choice streams.
  static constexpr std::uint64_t kClockSalt = 0xc10c4a5a11ee7ull;

  std::uint64_t seed_;
  double rate_;
};

}  // namespace dyngossip
