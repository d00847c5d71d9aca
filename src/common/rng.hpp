// Deterministic randomness for the simulation.
//
// Every stochastic element (DRAM manufacturing variation, workload
// placement, Monte-Carlo trials) draws from an explicitly seeded Rng so
// that all experiments reproduce bit-for-bit.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace rhsd {

/// xoshiro256** seeded via SplitMix64. Small, fast, well distributed.
/// The hot draws (next/next_double/next_bool) are inline: PARA-style
/// mitigations consume one per DRAM activation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform in [lo, hi]. Requires lo <= hi.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// True with probability p (clamped to [0,1]).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Precomputed threshold for tight next_bool(p) loops with p in (0,1).
  /// next_bool(p) == next_bool_at(bool_threshold(p)) draw for draw:
  /// next_double() = (next() >> 11) * 2^-53 and p * 2^53 are both exact
  /// (power-of-two scaling), so "next_double() < p" is the integer
  /// comparison "(next() >> 11) < ceil(p * 2^53)".
  [[nodiscard]] static std::uint64_t bool_threshold(double p);

  /// One Bernoulli draw against a bool_threshold() value.
  bool next_bool_at(std::uint64_t threshold) {
    return (next() >> 11) < threshold;
  }

  /// `n` next_bool_at(threshold) draws in one call: appends the 1-based
  /// index of every true draw to `hits` in ascending order and leaves
  /// the generator where the loop
  ///   for (i = 1..n) if (next_bool_at(threshold)) hits.push_back(i);
  /// would.  The loop runs on a local copy of the state, which the
  /// compiler keeps in registers; on a member Rng, the loop above
  /// reloads and stores the state around every draw, because the
  /// push_back might alias it.
  void bernoulli_hits(std::uint64_t threshold, std::uint64_t n,
                      std::vector<std::uint64_t>& hits);

  /// Standard normal via Box–Muller (one value per call; no caching so
  /// the stream position stays easy to reason about).
  double next_gaussian();

  /// Log-normal with the given parameters of the underlying normal.
  double next_lognormal(double mu, double sigma);

  /// Derive an independent child generator (for per-subsystem streams).
  Rng fork();

 private:
  std::uint64_t s_[4];
};

/// SplitMix64 step — also useful as a cheap 64-bit mixer/hash.
[[nodiscard]] std::uint64_t SplitMix64(std::uint64_t& state);

/// Stateless mix of a 64-bit value (SplitMix64 finalizer).
[[nodiscard]] std::uint64_t Mix64(std::uint64_t x);

}  // namespace rhsd
