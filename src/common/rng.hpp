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
  /// would.  Calls of at least 16 * kMinLaneBlock draws scan in 16
  /// lanes: the next 16B draws (B the largest power of two that fits,
  /// up to 2^31) split into 16 consecutive blocks of B, lane l starting
  /// l*B draws ahead through advance_pow2(), all lanes stepped together
  /// in vector registers (AVX-512 where the CPU has it), their hits
  /// sorted back into draw order; the scan repeats from lane 15's end
  /// state.  What remains runs the loop above on a register copy of
  /// the state.  Any threshold, including those >= 2^53 that every draw
  /// meets, gives the loop's result.
  void bernoulli_hits(std::uint64_t threshold, std::uint64_t n,
                      std::vector<std::uint64_t>& hits);
  static constexpr std::uint64_t kMinLaneBlock = 256;

  /// Advance the generator by 2^k draws (k < 32) without drawing: one
  /// multiplication of the state by the precomputed 2^k-th power of the
  /// generator's transition matrix over GF(2).  The 32 powers (256 KiB)
  /// are built on the first call in the process.
  void advance_pow2(unsigned k);

  bool operator==(const Rng&) const = default;

 private:
  /// bernoulli_hits()'s 16-lane passes over the first of `n` draws:
  /// appends their hits, advances the generator past them and returns
  /// how many draws they took.  Kept apart so that bernoulli_hits()'s
  /// scalar loop runs on a copy whose address never escapes.
  std::uint64_t bernoulli_lanes(std::uint64_t threshold, std::uint64_t n,
                                std::vector<std::uint64_t>& hits);

  std::uint64_t s_[4];
};

/// SplitMix64 step — also useful as a cheap 64-bit mixer/hash.
[[nodiscard]] std::uint64_t SplitMix64(std::uint64_t& state);

/// Stateless mix of a 64-bit value (SplitMix64 finalizer).  Inline:
/// XTS whitening runs it once per 8-byte word and the XOR address
/// mapper once per decode.
[[nodiscard]] inline std::uint64_t Mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace rhsd
