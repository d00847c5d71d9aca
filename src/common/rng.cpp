#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace rhsd {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  return Mix64(state);
}

std::uint64_t Mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  RHSD_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = bound * (UINT64_MAX / bound);
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % bound;
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) {
  RHSD_CHECK(lo <= hi);
  return lo + next_below(hi - lo + 1);
}

std::uint64_t Rng::bool_threshold(double p) {
  RHSD_CHECK(p > 0.0 && p < 1.0);
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

namespace {

/// The generator's state transition (next() without its output) is
/// linear over GF(2); a power of it is stored by columns: col[j] is the
/// image of state bit j (word j / 64, bit j % 64).
struct JumpMatrix {
  std::uint64_t col[256][4];
};

constexpr unsigned kJumpLevels = 32;  // M^(2^k) for k < 32

void ApplyJump(const JumpMatrix& m, std::uint64_t (&s)[4]) {
  std::uint64_t out[4] = {0, 0, 0, 0};
  for (unsigned w = 0; w < 4; ++w) {
    for (std::uint64_t bits = s[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t* c = m.col[w * 64 + std::countr_zero(bits)];
      for (unsigned i = 0; i < 4; ++i) out[i] ^= c[i];
    }
  }
  std::memcpy(s, out, sizeof out);
}

// GCC dispatches target_clones through an ifunc resolver, which runs at
// load time, before the ThreadSanitizer runtime is up, and crashes a
// -fsanitize=thread binary; that build keeps the default clone only.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define RHSD_LANE_CLONES __attribute__((target_clones("avx512f", "default")))
#else
#define RHSD_LANE_CLONES
#endif

using U64x8 = std::uint64_t __attribute__((vector_size(64)));

/// Draws per lane between two tests for a hit in any lane.
constexpr std::uint64_t kLaneSteps = 4;

/// Steps 16 xoshiro256** states `block` draws each (block a multiple of
/// kLaneSteps).  lanes[w][l] is state word w of lane l; lanes 0-7 and
/// 8-15 run as one 8 x u64 vector per word.  Lane l's draw j (0-based)
/// hits when (x >> 11) < threshold and is appended to `hits` as index
/// first + l * block + j + 1, step-major (not sorted).  The lanes' end
/// states are stored back.  No vector type appears in the signature, so
/// both clones share one ABI.
RHSD_LANE_CLONES void ScanLanes(std::uint64_t (&lanes)[4][16],
                                std::uint64_t threshold, std::uint64_t block,
                                std::uint64_t first,
                                std::vector<std::uint64_t>& hits) {
  U64x8 a0, a1, a2, a3, b0, b1, b2, b3;
  std::memcpy(&a0, &lanes[0][0], sizeof a0);
  std::memcpy(&a1, &lanes[1][0], sizeof a1);
  std::memcpy(&a2, &lanes[2][0], sizeof a2);
  std::memcpy(&a3, &lanes[3][0], sizeof a3);
  std::memcpy(&b0, &lanes[0][8], sizeof b0);
  std::memcpy(&b1, &lanes[1][8], sizeof b1);
  std::memcpy(&b2, &lanes[2][8], sizeof b2);
  std::memcpy(&b3, &lanes[3][8], sizeof b3);
  // Rng::next() on 8 lanes; `out` gets the draws' x >> 11.
  const auto next = [](U64x8& s0, U64x8& s1, U64x8& s2, U64x8& s3,
                       U64x8& out) {
    const U64x8 x = s1 * 5;
    out = (((x << 7) | (x >> 57)) * 9) >> 11;
    const U64x8 t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);
  };
  for (std::uint64_t j = 0; j < block; j += kLaneSteps) {
    U64x8 r[kLaneSteps][2];
#pragma GCC unroll 4
    for (std::uint64_t k = 0; k < kLaneSteps; ++k) {
      next(a0, a1, a2, a3, r[k][0]);
      next(b0, b1, b2, b3, r[k][1]);
    }
    // Hits are rare (1/1024 per draw under PARA): one test per
    // kLaneSteps * 16 draws, on the smallest of them.
    U64x8 lo = r[0][0];
#pragma GCC unroll 8
    for (std::uint64_t i = 1; i < 2 * kLaneSteps; ++i) {
      const U64x8& v = r[i / 2][i % 2];
      lo = lo < v ? lo : v;
    }
    for (const U64x8 swap : {U64x8{4, 5, 6, 7, 0, 1, 2, 3},
                             U64x8{2, 3, 0, 1, 6, 7, 4, 5},
                             U64x8{1, 0, 3, 2, 5, 4, 7, 6}}) {
      const U64x8 v = __builtin_shuffle(lo, swap);
      lo = lo < v ? lo : v;
    }
    if (lo[0] >= threshold) continue;
    for (std::uint64_t k = 0; k < kLaneSteps; ++k) {
      for (std::uint64_t l = 0; l < 16; ++l) {
        if (r[k][l / 8][l % 8] < threshold) {
          hits.push_back(first + l * block + j + k + 1);
        }
      }
    }
  }
  std::memcpy(&lanes[0][0], &a0, sizeof a0);
  std::memcpy(&lanes[1][0], &a1, sizeof a1);
  std::memcpy(&lanes[2][0], &a2, sizeof a2);
  std::memcpy(&lanes[3][0], &a3, sizeof a3);
  std::memcpy(&lanes[0][8], &b0, sizeof b0);
  std::memcpy(&lanes[1][8], &b1, sizeof b1);
  std::memcpy(&lanes[2][8], &b2, sizeof b2);
  std::memcpy(&lanes[3][8], &b3, sizeof b3);
}

}  // namespace

void Rng::advance_pow2(unsigned k) {
  RHSD_CHECK(k < kJumpLevels);
  static const std::vector<JumpMatrix> powers = [] {
    std::vector<JumpMatrix> m(kJumpLevels);
    for (unsigned j = 0; j < 256; ++j) {
      Rng unit(0);
      std::memset(unit.s_, 0, sizeof unit.s_);
      unit.s_[j / 64] = std::uint64_t{1} << (j % 64);
      (void)unit.next();
      std::memcpy(m[0].col[j], unit.s_, sizeof unit.s_);
    }
    // M^(2^(i+1)) = M^(2^i) * M^(2^i), column by column.
    for (unsigned i = 1; i < kJumpLevels; ++i) {
      for (unsigned j = 0; j < 256; ++j) {
        std::memcpy(m[i].col[j], m[i - 1].col[j], sizeof m[i].col[j]);
        ApplyJump(m[i - 1], m[i].col[j]);
      }
    }
    return m;
  }();
  ApplyJump(powers[k], s_);
}

std::uint64_t Rng::bernoulli_lanes(std::uint64_t threshold, std::uint64_t n,
                                   std::vector<std::uint64_t>& hits) {
  std::uint64_t done = 0;
  while (n - done >= 16 * kMinLaneBlock) {
    const auto k = std::min<unsigned>(
        static_cast<unsigned>(std::bit_width((n - done) / 16)) - 1,
        kJumpLevels - 1);
    const std::uint64_t block = std::uint64_t{1} << k;
    std::uint64_t lanes[4][16];
    for (unsigned l = 0; l < 16; ++l) {
      if (l > 0) advance_pow2(k);
      for (unsigned w = 0; w < 4; ++w) lanes[w][l] = s_[w];
    }
    const std::size_t tail = hits.size();
    ScanLanes(lanes, threshold, block, done, hits);
    std::sort(hits.begin() + static_cast<std::ptrdiff_t>(tail), hits.end());
    for (unsigned w = 0; w < 4; ++w) s_[w] = lanes[w][15];
    done += 16 * block;
  }
  return done;
}

void Rng::bernoulli_hits(std::uint64_t threshold, std::uint64_t n,
                         std::vector<std::uint64_t>& hits) {
  const std::uint64_t done =
      n >= 16 * kMinLaneBlock ? bernoulli_lanes(threshold, n, hits) : 0;
  // The loop runs on a local copy of the state, which the compiler keeps
  // in registers: its address never escapes, so the push_back cannot
  // alias it.
  Rng local = *this;
  for (std::uint64_t i = done + 1; i <= n; ++i) {
    if (local.next_bool_at(threshold)) hits.push_back(i);
  }
  *this = local;
}

}  // namespace rhsd
