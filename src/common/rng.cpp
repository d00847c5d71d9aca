#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

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

double Rng::next_gaussian() {
  // Box–Muller; u1 in (0,1] so log() stays finite.
  double u1;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::next_lognormal(double mu, double sigma) {
  return std::exp(mu + sigma * next_gaussian());
}

std::uint64_t Rng::bool_threshold(double p) {
  RHSD_CHECK(p > 0.0 && p < 1.0);
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

Rng Rng::fork() { return Rng(next()); }

void Rng::bernoulli_hits(std::uint64_t threshold, std::uint64_t n,
                         std::vector<std::uint64_t>& hits) {
  Rng local = *this;
  for (std::uint64_t i = 1; i <= n; ++i) {
    if (local.next_bool_at(threshold)) hits.push_back(i);
  }
  *this = local;
}

}  // namespace rhsd
