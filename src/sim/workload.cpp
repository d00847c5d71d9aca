#include "sim/workload.hpp"

#include <cmath>

#include "common/check.hpp"

namespace rhsd {
namespace {

/// kHotCold: share of operations that go to the hot blocks.
constexpr double kHotAccessFraction = 0.9;
/// kBursty: a kBurstFraction share of ops continue a burst (a sequential
/// run from a random start, its length uniform in [1, kBurstLen]); the
/// rest scatter uniformly (the "idle" background noise a real tenant's
/// gaps still carry).
constexpr std::uint64_t kBurstLen = 64;
constexpr double kBurstFraction = 0.9;

}  // namespace

const char* to_string(AccessPattern pattern) {
  switch (pattern) {
    case AccessPattern::kSequential: return "sequential";
    case AccessPattern::kRandom: return "random";
    case AccessPattern::kZipfLike: return "zipf-like";
    case AccessPattern::kHotCold: return "hot/cold";
    case AccessPattern::kBursty: return "bursty";
  }
  return "unknown";
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config)
    : config_(config), rng_(config.seed) {
  RHSD_CHECK(config_.working_set > 0);
  RHSD_CHECK(config_.write_fraction >= 0.0 &&
             config_.write_fraction <= 1.0);
  RHSD_CHECK(config_.zipf_skew >= 1.0);
  RHSD_CHECK(config_.hot_fraction > 0.0 && config_.hot_fraction < 1.0);
}

std::uint64_t WorkloadGenerator::next_address() {
  const std::uint64_t ws = config_.working_set;
  switch (config_.pattern) {
    case AccessPattern::kSequential: {
      const std::uint64_t address = sequential_cursor_;
      sequential_cursor_ = (sequential_cursor_ + 1) % ws;
      return address;
    }
    case AccessPattern::kRandom:
      return rng_.next_below(ws);
    case AccessPattern::kZipfLike: {
      // Power-law skew: address = floor(ws * u^skew).  Not an exact
      // Zipf inversion, but produces the operative property — a small
      // set of addresses receives most of the traffic — with O(1) state.
      const double u = rng_.next_double();
      const auto address = static_cast<std::uint64_t>(
          static_cast<double>(ws) * std::pow(u, config_.zipf_skew));
      return address < ws ? address : ws - 1;
    }
    case AccessPattern::kHotCold: {
      const auto hot_blocks = static_cast<std::uint64_t>(
          std::max(1.0, static_cast<double>(ws) * config_.hot_fraction));
      if (rng_.next_bool(kHotAccessFraction)) {
        return rng_.next_below(hot_blocks);
      }
      if (hot_blocks >= ws) return rng_.next_below(ws);
      return hot_blocks + rng_.next_below(ws - hot_blocks);
    }
    case AccessPattern::kBursty: {
      if (!rng_.next_bool(kBurstFraction)) {
        return rng_.next_below(ws);  // off-phase background scatter
      }
      if (burst_left_ == 0) {
        burst_left_ = rng_.next_in(1, kBurstLen);
        burst_cursor_ = rng_.next_below(ws);
      }
      const std::uint64_t address = burst_cursor_;
      burst_cursor_ = (burst_cursor_ + 1) % ws;
      --burst_left_;
      return address;
    }
  }
  RHSD_CHECK_MSG(false, "unknown access pattern");
  return 0;
}

WorkloadOp WorkloadGenerator::next() {
  WorkloadOp op;
  op.is_write = rng_.next_bool(config_.write_fraction);
  op.slba = next_address();
  return op;
}

std::vector<WorkloadOp> WorkloadGenerator::generate(std::uint64_t n) {
  std::vector<WorkloadOp> ops;
  ops.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) ops.push_back(next());
  return ops;
}

}  // namespace rhsd
