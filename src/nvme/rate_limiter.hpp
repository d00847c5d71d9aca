// Token-bucket I/O rate limiter.
//
// §5: "Rate-limiting user IOs below the rowhammering access rate can
// also remove this potential attack, but it is at odds with the overall
// performance goals of NVMe."  The limiter does not reject commands; it
// stalls them (advancing simulated time) until a token is available, so
// the *effective* access rate at the FTL stays below the configured cap.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "common/sim_clock.hpp"

namespace rhsd {

struct RateLimiterConfig {
  double max_iops = 500e3;  // sustained command rate cap
  double burst = 64;        // bucket depth in commands
};

class RateLimiter {
 public:
  explicit RateLimiter(RateLimiterConfig config) : config_(config) {
    RHSD_CHECK(config_.max_iops > 0.0);
    RHSD_CHECK(config_.burst >= 1.0);
    tokens_ = config_.burst;
  }

  /// Account one command at the current simulated time. Returns the
  /// stall in nanoseconds the caller must apply before servicing it.
  [[nodiscard]] std::uint64_t acquire(SimClock::Nanos now_ns);

  /// Fast-forward `k` steady-state acquires that each stall exactly
  /// `stall_ns`, the last one at `last_cmd_ns`.  Callers may use this
  /// only in the drained fixed point (two consecutive stalling
  /// acquires with a constant inter-command gap), where every acquire
  /// repeats bit-identically: the bucket stays at zero tokens and the
  /// refill elapsed time is the constant gap, so this produces the
  /// exact state `k` scalar acquire() calls would.
  void skip_steady(std::uint64_t k, std::uint64_t stall_ns,
                   SimClock::Nanos last_cmd_ns) {
    tokens_ = 0.0;
    last_ns_ = last_cmd_ns + stall_ns;
    total_stall_ns_ += k * stall_ns;
  }

  [[nodiscard]] std::uint64_t total_stall_ns() const {
    return total_stall_ns_;
  }
  [[nodiscard]] const RateLimiterConfig& config() const { return config_; }

 private:
  RateLimiterConfig config_;
  double tokens_ = 0.0;
  SimClock::Nanos last_ns_ = 0;
  std::uint64_t total_stall_ns_ = 0;
};

}  // namespace rhsd
