// Token-bucket I/O rate limiter.
//
// §5: "Rate-limiting user IOs below the rowhammering access rate can
// also remove this potential attack, but it is at odds with the overall
// performance goals of NVMe."  The limiter does not reject commands; it
// stalls them (advancing simulated time) until a token is available, so
// the *effective* access rate at the FTL stays below the configured cap.
#pragma once

#include <cstdint>
#include <optional>

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

  /// The limiter's fixed point for commands sent `service_ns` after
  /// the previous one's stall: the last acquire was `service_ns` before
  /// `now_ns`, and one acquire(now_ns) would leave the tokens unchanged.
  /// acquire() depends only on the tokens and that gap, so from there
  /// every later acquire repeats bit-identically.  A drained bucket
  /// (each command stalls the same) and a full one that refills faster
  /// than commands drain it (none stalls) are both fixed points.
  /// Returns the repeating stall, or nullopt off the fixed point.  Pure.
  [[nodiscard]] std::optional<std::uint64_t> steady_stall(
      SimClock::Nanos now_ns, std::uint64_t service_ns) const;

  /// Commit a run of acquires from the fixed point steady_stall() found,
  /// each stalling `stall_ns`, the last at `last_cmd_ns`: the state that
  /// many acquire() calls would leave (the tokens never change).
  void skip_steady(SimClock::Nanos last_cmd_ns, std::uint64_t stall_ns) {
    last_ns_ = last_cmd_ns + stall_ns;
  }

 private:
  RateLimiterConfig config_;
  double tokens_ = 0.0;
  SimClock::Nanos last_ns_ = 0;
};

}  // namespace rhsd
