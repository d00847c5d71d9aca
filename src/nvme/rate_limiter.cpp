#include "nvme/rate_limiter.hpp"

#include <algorithm>
#include <cmath>

namespace rhsd {

std::uint64_t RateLimiter::acquire(SimClock::Nanos now_ns) {
  // Refill since last acquire.
  if (now_ns > last_ns_) {
    const double elapsed_s = static_cast<double>(now_ns - last_ns_) * 1e-9;
    tokens_ = std::min(config_.burst, tokens_ + elapsed_s * config_.max_iops);
  }
  last_ns_ = now_ns;

  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return 0;
  }
  // Stall until one token accumulates.  Ceil: truncating toward zero
  // while also zeroing tokens_ discarded the fractional token already
  // accumulated during the (short) stall, so a sustained stall train
  // admitted slightly more than max_iops.  tokens_ stays exactly 0.0, so
  // a drained bucket is a fixed point (see steady_stall()).
  const double deficit = 1.0 - tokens_;
  const auto stall_ns = static_cast<std::uint64_t>(
      std::ceil(deficit / config_.max_iops * 1e9));
  tokens_ = 0.0;
  last_ns_ = now_ns + stall_ns;
  return stall_ns;
}

std::optional<std::uint64_t> RateLimiter::steady_stall(
    SimClock::Nanos now_ns, std::uint64_t service_ns) const {
  if (now_ns - last_ns_ != service_ns) return std::nullopt;
  RateLimiter next = *this;
  const std::uint64_t stall_ns = next.acquire(now_ns);
  if (next.tokens_ != tokens_) return std::nullopt;
  return stall_ns;
}

}  // namespace rhsd
