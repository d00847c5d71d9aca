// Set-associative cache in front of the DRAM.
//
// §2.3: "in our experience … the internal DRAM is not cached … no caching
// makes the DRAM more prone to rowhammering, as caches reduce DRAM access
// frequency."  The default SSD configuration therefore has *no* cache;
// this model exists for the §5 mitigation study ("SSDs could enable
// caches on the internal CPUs"), where enabling it absorbs the repeated
// L2P lookups and starves the hammer.
//
// Tag-only model: it decides whether an access reaches DRAM (activation)
// but data always comes from the DRAM arrays, so disturbance flips are
// never masked by staleness.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace rhsd {

struct CacheConfig {
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 8;
  std::uint32_t sets = 128;  // 64 KiB total with the defaults

  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(line_bytes) * ways * sets;
  }
};

class CacheModel {
 public:
  explicit CacheModel(CacheConfig config);

  /// Look up the line containing `addr`; fills on miss. True on hit.
  bool access(DramAddr addr);

  /// Drop the line containing `addr` (write-invalidate path).
  void invalidate(DramAddr addr);

  /// Residency probe without LRU/stat side effects (batched-replay
  /// planning: a pattern whose lines are all resident stays all-hit).
  [[nodiscard]] bool contains(DramAddr addr) const;

  /// Batched-replay accounting: charge `n` hits exactly as `n` scalar
  /// access() calls would (hit counter and use counter both advance).
  /// Callers then pin each touched line's last-use stamp with
  /// set_last_use so the LRU state matches the scalar interleaving.
  void account_hits(std::uint64_t n) {
    hits_ += n;
    use_counter_ += n;
  }

  /// Set the last-use stamp of the resident line containing `addr`.
  void set_last_use(DramAddr addr, std::uint64_t stamp);

  [[nodiscard]] std::uint64_t use_counter() const { return use_counter_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }

 private:
  struct Line {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // last-use stamp
  };

  [[nodiscard]] std::uint64_t line_id(DramAddr addr) const {
    return addr.value() / config_.line_bytes;
  }

  CacheConfig config_;
  std::vector<Line> lines_;  // sets * ways
  std::uint64_t use_counter_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace rhsd
