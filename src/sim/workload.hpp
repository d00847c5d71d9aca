// Synthetic workload generator.
//
// §2.1 motivates the FTL with real SSD duties — mapping, garbage
// collection, wear — which only show up under realistic I/O mixes.  The
// generator produces the classic storage patterns (sequential, uniform
// random, zipf-like skew, hot/cold) used by the FTL behaviour bench to
// measure write amplification and wear spread, and by tests as a fuzz
// source.  Fully deterministic per seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace rhsd {

enum class AccessPattern {
  kSequential,  // wrap-around linear sweep
  kRandom,      // uniform over the working set
  kZipfLike,    // power-law skew toward low addresses
  kHotCold,     // hot_fraction of blocks gets 90% of ops
  kBursty,      // on/off phases: bursts of sequential runs, idle-ish gaps
};

[[nodiscard]] const char* to_string(AccessPattern pattern);

struct WorkloadConfig {
  AccessPattern pattern = AccessPattern::kRandom;
  /// Number of distinct block addresses drawn from [0, working_set).
  std::uint64_t working_set = 4096;
  /// Fraction of operations that are writes (rest are reads).
  double write_fraction = 1.0;
  /// kZipfLike: larger skew concentrates more mass on low addresses
  /// (address = floor(ws * u^skew), u uniform).
  double zipf_skew = 4.0;
  /// kHotCold: fraction of the working set that is hot.
  double hot_fraction = 0.1;
  std::uint64_t seed = 1;
};

struct WorkloadOp {
  bool is_write = true;
  std::uint64_t slba = 0;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadConfig config);

  /// Produce the next operation.
  [[nodiscard]] WorkloadOp next();

  /// Produce the next `n` operations as a script — the common shape the
  /// cloud benches and event-loop tests feed queue pairs from.
  [[nodiscard]] std::vector<WorkloadOp> generate(std::uint64_t n);

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }

 private:
  [[nodiscard]] std::uint64_t next_address();

  WorkloadConfig config_;
  Rng rng_;
  std::uint64_t sequential_cursor_ = 0;
  /// kBursty state: ops left in the current burst and its cursor.
  std::uint64_t burst_left_ = 0;
  std::uint64_t burst_cursor_ = 0;
};

}  // namespace rhsd
