// The hammering workload (§3.1, Figure 1).
//
// "Our attack workload repeatedly issues a read request sequence that
// alternates between addresses whose L2P table entries reside in the two
// aggressor rows. The result is a series of repeated, frequent, and
// alternating row activations by the firmware, effectively inducing a
// double-sided rowhammering attack on the target row."
//
// The orchestrator turns (aggressor row → hammer LBA) picks into plain
// NVMe read commands through a tenant's namespace — the attacker only
// ever uses the device as intended.  Modes: double-sided (default),
// single-sided, one-location (§3.1's simpler variant), and many-sided
// (the TRRespass-style TRR evasion used by the mitigation study).
#pragma once

#include <cstdint>
#include <vector>

#include "attack/aggressor_finder.hpp"
#include "cloud/tenant.hpp"
#include "common/status.hpp"

namespace rhsd {

enum class HammerMode {
  kDoubleSided,
  kSingleSided,
  kOneLocation,
  kManySided,
  /// Qazi et al.'s Half-Double ([42], cited in §2.2): aggressors sit
  /// two rows away from the victim, so TRR's distance-1 neighbor
  /// refreshes never recharge it.  Only effective on parts with
  /// nonzero half_double_weight (newer technology nodes).
  kHalfDouble,
};

[[nodiscard]] const char* to_string(HammerMode mode);

struct HammerStats {
  std::uint64_t reads_issued = 0;
  std::uint64_t sim_ns_spent = 0;
  std::uint64_t flips_before = 0;
  std::uint64_t flips_after = 0;

  [[nodiscard]] std::uint64_t new_flips() const {
    return flips_after - flips_before;
  }
  [[nodiscard]] double achieved_iops() const {
    return sim_ns_spent == 0
               ? 0.0
               : static_cast<double>(reads_issued) * 1e9 /
                     static_cast<double>(sim_ns_spent);
  }
};

class HammerOrchestrator {
 public:
  /// `tenant` is the attacker VM (needs direct access); `finder`/`map`
  /// are the offline knowledge.  `attacker_range` are the device LPNs
  /// the tenant can address (its partition).
  HammerOrchestrator(Tenant& tenant, const AggressorFinder& finder,
                     LpnRange attacker_range)
      : tenant_(tenant), finder_(finder), attacker_range_(attacker_range) {}

  /// Issue reads hammering `triple` for `duration_s` simulated seconds,
  /// after trimming the hammer LBAs so the reads skip flash (§3:
  /// "attackers with direct access to unmapped/trimmed blocks may
  /// accelerate access rates").  Returns stats; NotFound if no usable
  /// hammer LBA exists in a needed row.  (Flip counts in the stats come
  /// from device instrumentation — experiment bookkeeping, not attacker
  /// knowledge.)
  StatusOr<HammerStats> hammer_triple(const TripleSet& triple,
                                      HammerMode mode, double duration_s);

 private:
  /// Namespace-relative LBA for a device LPN.
  [[nodiscard]] std::uint64_t to_slba(std::uint64_t lpn) const {
    return lpn - attacker_range_.first;
  }

  Tenant& tenant_;
  const AggressorFinder& finder_;
  LpnRange attacker_range_;
};

}  // namespace rhsd
