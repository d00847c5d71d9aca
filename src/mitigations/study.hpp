// §5 mitigation study harness.
//
// Runs the rowhammer primitive (direct hammering of one cross-partition
// triple) and, optionally, the full Figure 3 exploit under each proposed
// mitigation, and reports whether the attack still works:
//   * SECDED ECC on device DRAM        ("strengthening ECC")
//   * TRR (vs double-sided and vs many-sided evasion)
//   * faster refresh (2× / 4×)         ("prohibitively power-hungry")
//   * an FTL CPU cache                 ("SSDs could enable caches")
//   * NVMe I/O rate limiting
//   * keyed (hashed) L2P layout        ("randomize the FTL-internal
//     structures … with a device-specific key")
//   * extent-tree enforcement in the filesystem
//   * T10-style per-block reference tags
//   * per-LBA (XTS-style) encryption
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attack/end_to_end.hpp"
#include "ssd/ssd_device.hpp"

namespace rhsd {

struct MitigationScenario {
  std::string name;
  std::string paper_note;  // what §5 says about it
  std::function<void(SsdConfig&)> configure_ssd = nullptr;
  std::function<void(fs::FormatOptions&)> configure_fs = nullptr;
  std::function<void(EndToEndConfig&)> configure_attack = nullptr;
  /// If true, the attacker is assumed NOT to know the device's L2P
  /// randomization key and plans against a linear layout.
  bool attacker_blind_to_layout = false;
};

struct MitigationResult {
  std::string name;
  // Primitive level: hammer one triple for a fixed budget.
  std::uint64_t primitive_flips = 0;
  double primitive_hammer_iops = 0.0;
  // Visible attack outcome.
  bool e2e_success = false;
  /// The §3.2 "data corruption" outcome: the victim filesystem broke
  /// under the flips (or the mitigation turned redirects into hard
  /// errors) before any leak.
  bool e2e_fs_corrupted = false;
  std::uint32_t e2e_cycles = 0;
  double e2e_sim_seconds = 0.0;
  std::uint32_t cross_partition_triples = 0;
  // Device-side counters that explain *why*.
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_uncorrectable = 0;
  std::uint64_t trr_refreshes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t reference_tag_mismatches = 0;
  std::uint64_t scrub_runs = 0;
  std::uint64_t scrub_repairs = 0;  // L2P entries the scrub fixed
};

class MitigationStudy {
 public:
  /// The standard scenario list (baseline first).
  [[nodiscard]] static std::vector<MitigationScenario> StandardScenarios();

  /// Run one scenario on a fresh host.  `base` is the unmitigated SSD
  /// configuration the scenario mutates.  When `run_e2e` is false only
  /// the hammering primitive is measured (cheaper).
  [[nodiscard]] static MitigationResult Run(const MitigationScenario& s,
                                            const SsdConfig& base,
                                            const EndToEndConfig& attack,
                                            bool run_e2e);
};

}  // namespace rhsd
