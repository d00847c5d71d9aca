// DRAM vulnerability profiles, calibrated against the paper's Table 1.
//
// Table 1 surveys the minimal total access rate (in K accesses/second)
// reported in the literature to trigger bitflips, per DRAM generation.
// A profile converts that rate into an *effective hammer threshold*: the
// number of effective aggressor activations inside one refresh window
// (64 ms) at which the weakest cells of a vulnerable row start flipping.
//
// Derivation: a double-sided attack at total rate R splits evenly, so
// each aggressor gets A = R·W/2 activations per window W.  With the
// double-sided weighting H = max + w·min (disturbance_model.hpp) the
// effective exposure is H = (1+w)·R·W/2, so the calibrated threshold is
//   base = (1+w)/2 · R_min · W.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rhsd {

struct DramProfile {
  /// Weight of the weaker aggressor side: H = max + w·min.  w = 3 makes
  /// a balanced double-sided pattern 4× as effective per access as
  /// single-sided, matching "single-sided attacks flip fewer bits".
  static constexpr double kDoubleSidedWeight = 3.0;

  std::string name;      // e.g. "DDR4 (new)"
  std::string refs;      // paper citation keys, e.g. "[17, 25]"
  int year = 0;          // publication year in Table 1
  double min_rate_kaccess_s = 3000.0;  // Table 1 column, K accesses/sec

  double refresh_interval_ms = 64.0;

  /// Manufacturing variation: fraction of rows with any vulnerable cell.
  double vulnerable_row_fraction = 0.25;
  /// Max vulnerable cells in a vulnerable row (uniform 1..max).
  std::uint32_t max_cells_per_row = 3;
  /// Per-cell thresholds span [base, base·(1+spread)], skewed low.
  double threshold_spread = 3.0;
  /// Half-Double coupling (Qazi et al. [42], cited in §2.2): fraction of
  /// a distance-2 row's activations that leak disturbance into the
  /// victim.  0 disables (pre-2021 parts); newer, smaller-node parts
  /// show ~0.05–0.15.  Distance-2 aggressors evade TRR implementations
  /// that only refresh immediate neighbors.
  double half_double_weight = 0.0;

  /// Effective activations per refresh window at which the weakest cells
  /// flip (see file comment for the calibration).
  [[nodiscard]] double base_threshold_acts() const {
    const double window_s = refresh_interval_ms * 1e-3;
    return (1.0 + kDoubleSidedWeight) / 2.0 * min_rate_kaccess_s * 1000.0 *
           window_s;
  }

  /// The paper's testbed DIMMs: DDR3 showing flips from direct accesses
  /// at ~3 M/s (§4.1).
  [[nodiscard]] static DramProfile Testbed();
  /// A conservative modern DDR4 part (Table 1, 2020, "DDR4 (new)").
  [[nodiscard]] static DramProfile Ddr4New();
  /// An invulnerable control profile (threshold far above any real rate).
  [[nodiscard]] static DramProfile Invulnerable();
};

/// All fourteen rows of Table 1, in paper order.
[[nodiscard]] const std::vector<DramProfile>& Table1Profiles();

}  // namespace rhsd
