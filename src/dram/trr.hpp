// Target Row Refresh (TRR) tracker.
//
// §5 lists TRR among mitigations; the paper's testbed explicitly lacks it
// ("the emulation environment doesn't support ECC or TRR", §4.1).  We
// model an in-DRAM sampler as a Misra–Gries heavy-hitter table per bank:
// rows whose activation count crosses the threshold get their neighbors
// target-refreshed.  Bounded tracker capacity is what TRRespass [17]
// exploits — many-sided patterns thrash the table — and the mitigation
// bench demonstrates exactly that evasion.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"

namespace rhsd {

/// One target-refresh fired during a batched advance(): the 1-based
/// activation index within the replayed pattern, and the aggressor row
/// whose neighbors must be refreshed.
struct TrrEmission {
  std::uint64_t index = 0;
  std::uint32_t row = 0;
};

struct TrrConfig {
  /// Heavy-hitter table entries per bank (real devices track very few —
  /// TRRespass [17] found 1..4 on most parts).
  std::uint32_t trackers_per_bank = 4;
  /// Activations after which a tracked aggressor's neighbors are
  /// target-refreshed.  Must be well below the DRAM's flip threshold for
  /// the mitigation to be effective.
  std::uint64_t activation_threshold = 20'000;
  /// How far (in rows) the targeted refresh reaches around a hot
  /// aggressor.  1 = classic TRR (evaded by Half-Double's distance-2
  /// aggressors); 2 = the hardened variant that also recharges the
  /// rows two away.
  std::uint32_t refresh_distance = 1;
};

class TrrTracker {
 public:
  TrrTracker(TrrConfig config, std::uint32_t num_banks);

  /// Record an activation of `row` in `bank`.  Returns the aggressor row
  /// whose neighbors must be target-refreshed now, if any.
  [[nodiscard]] std::optional<std::uint32_t> on_activate(std::uint32_t bank,
                                                         std::uint32_t row);

  /// Batched replay: `events` activations of the fixed alternating
  /// pattern row_a, row_b, row_a, ... against `bank`'s table in one
  /// call (row_a == row_b replays a one-location pattern).  Returns the
  /// target-refresh emissions in activation order and leaves the table
  /// and refreshes_issued() exactly as `events` scalar on_activate()
  /// calls would have.  Under a fixed two-row pattern the Misra–Gries
  /// dynamics either absorb both rows (every later activation is a pure
  /// counter increment — closed form) or settle into a short cycle
  /// (the TRRespass thrash regime — detected and fast-forwarded), so
  /// the cost is O(transient + emissions), not O(events).
  [[nodiscard]] std::vector<TrrEmission> advance(
      std::uint32_t bank, std::uint32_t row_a, std::uint32_t row_b,
      std::uint64_t events);

  /// Batched replay of a periodic multi-row command stream: the bank
  /// sees `cmd_rows[0]` activated `repeat` times, then `cmd_rows[1]`
  /// `repeat` times, ..., wrapping around the list, for `events` total
  /// activations.  This is the shape an FTL read pattern produces (each
  /// command hammers one row `hammers_per_io` times).  Returns emissions
  /// with bank-local 1-based activation indices; table state and
  /// refreshes_issued() end exactly as `events` scalar on_activate()
  /// calls would.  Same complexity argument as advance(): the table
  /// either absorbs every pattern row (per-row closed-form fold) or
  /// cycles (detected and fast-forwarded).
  [[nodiscard]] std::vector<TrrEmission> advance_cmds(
      std::uint32_t bank, std::span<const std::uint32_t> cmd_rows,
      std::uint64_t repeat, std::uint64_t events);

  /// Clear all per-window state (call at refresh-window boundaries).
  void reset();

  [[nodiscard]] std::uint64_t refreshes_issued() const {
    return refreshes_issued_;
  }

 private:
  TrrConfig config_;
  // Misra–Gries summary per bank: row -> counter.
  std::vector<std::unordered_map<std::uint32_t, std::uint64_t>> tables_;
  std::uint64_t refreshes_issued_ = 0;
};

}  // namespace rhsd
