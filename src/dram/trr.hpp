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
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace rhsd {

/// One target-refresh fired during a batched advance_cmds(): the 1-based
/// activation index within the replayed stream, and the aggressor row
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

  /// Batched replay of a periodic command stream: the bank sees
  /// `cmd_rows[0]` activated `repeat` times, then `cmd_rows[1]` `repeat`
  /// times, ..., wrapping around the list, for `events` total
  /// activations.  One row is one-location hammering, two alternating
  /// rows are a double-sided pair, more are an FTL read pattern (each
  /// command hammers one row `hammers_per_io` times) or a many-sided
  /// one.  Replaces `out` with the emissions, in order, with bank-local
  /// 1-based activation indices; the table and refreshes_issued() end
  /// exactly as `events` scalar on_activate() calls would leave them.
  /// Under a fixed periodic stream the Misra–Gries table either absorbs
  /// every stream row (every later activation is a pure counter
  /// increment: a closed-form fold per row) or settles into a cycle
  /// (the TRRespass thrash regime: detected and fast-forwarded), so the
  /// cost is O(transient + emissions), not O(events).
  void advance_cmds(std::uint32_t bank,
                    std::span<const std::uint32_t> cmd_rows,
                    std::uint64_t repeat, std::uint64_t events,
                    std::vector<TrrEmission>& out);

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
  // advance_cmds() scratch, kept for its storage: (row, command index)
  // of one period, sorted; and the transient states seen so far
  // (serialized state -> (activation index, emissions recorded)), empty
  // between calls.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> by_row_;
  std::unordered_map<std::string, std::pair<std::uint64_t, std::size_t>>
      cycle_states_;
};

}  // namespace rhsd
