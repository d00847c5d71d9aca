// Finding double-sided aggressor/victim row sets.
//
// §4.2: "The remaining challenge is getting a victim row between two
// aggressor rows, when the L2P table is a simple physical partition…
// modern memory controllers use a mapping function to spread DRAM
// accesses across different hardware units … we were able to identify 32
// sets of three vulnerable rows that could potentially place the victim
// row in a separate memory partition from the aggressors."
//
// Given the offline L2pRowMap and the partition split, the finder
// enumerates contiguous in-bank row triples (v-1, v, v+1) where the
// aggressor rows hold entries the attacker can drive (its own partition,
// readable at full rate) and the victim row holds entries of the victim
// partition.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/row_templating.hpp"
#include "common/types.hpp"

namespace rhsd {

/// A candidate double-sided hammer set.
struct TripleSet {
  std::uint64_t left_row = 0;    // aggressor
  std::uint64_t victim_row = 0;  // target
  std::uint64_t right_row = 0;   // aggressor

  friend bool operator==(const TripleSet&, const TripleSet&) = default;
};

/// Half-open LPN interval [first, last).
struct LpnRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;

  [[nodiscard]] bool contains(std::uint64_t lpn) const {
    return lpn >= first && lpn < last;
  }
};

class AggressorFinder {
 public:
  explicit AggressorFinder(const L2pRowMap& map) : map_(map) {}

  [[nodiscard]] const L2pRowMap& map() const { return map_; }

  /// All contiguous in-bank triples whose three rows each hold at least
  /// one L2P entry.
  [[nodiscard]] std::vector<TripleSet> all_triples() const;

  /// Triples where both aggressor rows contain entries inside
  /// `attacker` (LBAs the attacker may read at full rate) and the victim
  /// row contains at least one entry inside `victim`.
  [[nodiscard]] std::vector<TripleSet> cross_partition_triples(
      const LpnRange& attacker, const LpnRange& victim) const;

  /// Half-Double placement ([42]): victim rows holding `victim` entries
  /// whose *distance-2* rows hold `attacker` entries (the driven rows).
  /// The returned TripleSet is victim-centered (left/right are the
  /// immediate neighbors; the orchestrator's kHalfDouble mode derives
  /// the distance-2 rows from it).  Whether such sets exist at all
  /// depends on the DRAM remap: parity-alternating maps have none,
  /// period-4 ("AABB") maps have them everywhere.
  [[nodiscard]] std::vector<TripleSet> half_double_triples(
      const LpnRange& attacker, const LpnRange& victim) const;

  /// Pick an LPN in `row` ∩ `range` usable as a hammer address; returns
  /// false if none exists.
  [[nodiscard]] bool pick_lpn(std::uint64_t row, const LpnRange& range,
                              std::uint64_t& lpn_out) const;

 private:
  [[nodiscard]] bool row_has_lpn_in(std::uint64_t row,
                                    const LpnRange& range) const;

  const L2pRowMap& map_;
};

}  // namespace rhsd
