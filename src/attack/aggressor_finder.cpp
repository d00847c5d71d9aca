#include "attack/aggressor_finder.hpp"

#include <unordered_set>

namespace rhsd {

std::vector<TripleSet> AggressorFinder::all_triples() const {
  const DramGeometry& g = map_.geometry();
  std::unordered_set<std::uint64_t> occupied(map_.rows().begin(),
                                             map_.rows().end());
  std::vector<TripleSet> out;
  for (const std::uint64_t row : map_.rows()) {
    const std::uint64_t in_bank = row % g.rows_per_bank;
    if (in_bank == 0 || in_bank + 1 == g.rows_per_bank) continue;
    if (occupied.count(row - 1) != 0 && occupied.count(row + 1) != 0) {
      out.push_back(TripleSet{row - 1, row, row + 1});
    }
  }
  return out;
}

bool AggressorFinder::row_has_lpn_in(std::uint64_t row,
                                     const LpnRange& range) const {
  for (const std::uint64_t lpn : map_.lpns_in_row(row)) {
    if (range.contains(lpn)) return true;
  }
  return false;
}

std::vector<TripleSet> AggressorFinder::cross_partition_triples(
    const LpnRange& attacker, const LpnRange& victim) const {
  std::vector<TripleSet> out;
  for (const TripleSet& t : all_triples()) {
    if (row_has_lpn_in(t.left_row, attacker) &&
        row_has_lpn_in(t.right_row, attacker) &&
        row_has_lpn_in(t.victim_row, victim)) {
      out.push_back(t);
    }
  }
  return out;
}

std::vector<TripleSet> AggressorFinder::half_double_triples(
    const LpnRange& attacker, const LpnRange& victim) const {
  const DramGeometry& g = map_.geometry();
  std::vector<TripleSet> out;
  for (const std::uint64_t row : map_.rows()) {
    const std::uint64_t in_bank = row % g.rows_per_bank;
    if (in_bank < 2 || in_bank + 2 >= g.rows_per_bank) continue;
    if (!row_has_lpn_in(row, victim)) continue;
    if (row_has_lpn_in(row - 2, attacker) &&
        row_has_lpn_in(row + 2, attacker)) {
      out.push_back(TripleSet{row - 1, row, row + 1});
    }
  }
  return out;
}

bool AggressorFinder::pick_lpn(std::uint64_t row, const LpnRange& range,
                               std::uint64_t& lpn_out) const {
  for (const std::uint64_t lpn : map_.lpns_in_row(row)) {
    if (range.contains(lpn)) {
      lpn_out = lpn;
      return true;
    }
  }
  return false;
}

}  // namespace rhsd
