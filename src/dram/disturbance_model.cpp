#include "dram/disturbance_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace rhsd {
namespace {

/// Eagerly probing every row costs one RNG construction + one draw per
/// row; fine for test/demo geometries, too slow to pay up front for the
/// paper's 2M-row testbed (which is then filled lazily on first touch).
constexpr std::uint64_t kEagerProbeLimit = 1ull << 18;

}  // namespace

DisturbanceModel::DisturbanceModel(DramProfile profile, std::uint64_t seed,
                                   std::uint32_t row_bytes,
                                   std::uint64_t total_rows)
    : profile_(std::move(profile)),
      seed_(seed),
      row_bytes_(row_bytes),
      total_rows_(total_rows),
      flags_(total_rows, 0),
      min_threshold_(total_rows, std::numeric_limits<double>::infinity()) {
  RHSD_CHECK(row_bytes_ > 0);
  RHSD_CHECK(total_rows_ > 0);
  if (total_rows_ <= kEagerProbeLimit) {
    for (std::uint64_t row = 0; row < total_rows_; ++row) probe(row);
  }
}

bool DisturbanceModel::probe(std::uint64_t global_row) {
  RHSD_CHECK(global_row < total_rows_);
  // Same RNG stream as generate(): the vulnerability verdict is its
  // first draw, so probing and generating can never disagree.
  Rng rng(Mix64(seed_ ^ Mix64(global_row * 0x9E3779B97F4A7C15ull)));
  const bool vulnerable = rng.next_bool(profile_.vulnerable_row_fraction);
  flags_[global_row] |= kProbed | (vulnerable ? kVulnerable : 0);
  return vulnerable;
}

const std::vector<VulnCell>& DisturbanceModel::cells(
    std::uint64_t global_row) {
  RHSD_CHECK(global_row < total_rows_);
  std::uint8_t& f = flags_[global_row];
  if (!(f & kProbed)) probe(global_row);
  if (!(f & kVulnerable)) return no_cells_;
  if (!(f & kGenerated)) {
    std::vector<VulnCell> generated = generate(global_row);
    RHSD_CHECK(!generated.empty());
    min_threshold_[global_row] = generated.front().threshold;
    f |= kGenerated;
    return cells_.emplace(global_row, std::move(generated)).first->second;
  }
  return cells_.at(global_row);
}

std::vector<VulnCell> DisturbanceModel::generate(
    std::uint64_t global_row) const {
  // Deterministic per (device seed, row): the same device always has the
  // same weak cells, which is what makes offline templating (§4.2)
  // meaningful.
  Rng rng(Mix64(seed_ ^ Mix64(global_row * 0x9E3779B97F4A7C15ull)));
  std::vector<VulnCell> cells;
  if (!rng.next_bool(profile_.vulnerable_row_fraction)) return cells;

  const std::uint32_t count =
      1 + static_cast<std::uint32_t>(
              rng.next_below(std::max(1u, profile_.max_cells_per_row)));
  const double base = profile_.base_threshold_acts();
  cells.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    VulnCell cell;
    cell.byte_offset = static_cast<std::uint32_t>(rng.next_below(row_bytes_));
    cell.bit = static_cast<std::uint8_t>(rng.next_below(8));
    cell.failure_value = static_cast<std::uint8_t>(rng.next_below(2));
    // Quadratic skew toward the base threshold so that at least some
    // cells in a population sit essentially at the calibrated minimum.
    const double u = rng.next_double();
    cell.threshold = base * (1.0 + profile_.threshold_spread * u * u);
    cells.push_back(cell);
  }
  std::sort(cells.begin(), cells.end(),
            [](const VulnCell& a, const VulnCell& b) {
              return a.threshold < b.threshold;
            });
  return cells;
}

double DisturbanceModel::effective_hammer(std::uint64_t left_acts,
                                          std::uint64_t right_acts) const {
  const double hi = static_cast<double>(std::max(left_acts, right_acts));
  const double lo = static_cast<double>(std::min(left_acts, right_acts));
  return hi + DramProfile::kDoubleSidedWeight * lo;
}

}  // namespace rhsd
