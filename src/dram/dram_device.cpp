#include "dram/dram_device.hpp"

#include <algorithm>
#include <cstring>

#include "dram/ecc.hpp"

namespace rhsd {
namespace {

std::uint64_t LoadWord(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

void StoreWord(std::uint8_t* p, std::uint64_t w) {
  std::memcpy(p, &w, sizeof(w));
}

// Insertion-ordered set of row ids with O(1) membership past a small
// size.  The pattern-replay paths key several per-row side tables by
// distinct row: typical patterns are a handful of rows, where a linear
// scan over a flat vector wins, but nothing bounds them — TRRespass-
// style many-sided patterns run to hundreds — so past kLinearRows the
// index lazily builds a hash map and lookups stay O(1).
class RowIndex {
 public:
  /// Index of `row` in insertion order, or -1 if absent.
  [[nodiscard]] int find(std::uint64_t row) const {
    if (index_.empty()) {
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (keys_[i] == row) return static_cast<int>(i);
      }
      return -1;
    }
    const auto it = index_.find(row);
    return it == index_.end() ? -1 : static_cast<int>(it->second);
  }
  /// Index of `row`, appending it if absent; *inserted reports which.
  std::size_t insert(std::uint64_t row, bool* inserted = nullptr) {
    const int i = find(row);
    if (i >= 0) {
      if (inserted != nullptr) *inserted = false;
      return static_cast<std::size_t>(i);
    }
    keys_.push_back(row);
    if (!index_.empty()) {
      index_.emplace(row, keys_.size() - 1);
    } else if (keys_.size() > kLinearRows) {
      index_.reserve(2 * keys_.size());
      for (std::size_t j = 0; j < keys_.size(); ++j) {
        index_.emplace(keys_[j], j);
      }
    }
    if (inserted != nullptr) *inserted = true;
    return keys_.size() - 1;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const {
    return keys_;
  }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

 private:
  static constexpr std::size_t kLinearRows = 16;
  std::vector<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

}  // namespace

DramDevice::DramDevice(DramConfig config,
                       std::unique_ptr<AddressMapper> mapper, SimClock& clock)
    : config_(std::move(config)),
      mapper_(std::move(mapper)),
      clock_(clock),
      disturbance_(config_.profile, config_.seed, config_.geometry.row_bytes,
                   config_.geometry.total_rows()) {
  RHSD_CHECK(mapper_ != nullptr);
  RHSD_CHECK_MSG(mapper_->geometry().total_bytes() ==
                     config_.geometry.total_bytes(),
                 "mapper geometry mismatch");
  RHSD_CHECK_MSG(config_.geometry.row_bytes % 8 == 0,
                 "row size must be a multiple of the ECC word");
  const double interval_ms =
      config_.mitigations.refresh_interval_ms_override > 0.0
          ? config_.mitigations.refresh_interval_ms_override
          : config_.profile.refresh_interval_ms;
  RHSD_CHECK(interval_ms > 0.0);
  window_ns_ = static_cast<std::uint64_t>(interval_ms * 1e6);
  if (config_.mitigations.trr) {
    trr_.emplace(config_.mitigations.trr_config,
                 config_.geometry.total_banks());
  }
  if (config_.mitigations.cache.has_value()) {
    cache_.emplace(*config_.mitigations.cache);
  }
  RHSD_CHECK(config_.mitigations.para_probability >= 0.0 &&
             config_.mitigations.para_probability <= 1.0);
  para_rng_ = Rng(Mix64(config_.seed ^ 0x9A7A5EED));
  const double para_p = config_.mitigations.para_probability;
  if (para_p > 0.0 && para_p < 1.0) {
    para_threshold_ = Rng::bool_threshold(para_p);
  }
  if (config_.row_buffer_policy == RowBufferPolicy::kOpenPage) {
    open_rows_.assign(config_.geometry.total_banks(), ~0ull);
  }
  const std::uint64_t total_rows = config_.geometry.total_rows();
  row_window_.assign(total_rows, ~0ull);
  row_acts_.assign(total_rows, 0);
  row_data_.resize(total_rows);
  neighbor_refresh_active_ = config_.mitigations.trr ||
                             config_.mitigations.para_probability > 0.0;
}

void DramDevice::roll_window(std::uint64_t global_row) {
  const std::uint64_t w = current_window();
  if (row_window_[global_row] != w) {
    row_window_[global_row] = w;
    row_acts_[global_row] = 0;
  }
}

DramDevice::RowData& DramDevice::materialize(std::uint64_t global_row) {
  std::unique_ptr<RowData>& p = row_data_[global_row];
  if (!p) {
    p = std::make_unique<RowData>();
    p->data.assign(config_.geometry.row_bytes, 0);
    if (config_.mitigations.ecc) {
      // SecdedEncode(0) == 0, so zero-filled check bytes are consistent.
      p->ecc.assign(config_.geometry.row_bytes / 8, 0);
    }
  }
  return *p;
}

DramDevice::RefreshBases DramDevice::bases_of(
    std::uint64_t global_row) const {
  // Baselines are only ever written by targeted refreshes, which only
  // TRR and PARA issue; with neither enabled every row's baselines are
  // identically zero and the lookup is skipped.
  if (!neighbor_refresh_active_) return RefreshBases{};
  const auto it = refresh_bases_.find(global_row);
  if (it == refresh_bases_.end() || it->second.window != current_window()) {
    return RefreshBases{};  // stale entries read as zeros (window rolled)
  }
  return it->second;
}

bool DramDevice::para_decide() {
  if (config_.mitigations.para_probability >= 1.0) return true;
  return para_rng_.next_bool_at(para_threshold_);
}

template <typename Fn>
std::uint64_t DramDevice::para_events(std::uint64_t events, Fn&& at) {
  if (config_.mitigations.para_probability >= 1.0) {
    for (std::uint64_t e = 1; e <= events; ++e) at(e);
    return events;
  }
  para_hits_.clear();
  para_rng_.bernoulli_hits(para_threshold_, events, para_hits_);
  for (const std::uint64_t e : para_hits_) at(e);
  return para_hits_.size();
}

std::uint64_t DramDevice::acts_now(std::uint64_t global_row) {
  roll_window(global_row);
  return row_acts_[global_row];
}

std::optional<std::uint64_t> DramDevice::neighbor(std::uint64_t global_row,
                                                  int delta) const {
  const auto in_bank = static_cast<std::int64_t>(
      global_row % config_.geometry.rows_per_bank);
  const auto target = in_bank + delta;
  if (target < 0 ||
      target >= static_cast<std::int64_t>(config_.geometry.rows_per_bank)) {
    return std::nullopt;
  }
  return global_row + static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(delta));
}

void DramDevice::activate(std::uint64_t global_row) {
  if (config_.row_buffer_policy == RowBufferPolicy::kOpenPage) {
    // Row-buffer hit: the row is already open, no wordline activation —
    // and therefore no disturbance on the neighbors.
    const std::uint64_t bank =
        global_row / config_.geometry.rows_per_bank;
    if (open_rows_[bank] == global_row) {
      ++stats_.row_buffer_hits;
      return;
    }
    open_rows_[bank] = global_row;
  }
  ++stats_.activations;
  roll_window(global_row);
  ++row_acts_[global_row];

  if (trr_.has_value()) {
    const std::uint64_t w = current_window();
    if (w != trr_window_) {
      trr_->reset();
      trr_window_ = w;
    }
    const auto bank = static_cast<std::uint32_t>(
        global_row / config_.geometry.rows_per_bank);
    const auto row_in_bank = static_cast<std::uint32_t>(
        global_row % config_.geometry.rows_per_bank);
    if (auto fired = trr_->on_activate(bank, row_in_bank)) {
      const std::uint64_t fired_global =
          static_cast<std::uint64_t>(bank) * config_.geometry.rows_per_bank +
          *fired;
      target_refresh_neighbors(fired_global,
                               config_.mitigations.trr_config
                                   .refresh_distance);
    }
    stats_.trr_refreshes = trr_->refreshes_issued();
  }
  if (config_.mitigations.para_probability > 0.0 && para_decide()) {
    // PARA: stateless probabilistic neighbor refresh.
    target_refresh_neighbors(global_row, /*distance=*/1);
    ++stats_.para_refreshes;
  }

  if (auto left = neighbor(global_row, -1)) check_victim(*left);
  if (auto right = neighbor(global_row, +1)) check_victim(*right);
  if (disturbance_.profile().half_double_weight > 0.0) {
    // Half-Double coupling reaches two rows out ([42]).
    if (auto left2 = neighbor(global_row, -2)) check_victim(*left2);
    if (auto right2 = neighbor(global_row, +2)) check_victim(*right2);
  }
}

void DramDevice::target_refresh_neighbors(
    std::uint64_t aggressor_global_row, std::uint32_t distance) {
  for (std::uint32_t d = 1; d <= distance; ++d) {
    for (const int sign : {-1, +1}) {
      auto victim =
          neighbor(aggressor_global_row, sign * static_cast<int>(d));
      if (!victim.has_value()) continue;
      // Refresh recharges the victim's cells: exposure accumulated so
      // far no longer counts, which we express by re-baselining against
      // the neighbors' current per-window activation counts.
      RefreshBases nb;
      nb.window = current_window();
      if (auto l = neighbor(*victim, -1)) nb.left = acts_now(*l);
      if (auto r = neighbor(*victim, +1)) nb.right = acts_now(*r);
      if (auto l2 = neighbor(*victim, -2)) nb.left2 = acts_now(*l2);
      if (auto r2 = neighbor(*victim, +2)) nb.right2 = acts_now(*r2);
      refresh_bases_[*victim] = nb;
    }
  }
}

void DramDevice::check_victim(std::uint64_t victim) {
  // Flat early-outs: one byte load rejects invulnerable rows, one
  // double compare rejects under-threshold exposures; the cell list is
  // only materialized past both.
  if (!disturbance_.row_is_vulnerable(victim)) return;

  const RefreshBases bases = bases_of(victim);
  std::uint64_t left_acts = 0;
  std::uint64_t right_acts = 0;
  if (auto l = neighbor(victim, -1)) left_acts = acts_now(*l);
  if (auto r = neighbor(victim, +1)) right_acts = acts_now(*r);
  left_acts = left_acts > bases.left ? left_acts - bases.left : 0;
  right_acts = right_acts > bases.right ? right_acts - bases.right : 0;

  double exposure =
      disturbance_.effective_hammer(left_acts, right_acts);
  const double hd_weight = disturbance_.profile().half_double_weight;
  if (hd_weight > 0.0) {
    std::uint64_t left2 = 0;
    std::uint64_t right2 = 0;
    if (auto l2 = neighbor(victim, -2)) left2 = acts_now(*l2);
    if (auto r2 = neighbor(victim, +2)) right2 = acts_now(*r2);
    left2 = left2 > bases.left2 ? left2 - bases.left2 : 0;
    right2 = right2 > bases.right2 ? right2 - bases.right2 : 0;
    exposure += hd_weight * static_cast<double>(left2 + right2);
  }
  if (exposure < disturbance_.min_threshold(victim)) return;

  const auto& cells = disturbance_.cells(victim);
  RowData& rd = materialize(victim);
  for (const VulnCell& cell : cells) {
    if (exposure < cell.threshold) break;  // sorted ascending
    std::uint8_t& byte = rd.data[cell.byte_offset];
    const std::uint8_t current = (byte >> cell.bit) & 1u;
    if (current == cell.failure_value) continue;  // already decayed
    if (cell.failure_value) {
      byte = static_cast<std::uint8_t>(byte | (1u << cell.bit));
    } else {
      byte = static_cast<std::uint8_t>(byte & ~(1u << cell.bit));
    }
    ++stats_.bitflips;
    // Deliberately *not* updating ECC: the flip happens underneath the
    // code, which is exactly what lets ECC catch it.
    flip_events_.push_back(FlipEvent{.time_ns = clock_.now_ns(),
                                     .global_row = victim,
                                     .byte_offset = cell.byte_offset,
                                     .bit = cell.bit,
                                     .new_value = cell.failure_value});
  }
}

void DramDevice::hammer_pair(std::uint64_t row_a, std::uint64_t row_b,
                             std::uint64_t pairs) {
  hammer_events(row_a, row_b, pairs * 2);
}

void DramDevice::hammer_row(std::uint64_t global_row, std::uint64_t count) {
  hammer_events(global_row, global_row, count);
}

void DramDevice::hammer_pair_scalar(std::uint64_t row_a, std::uint64_t row_b,
                                    std::uint64_t pairs) {
  for (std::uint64_t i = 0; i < pairs; ++i) {
    activate(row_a);
    activate(row_b);
  }
}

void DramDevice::hammer_row_scalar(std::uint64_t global_row,
                                   std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) activate(global_row);
}

void DramDevice::hammer_events(std::uint64_t a, std::uint64_t b,
                               std::uint64_t events) {
  RHSD_CHECK(a < config_.geometry.total_rows());
  RHSD_CHECK(b < config_.geometry.total_rows());
  if (events == 0) return;

  if (config_.row_buffer_policy == RowBufferPolicy::kOpenPage) {
    if (a == b) {
      // One row: at most the first access activates, the rest hit the
      // row buffer (activate() resolves hit-vs-conflict itself).
      activate(a);
      stats_.row_buffer_hits += events - 1;
      return;
    }
    const std::uint64_t bank_a = a / config_.geometry.rows_per_bank;
    const std::uint64_t bank_b = b / config_.geometry.rows_per_bank;
    if (bank_a != bank_b) {
      // Different banks: the rows never evict each other, so only the
      // first access to each can activate.
      activate(a);
      if (events >= 2) activate(b);
      stats_.row_buffer_hits += events - std::min<std::uint64_t>(events, 2);
      return;
    }
    // Same bank: the alternation forces a conflict on every access —
    // unless row_a is already open, in which case only the very first
    // access hits and the remaining sequence starts from row_b.
    if (open_rows_[bank_a] == a) {
      ++stats_.row_buffer_hits;
      if (events > 1) hammer_events_all_activations(b, a, events - 1);
      return;
    }
  }
  hammer_events_all_activations(a, b, events);
}

void DramDevice::hammer_events_all_activations(std::uint64_t a,
                                               std::uint64_t b,
                                               std::uint64_t events) {
  if (trr_.has_value() || config_.mitigations.para_probability > 0.0) {
    hammer_events_mitigated(a, b, events);
  } else {
    hammer_events_fast(a, b, events);
  }
}

void DramDevice::hammer_events_fast(std::uint64_t a, std::uint64_t b,
                                    std::uint64_t events) {
  // Activation counts before the batch (rolls the aggressors' windows);
  // the per-event exposure reconstruction below is relative to these.
  const std::uint64_t a0_a = acts_now(a);
  const std::uint64_t a0_b = a == b ? a0_a : acts_now(b);

  stats_.activations += events;
  row_acts_[a] += a == b ? events : (events + 1) / 2;
  if (a != b) row_acts_[b] += events / 2;
  if (config_.row_buffer_policy == RowBufferPolicy::kOpenPage) {
    // The last access of the batch leaves its row open.
    open_rows_[a / config_.geometry.rows_per_bank] =
        (a == b || events % 2 != 0) ? a : b;
  }

  const int max_dist =
      disturbance_.profile().half_double_weight > 0.0 ? 2 : 1;

  // Unique victim rows within disturbance distance of either aggressor.
  std::uint64_t victims[8];
  int n_victims = 0;
  const auto add_victim = [&](std::optional<std::uint64_t> v) {
    if (!v.has_value()) return;
    for (int i = 0; i < n_victims; ++i) {
      if (victims[i] == *v) return;
    }
    victims[n_victims++] = *v;
  };
  for (int d = 1; d <= max_dist; ++d) {
    add_victim(neighbor(a, -d));
    add_victim(neighbor(a, +d));
    if (a != b) {
      add_victim(neighbor(b, -d));
      add_victim(neighbor(b, +d));
    }
  }

  std::vector<PendingFlip> pending;
  for (int i = 0; i < n_victims; ++i) {
    check_victim_batched(victims[i], a, b, events, a0_a, a0_b, {}, pending);
  }
  if (pending.empty()) return;

  // Restore scalar emission order: by activation event, then by the
  // check-slot order within one activation (left, right, left2,
  // right2).  stable_sort keeps each victim's per-check cell order.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingFlip& x, const PendingFlip& y) {
                     return x.event != y.event ? x.event < y.event
                                               : x.slot < y.slot;
                   });
  stats_.bitflips += pending.size();
  for (const PendingFlip& p : pending) flip_events_.push_back(p.flip);
}

void DramDevice::hammer_events_mitigated(std::uint64_t a, std::uint64_t b,
                                         std::uint64_t events) {
  // The clock is frozen for the whole batch, so the scalar path's lazy
  // per-activation TRR window roll collapses to one roll up front.
  const std::uint64_t w = current_window();
  if (trr_.has_value() && w != trr_window_) {
    trr_->reset();
    trr_window_ = w;
  }

  const std::uint64_t a0_a = acts_now(a);
  const std::uint64_t a0_b = a == b ? a0_a : acts_now(b);

  stats_.activations += events;
  row_acts_[a] += a == b ? events : (events + 1) / 2;
  if (a != b) row_acts_[b] += events / 2;
  if (config_.row_buffer_policy == RowBufferPolicy::kOpenPage) {
    open_rows_[a / config_.geometry.rows_per_bank] =
        (a == b || events % 2 != 0) ? a : b;
  }

  // Aggressor activation counts as a function of the 1-based event
  // index (row a is accessed at odd events, row b at even ones) — the
  // same reconstruction the closed-form victim check uses.
  const auto count_at_event = [&](std::uint64_t row, std::uint64_t e) {
    if (row == a) return a0_a + (a == b ? e : (e + 1) / 2);
    if (row == b) return a0_b + e / 2;
    return acts_now(row);
  };

  // -- Replay the mitigation state machines over the batch, collecting
  // every targeted refresh in scalar order (within one activation the
  // TRR fire precedes the PARA draw).
  struct RefreshPoint {
    std::uint64_t event = 0;
    std::uint64_t aggressor = 0;  // global row whose neighbors refresh
    std::uint32_t distance = 1;
  };
  std::vector<RefreshPoint> points;

  if (trr_.has_value()) {
    const std::uint64_t rows_per_bank = config_.geometry.rows_per_bank;
    const auto bank_a = static_cast<std::uint32_t>(a / rows_per_bank);
    const auto bank_b = static_cast<std::uint32_t>(b / rows_per_bank);
    const auto in_a = static_cast<std::uint32_t>(a % rows_per_bank);
    const auto in_b = static_cast<std::uint32_t>(b % rows_per_bank);
    const std::uint32_t dist =
        config_.mitigations.trr_config.refresh_distance;
    if (a == b || bank_a == bank_b) {
      for (const TrrEmission& em :
           trr_->advance(bank_a, in_a, a == b ? in_a : in_b, events)) {
        const std::uint64_t fired =
            static_cast<std::uint64_t>(bank_a) * rows_per_bank + em.row;
        points.push_back({em.index, fired, dist});
      }
    } else {
      // Different banks see independent single-row subsequences: a at
      // odd events (the odd half-length), b at even events.
      for (const TrrEmission& em :
           trr_->advance(bank_a, in_a, in_a, (events + 1) / 2)) {
        points.push_back({2 * em.index - 1, a, dist});
      }
      for (const TrrEmission& em :
           trr_->advance(bank_b, in_b, in_b, events / 2)) {
        points.push_back({2 * em.index, b, dist});
      }
    }
    stats_.trr_refreshes = trr_->refreshes_issued();
  }
  if (config_.mitigations.para_probability > 0.0) {
    // Replay the PARA stream in scalar order: exactly one decision per
    // activation, whatever TRR did at the same events.
    const auto para_at = [&](std::uint64_t e) {
      points.push_back({e, (a == b || e % 2 != 0) ? a : b, 1});
    };
    stats_.para_refreshes += para_events(events, para_at);
  }
  // Merge by event; at equal events the TRR fire was pushed first and
  // stable_sort keeps it ahead of the PARA refresh, matching scalar
  // order.  (Cross-bank TRR emissions never share an event.)
  std::stable_sort(points.begin(), points.end(),
                   [](const RefreshPoint& x, const RefreshPoint& y) {
                     return x.event < y.event;
                   });

  // -- Replay each refresh point's re-baselining.  The per-victim base
  // lists drive the segmented victim checks below; the refresh_bases_
  // map writes are deferred so those checks still read the pre-batch
  // baselines for their first segment.
  std::vector<std::pair<std::uint64_t, std::vector<VictimRefresh>>>
      refreshed;
  const auto refresh_list =
      [&](std::uint64_t row) -> std::vector<VictimRefresh>& {
    for (auto& [r, list] : refreshed) {
      if (r == row) return list;
    }
    refreshed.emplace_back(row, std::vector<VictimRefresh>{});
    return refreshed.back().second;
  };
  for (const RefreshPoint& rp : points) {
    for (std::uint32_t d = 1; d <= rp.distance; ++d) {
      for (const int sign : {-1, +1}) {
        const auto victim =
            neighbor(rp.aggressor, sign * static_cast<int>(d));
        if (!victim.has_value()) continue;
        RefreshBases nb;
        nb.window = w;
        if (auto l = neighbor(*victim, -1)) {
          nb.left = count_at_event(*l, rp.event);
        }
        if (auto r = neighbor(*victim, +1)) {
          nb.right = count_at_event(*r, rp.event);
        }
        if (auto l2 = neighbor(*victim, -2)) {
          nb.left2 = count_at_event(*l2, rp.event);
        }
        if (auto r2 = neighbor(*victim, +2)) {
          nb.right2 = count_at_event(*r2, rp.event);
        }
        auto& list = refresh_list(*victim);
        if (!list.empty() && list.back().event == rp.event) {
          list.back().bases = nb;  // TRR + PARA hit it at the same event
        } else {
          list.push_back(VictimRefresh{rp.event, nb});
        }
      }
    }
  }

  const int max_dist =
      disturbance_.profile().half_double_weight > 0.0 ? 2 : 1;
  std::uint64_t victims[8];
  int n_victims = 0;
  const auto add_victim = [&](std::optional<std::uint64_t> v) {
    if (!v.has_value()) return;
    for (int i = 0; i < n_victims; ++i) {
      if (victims[i] == *v) return;
    }
    victims[n_victims++] = *v;
  };
  for (int d = 1; d <= max_dist; ++d) {
    add_victim(neighbor(a, -d));
    add_victim(neighbor(a, +d));
    if (a != b) {
      add_victim(neighbor(b, -d));
      add_victim(neighbor(b, +d));
    }
  }

  std::vector<PendingFlip> pending;
  for (int i = 0; i < n_victims; ++i) {
    std::span<const VictimRefresh> segs;
    for (const auto& [row, list] : refreshed) {
      if (row == victims[i]) {
        segs = list;
        break;
      }
    }
    check_victim_batched(victims[i], a, b, events, a0_a, a0_b, segs,
                         pending);
  }

  // Now the deferred baseline writes: scalar leaves each refreshed row's
  // entry at its *last* refresh of the batch.
  for (const auto& [row, list] : refreshed) {
    refresh_bases_[row] = list.back().bases;
  }

  if (pending.empty()) return;
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingFlip& x, const PendingFlip& y) {
                     return x.event != y.event ? x.event < y.event
                                               : x.slot < y.slot;
                   });
  stats_.bitflips += pending.size();
  for (const PendingFlip& p : pending) flip_events_.push_back(p.flip);
}

void DramDevice::check_victim_batched(
    std::uint64_t victim, std::uint64_t a, std::uint64_t b,
    std::uint64_t events, std::uint64_t a0_a, std::uint64_t a0_b,
    std::span<const VictimRefresh> refreshes,
    std::vector<PendingFlip>& pending) {
  const double hd_weight = disturbance_.profile().half_double_weight;
  const int max_dist = hd_weight > 0.0 ? 2 : 1;

  // Which aggressors check this victim (i.e. the victim is within
  // disturbance distance, same bank)?  Row a is accessed at odd events,
  // row b at even events.
  const auto within_reach = [&](std::uint64_t agg) {
    for (int d = 1; d <= max_dist; ++d) {
      if (neighbor(agg, -d) == std::optional<std::uint64_t>(victim) ||
          neighbor(agg, +d) == std::optional<std::uint64_t>(victim)) {
        return true;
      }
    }
    return false;
  };
  const bool by_a = within_reach(a);
  const bool by_b = a != b && within_reach(b);
  const bool every_event = (a == b) || (by_a && by_b);

  // Check events, 1-based within the batch: all events, the odd ones
  // (a only), or the even ones (b only).
  std::uint64_t checks;  // number of check events
  if (every_event) {
    checks = events;
  } else if (by_a) {
    checks = (events + 1) / 2;
  } else {
    checks = events / 2;  // by_b only: first check is event 2
  }
  if (checks == 0) return;
  const auto event_of = [&](std::uint64_t k) {  // k-th check event, 1-based
    if (every_event) return k;
    return by_a ? 2 * k - 1 : 2 * k;
  };

  if (!disturbance_.row_is_vulnerable(victim)) return;

  // Neighbor activation counts as a function of the event index e: the
  // aggressors advance (a at odd e, b at even e), everything else is
  // frozen for the duration of the batch.
  struct NeighborCount {
    std::uint64_t base = 0;
    int kind = 0;  // 0 = static (or absent), 1 = row a, 2 = row b
  };
  const auto classify = [&](std::optional<std::uint64_t> n) {
    NeighborCount c;
    if (!n.has_value()) return c;  // bank edge: counts as zero
    if (*n == a) {
      c.kind = 1;
      c.base = a0_a;
    } else if (a != b && *n == b) {
      c.kind = 2;
      c.base = a0_b;
    } else {
      c.base = acts_now(*n);
    }
    return c;
  };
  const NeighborCount nl = classify(neighbor(victim, -1));
  const NeighborCount nr = classify(neighbor(victim, +1));
  const NeighborCount nl2 =
      max_dist == 2 ? classify(neighbor(victim, -2)) : NeighborCount{};
  const NeighborCount nr2 =
      max_dist == 2 ? classify(neighbor(victim, +2)) : NeighborCount{};
  const auto count_at = [&](const NeighborCount& c, std::uint64_t e) {
    if (c.kind == 1) return c.base + (a == b ? e : (e + 1) / 2);
    if (c.kind == 2) return c.base + e / 2;
    return c.base;
  };

  // Same arithmetic as the scalar check_victim, with e substituted for
  // "now" — bit-exact, including the uint64 sum in the Half-Double
  // term.  The baselines are a parameter: each targeted refresh of this
  // victim starts a new segment with its own re-baselined counts.
  const auto exposure_at = [&](std::uint64_t e, const RefreshBases& bases) {
    std::uint64_t left = count_at(nl, e);
    std::uint64_t right = count_at(nr, e);
    left = left > bases.left ? left - bases.left : 0;
    right = right > bases.right ? right - bases.right : 0;
    double exposure = disturbance_.effective_hammer(left, right);
    if (hd_weight > 0.0) {
      std::uint64_t left2 = count_at(nl2, e);
      std::uint64_t right2 = count_at(nr2, e);
      left2 = left2 > bases.left2 ? left2 - bases.left2 : 0;
      right2 = right2 > bases.right2 ? right2 - bases.right2 : 0;
      exposure += hd_weight * static_cast<double>(left2 + right2);
    }
    return exposure;
  };
  // Number of this victim's check events with event index <= e.
  const auto checks_up_to = [&](std::uint64_t e) {
    if (every_event) return e;
    return by_a ? (e + 1) / 2 : e / 2;
  };

  const auto& cells = disturbance_.cells(victim);
  RowData* rd = nullptr;

  // Check-slot of this victim at event e (position in the scalar
  // left/right/left2/right2 sequence of the activated row).
  const auto slot_at = [&](std::uint64_t e) {
    const std::uint64_t agg = (a == b || e % 2 != 0) ? a : b;
    const std::int64_t delta = static_cast<std::int64_t>(victim) -
                               static_cast<std::int64_t>(agg);
    switch (delta) {
      case -1: return 0;
      case +1: return 1;
      case -2: return 2;
      default: return 3;  // +2
    }
  };
  const auto emit = [&](const VulnCell& cell, std::uint64_t e) {
    std::uint8_t& byte = rd->data[cell.byte_offset];
    if (cell.failure_value) {
      byte = static_cast<std::uint8_t>(byte | (1u << cell.bit));
    } else {
      byte = static_cast<std::uint8_t>(byte & ~(1u << cell.bit));
    }
    pending.push_back(PendingFlip{
        .event = e,
        .slot = slot_at(e),
        .flip = FlipEvent{.time_ns = clock_.now_ns(),
                          .global_row = victim,
                          .byte_offset = cell.byte_offset,
                          .bit = cell.bit,
                          .new_value = cell.failure_value}});
  };

  // Walk the segments between consecutive targeted refreshes of this
  // victim.  A refresh at event r re-baselines *before* the victim
  // check of event r runs in the scalar path, so the segment boundary
  // is [r_prev, r-1], [r, ...].  Within one segment the baselines are
  // fixed and exposure is nondecreasing in e — the closed form applies
  // segment by segment.
  std::uint64_t seg_start = 1;
  RefreshBases bases = bases_of(victim);
  for (std::size_t si = 0;; ++si) {
    const std::uint64_t seg_end =
        si < refreshes.size() ? refreshes[si].event - 1 : events;
    // The k-range of this victim's checks inside [seg_start, seg_end].
    const std::uint64_t k_lo = checks_up_to(seg_start - 1) + 1;
    const std::uint64_t k_hi = std::min(checks, checks_up_to(seg_end));
    if (k_lo <= k_hi) {
      const double exposure_last = exposure_at(event_of(k_hi), bases);
      if (exposure_last >= disturbance_.min_threshold(victim)) {
        if (rd == nullptr) rd = &materialize(victim);

        // Two cells aliasing the same (byte, bit) with opposite failure
        // values re-flip each other at every check; the closed form
        // assumes each bit flips at most once per segment, so alias
        // cases replay the per-event loop exactly.
        bool aliased = false;
        for (std::size_t i = 0; i < cells.size() && !aliased; ++i) {
          if (cells[i].threshold > exposure_last) break;
          for (std::size_t j = i + 1; j < cells.size(); ++j) {
            if (cells[j].threshold > exposure_last) break;
            if (cells[i].byte_offset == cells[j].byte_offset &&
                cells[i].bit == cells[j].bit) {
              aliased = true;
              break;
            }
          }
        }
        if (aliased) {
          for (std::uint64_t k = k_lo; k <= k_hi; ++k) {
            const std::uint64_t e = event_of(k);
            const double exposure = exposure_at(e, bases);
            for (const VulnCell& cell : cells) {
              if (exposure < cell.threshold) break;
              const std::uint8_t current =
                  (rd->data[cell.byte_offset] >> cell.bit) & 1u;
              if (current == cell.failure_value) continue;
              emit(cell, e);
            }
          }
        } else {
          // Closed form: each crossing cell flips at the first check
          // event of the segment whose exposure reaches its threshold
          // (binary search over the monotone exposure), unless the bit
          // already holds its failure value.
          for (const VulnCell& cell : cells) {
            if (cell.threshold > exposure_last) break;  // sorted ascending
            const std::uint8_t current =
                (rd->data[cell.byte_offset] >> cell.bit) & 1u;
            if (current == cell.failure_value) continue;  // already decayed
            std::uint64_t lo = k_lo;
            std::uint64_t hi = k_hi;
            while (lo < hi) {
              const std::uint64_t mid = lo + (hi - lo) / 2;
              if (exposure_at(event_of(mid), bases) >= cell.threshold) {
                hi = mid;
              } else {
                lo = mid + 1;
              }
            }
            emit(cell, event_of(lo));
          }
        }
      }
    }
    if (si >= refreshes.size()) break;
    seg_start = refreshes[si].event;
    bases = refreshes[si].bases;
  }
}

bool DramDevice::hammer_pattern(std::span<const std::uint64_t> rows,
                                std::uint64_t n_cmds, std::uint64_t repeat,
                                CmdTimes cmd_times,
                                std::span<const PatternHazard> hazards) {
  RHSD_CHECK(config_.row_buffer_policy == RowBufferPolicy::kClosedPage);
  RHSD_CHECK(!cache_.has_value());
  RHSD_CHECK(!rows.empty());
  RHSD_CHECK(repeat > 0);
  RHSD_CHECK(cmd_times.size() == n_cmds);
  if (n_cmds == 0) return true;
  const std::uint64_t P = rows.size();
  const std::uint64_t h = repeat;
  const std::uint64_t rows_per_bank = config_.geometry.rows_per_bank;

  // Snapshot the replayable mitigation state up front: a hazard abort
  // must leave the device untouched, across every window segment.
  const std::optional<TrrTracker> trr_snapshot = trr_;
  const std::uint64_t trr_window_snapshot = trr_window_;
  const Rng para_rng_snapshot = para_rng_;
  const std::uint64_t para_refreshes_snapshot = stats_.para_refreshes;

  // Cross-segment accumulators.  Flips apply to row bytes eagerly (a
  // later segment must see the decayed cells), but counter and baseline
  // commits defer to the end: row_commit holds each touched row's final
  // (window, per-window count), bases_commit its final targeted-refresh
  // baselines.  Keyed by RowIndex: small patterns stay on the flat
  // linear upsert, many-sided ones get hashed membership.
  std::vector<PendingFlip> pending;
  struct RowCommit {
    std::uint64_t window = 0;
    std::uint64_t acts = 0;
  };
  RowIndex row_commit_rows;
  std::vector<RowCommit> row_commit;  // parallel to row_commit_rows
  RowIndex bases_commit_rows;
  std::vector<RefreshBases> bases_commit;  // parallel to bases_commit_rows
  const auto upsert_row = [&](std::uint64_t row, RowCommit rc) {
    bool inserted = false;
    const std::size_t i = row_commit_rows.insert(row, &inserted);
    if (inserted) {
      row_commit.push_back(rc);
    } else {
      row_commit[i] = rc;
    }
  };
  const auto upsert_bases = [&](std::uint64_t row, const RefreshBases& nb) {
    bool inserted = false;
    const std::size_t i = bases_commit_rows.insert(row, &inserted);
    if (inserted) {
      bases_commit.push_back(nb);
    } else {
      bases_commit[i] = nb;
    }
  };

  // One maximal same-refresh-window run: commands [0, n_cmds) at times
  // cmd_times, the pattern rotated so position 0 is the run's first
  // command.  The parameters deliberately shadow the batch-level ones —
  // the closed forms below see only the segment.  `fresh` marks a
  // window the clock has not reached: its first activation would reset
  // every per-window counter, baseline and the TRR tracker on the
  // scalar walk, so all pre-segment counts read as zero here.
  // `event_offset` maps local events 1..n_cmds*h onto the batch-global
  // flip order.
  const auto run_segment = [&](std::span<const std::uint64_t> rows,
                               std::uint64_t n_cmds, CmdTimes cmd_times,
                               std::uint64_t w, bool fresh,
                               std::uint64_t event_offset) {
  const std::uint64_t E = n_cmds * h;  // segment activations, events 1..E
  // Roll the TRR window once up front, like the segment's first scalar
  // activation would.
  if (trr_.has_value() && w != trr_window_) {
    trr_->reset();
    trr_window_ = w;
  }

  // Distinct pattern rows, their per-period command positions, and their
  // pre-segment per-window activation counts.
  RowIndex distinct;
  std::vector<std::vector<std::uint64_t>> pos_of;  // parallel to distinct
  for (std::uint64_t p = 0; p < P; ++p) {
    RHSD_CHECK(rows[p] < config_.geometry.total_rows());
    bool inserted = false;
    const std::size_t i = distinct.insert(rows[p], &inserted);
    if (inserted) pos_of.emplace_back();
    pos_of[i].push_back(p);
  }
  std::vector<std::uint64_t> a0(distinct.size());
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    a0[i] = fresh ? 0 : acts_now(distinct.keys()[i]);
  }

  const std::uint64_t full_periods = n_cmds / P;
  const std::uint64_t rem_cmds = n_cmds % P;
  // Commands with index < t whose pattern position is in sorted list C.
  const auto cmds_before = [&](std::uint64_t t,
                               const std::vector<std::uint64_t>& C) {
    const std::uint64_t f = t / P;
    const std::uint64_t r = t % P;
    std::uint64_t tail = 0;
    for (const std::uint64_t c : C) {
      if (c < r) ++tail;
    }
    return f * C.size() + tail;
  };
  // Activation count of pattern row distinct[i] after event e (1-based),
  // counting event e itself.
  const auto count_at_event = [&](int i, std::uint64_t e) {
    const auto& C = pos_of[static_cast<std::size_t>(i)];
    const std::uint64_t t = (e - 1) / h;
    const std::uint64_t o = (e - 1) % h;
    std::uint64_t cnt = a0[static_cast<std::size_t>(i)] + h * cmds_before(t, C);
    const std::uint64_t pp = t % P;
    for (const std::uint64_t c : C) {
      if (c == pp) {
        cnt += o + 1;
        break;
      }
    }
    return cnt;
  };
  // Count of an arbitrary row at event e: pattern rows advance, every
  // other row is frozen for the whole segment (zero in a fresh window).
  const auto row_count_at = [&](std::uint64_t row, std::uint64_t e) {
    const int i = distinct.find(row);
    return i >= 0 ? count_at_event(i, e) : (fresh ? 0 : acts_now(row));
  };

  // -- Replay the mitigation state machines over the segment, collecting
  // targeted refreshes in scalar order (TRR fire before the PARA draw of
  // the same activation).
  struct RefreshPoint {
    std::uint64_t event = 0;
    std::uint64_t aggressor = 0;
    std::uint32_t distance = 1;
  };
  std::vector<RefreshPoint> points;

  if (trr_.has_value()) {
    const std::uint32_t dist =
        config_.mitigations.trr_config.refresh_distance;
    std::vector<std::uint32_t> banks;
    for (const std::uint64_t r : distinct.keys()) {
      const auto b = static_cast<std::uint32_t>(r / rows_per_bank);
      if (std::find(banks.begin(), banks.end(), b) == banks.end()) {
        banks.push_back(b);
      }
    }
    for (const std::uint32_t b : banks) {
      // This bank's command subsequence within one pattern period.
      std::vector<std::uint64_t> D;
      std::vector<std::uint32_t> bank_cmd_rows;
      for (std::uint64_t p = 0; p < P; ++p) {
        if (rows[p] / rows_per_bank != b) continue;
        D.push_back(p);
        bank_cmd_rows.push_back(
            static_cast<std::uint32_t>(rows[p] % rows_per_bank));
      }
      const std::uint64_t m_b = D.size();
      std::uint64_t tail = 0;
      for (const std::uint64_t d : D) {
        if (d < rem_cmds) ++tail;
      }
      const std::uint64_t events_b = h * (full_periods * m_b + tail);
      if (events_b == 0) continue;
      for (const TrrEmission& em :
           trr_->advance_cmds(b, bank_cmd_rows, h, events_b)) {
        // Bank-local activation k -> global event: k sits in the bank's
        // ((k-1)/h)-th command, which is global command q*P + D[i].
        const std::uint64_t j = (em.index - 1) / h;
        const std::uint64_t o = (em.index - 1) % h;
        const std::uint64_t e =
            ((j / m_b) * P + D[j % m_b]) * h + o + 1;
        points.push_back(RefreshPoint{
            e, static_cast<std::uint64_t>(b) * rows_per_bank + em.row,
            dist});
      }
    }
  }
  if (config_.mitigations.para_probability > 0.0) {
    const auto para_at = [&](std::uint64_t e) {
      points.push_back(RefreshPoint{e, rows[((e - 1) / h) % P], 1});
    };
    stats_.para_refreshes += para_events(E, para_at);
  }
  std::stable_sort(points.begin(), points.end(),
                   [](const RefreshPoint& x, const RefreshPoint& y) {
                     return x.event < y.event;
                   });

  // -- Per-victim refresh segment lists with deferred refresh_bases_
  // writes (the first segment must still read pre-batch baselines).
  RowIndex refreshed_rows;
  std::vector<std::vector<VictimRefresh>> refreshed;  // parallel
  const auto refresh_list =
      [&](std::uint64_t row) -> std::vector<VictimRefresh>& {
    bool inserted = false;
    const std::size_t i = refreshed_rows.insert(row, &inserted);
    if (inserted) refreshed.emplace_back();
    return refreshed[i];
  };
  for (const RefreshPoint& rp : points) {
    for (std::uint32_t d = 1; d <= rp.distance; ++d) {
      for (const int sign : {-1, +1}) {
        const auto victim =
            neighbor(rp.aggressor, sign * static_cast<int>(d));
        if (!victim.has_value()) continue;
        RefreshBases nb;
        nb.window = w;
        if (auto l = neighbor(*victim, -1)) {
          nb.left = row_count_at(*l, rp.event);
        }
        if (auto r = neighbor(*victim, +1)) {
          nb.right = row_count_at(*r, rp.event);
        }
        if (auto l2 = neighbor(*victim, -2)) {
          nb.left2 = row_count_at(*l2, rp.event);
        }
        if (auto r2 = neighbor(*victim, +2)) {
          nb.right2 = row_count_at(*r2, rp.event);
        }
        auto& list = refresh_list(*victim);
        if (!list.empty() && list.back().event == rp.event) {
          list.back().bases = nb;  // TRR + PARA hit it at the same event
        } else {
          list.push_back(VictimRefresh{rp.event, nb});
        }
      }
    }
  }

  // -- Candidate victims: every row within disturbance distance of any
  // pattern row (pattern rows themselves included — adjacent aggressors
  // disturb each other).
  const double hd_weight = disturbance_.profile().half_double_weight;
  const int max_dist = hd_weight > 0.0 ? 2 : 1;
  RowIndex victims;
  for (const std::uint64_t r : distinct.keys()) {
    for (int d = 1; d <= max_dist; ++d) {
      for (const int sign : {-1, +1}) {
        const auto v = neighbor(r, sign * d);
        if (v.has_value()) victims.insert(*v);
      }
    }
  }

  // -- Closed-form victim check, generalized from check_victim_batched
  // to the multi-row periodic stream.
  const auto check_victim_pattern =
      [&](std::uint64_t victim, std::span<const VictimRefresh> refreshes) {
        // Pattern positions whose command activates a row that checks
        // this victim (the victim is within disturbance distance).
        std::vector<std::uint64_t> D;
        for (std::uint64_t p = 0; p < P; ++p) {
          const std::int64_t delta = static_cast<std::int64_t>(victim) -
                                     static_cast<std::int64_t>(rows[p]);
          bool reach = false;
          for (int d = 1; d <= max_dist && !reach; ++d) {
            if ((delta == -d &&
                 neighbor(rows[p], -d) ==
                     std::optional<std::uint64_t>(victim)) ||
                (delta == d &&
                 neighbor(rows[p], d) ==
                     std::optional<std::uint64_t>(victim))) {
              reach = true;
            }
          }
          if (reach) D.push_back(p);
        }
        if (D.empty()) return;
        if (!disturbance_.row_is_vulnerable(victim)) return;
        const std::uint64_t m_v = D.size();
        const auto checks_up_to = [&](std::uint64_t e) -> std::uint64_t {
          if (e == 0) return 0;
          const std::uint64_t t = (e - 1) / h;
          const std::uint64_t o = (e - 1) % h;
          std::uint64_t k = h * cmds_before(t, D);
          const std::uint64_t pp = t % P;
          for (const std::uint64_t c : D) {
            if (c == pp) {
              k += o + 1;
              break;
            }
          }
          return k;
        };
        const auto event_of = [&](std::uint64_t k) {
          const std::uint64_t j = (k - 1) / h;  // victim-check command index
          const std::uint64_t o = (k - 1) % h;
          return ((j / m_v) * P + D[j % m_v]) * h + o + 1;
        };
        const std::uint64_t checks = checks_up_to(E);
        if (checks == 0) return;

        struct NeighborCount {
          std::uint64_t base = 0;
          int idx = -1;  // >= 0: index into `distinct` (dynamic count)
          bool present = false;
        };
        const auto classify = [&](std::optional<std::uint64_t> n) {
          NeighborCount c;
          if (!n.has_value()) return c;  // bank edge: counts as zero
          c.present = true;
          const int i = distinct.find(*n);
          if (i >= 0) {
            c.idx = i;
          } else {
            c.base = fresh ? 0 : acts_now(*n);
          }
          return c;
        };
        const NeighborCount nl = classify(neighbor(victim, -1));
        const NeighborCount nr = classify(neighbor(victim, +1));
        const NeighborCount nl2 =
            max_dist == 2 ? classify(neighbor(victim, -2)) : NeighborCount{};
        const NeighborCount nr2 =
            max_dist == 2 ? classify(neighbor(victim, +2)) : NeighborCount{};
        const auto count_nc = [&](const NeighborCount& c, std::uint64_t e) {
          if (!c.present) return std::uint64_t{0};
          return c.idx >= 0 ? count_at_event(c.idx, e) : c.base;
        };
        const auto exposure_at = [&](std::uint64_t e,
                                     const RefreshBases& bases) {
          std::uint64_t left = count_nc(nl, e);
          std::uint64_t right = count_nc(nr, e);
          left = left > bases.left ? left - bases.left : 0;
          right = right > bases.right ? right - bases.right : 0;
          double exposure = disturbance_.effective_hammer(left, right);
          if (hd_weight > 0.0) {
            std::uint64_t left2 = count_nc(nl2, e);
            std::uint64_t right2 = count_nc(nr2, e);
            left2 = left2 > bases.left2 ? left2 - bases.left2 : 0;
            right2 = right2 > bases.right2 ? right2 - bases.right2 : 0;
            exposure += hd_weight * static_cast<double>(left2 + right2);
          }
          return exposure;
        };

        const auto& cells = disturbance_.cells(victim);
        RowData* rd = nullptr;
        const auto slot_at = [&](std::uint64_t e) {
          const std::uint64_t agg = rows[((e - 1) / h) % P];
          const std::int64_t delta = static_cast<std::int64_t>(victim) -
                                     static_cast<std::int64_t>(agg);
          switch (delta) {
            case -1: return 0;
            case +1: return 1;
            case -2: return 2;
            default: return 3;  // +2
          }
        };
        const auto emit = [&](const VulnCell& cell, std::uint64_t e) {
          std::uint8_t& byte = rd->data[cell.byte_offset];
          if (cell.failure_value) {
            byte = static_cast<std::uint8_t>(byte | (1u << cell.bit));
          } else {
            byte = static_cast<std::uint8_t>(byte & ~(1u << cell.bit));
          }
          pending.push_back(PendingFlip{
              .event = event_offset + e,
              .slot = slot_at(e),
              .flip = FlipEvent{.time_ns = cmd_times[(e - 1) / h],
                                .global_row = victim,
                                .byte_offset = cell.byte_offset,
                                .bit = cell.bit,
                                .new_value = cell.failure_value}});
        };

        std::uint64_t seg_start = 1;
        RefreshBases bases = fresh ? RefreshBases{} : bases_of(victim);
        for (std::size_t si = 0;; ++si) {
          const std::uint64_t seg_end =
              si < refreshes.size() ? refreshes[si].event - 1 : E;
          const std::uint64_t k_lo = checks_up_to(seg_start - 1) + 1;
          const std::uint64_t k_hi = std::min(checks, checks_up_to(seg_end));
          if (k_lo <= k_hi) {
            const double exposure_last = exposure_at(event_of(k_hi), bases);
            if (exposure_last >= disturbance_.min_threshold(victim)) {
              if (rd == nullptr) rd = &materialize(victim);
              bool aliased = false;
              for (std::size_t i = 0; i < cells.size() && !aliased; ++i) {
                if (cells[i].threshold > exposure_last) break;
                for (std::size_t j = i + 1; j < cells.size(); ++j) {
                  if (cells[j].threshold > exposure_last) break;
                  if (cells[i].byte_offset == cells[j].byte_offset &&
                      cells[i].bit == cells[j].bit) {
                    aliased = true;
                    break;
                  }
                }
              }
              if (aliased) {
                for (std::uint64_t k = k_lo; k <= k_hi; ++k) {
                  const std::uint64_t e = event_of(k);
                  const double exposure = exposure_at(e, bases);
                  for (const VulnCell& cell : cells) {
                    if (exposure < cell.threshold) break;
                    const std::uint8_t current =
                        (rd->data[cell.byte_offset] >> cell.bit) & 1u;
                    if (current == cell.failure_value) continue;
                    emit(cell, e);
                  }
                }
              } else {
                for (const VulnCell& cell : cells) {
                  if (cell.threshold > exposure_last) break;
                  const std::uint8_t current =
                      (rd->data[cell.byte_offset] >> cell.bit) & 1u;
                  if (current == cell.failure_value) continue;
                  std::uint64_t lo = k_lo;
                  std::uint64_t hi = k_hi;
                  while (lo < hi) {
                    const std::uint64_t mid = lo + (hi - lo) / 2;
                    if (exposure_at(event_of(mid), bases) >= cell.threshold) {
                      hi = mid;
                    } else {
                      lo = mid + 1;
                    }
                  }
                  emit(cell, event_of(lo));
                }
              }
            }
          }
          if (si >= refreshes.size()) break;
          seg_start = refreshes[si].event;
          bases = refreshes[si].bases;
        }
      };

  for (const std::uint64_t v : victims.keys()) {
    const int ri = refreshed_rows.find(v);
    check_victim_pattern(
        v, ri >= 0 ? std::span<const VictimRefresh>(refreshed[
                         static_cast<std::size_t>(ri)])
                   : std::span<const VictimRefresh>{});
  }

  // -- Segment accumulation: each activated row's final per-window count
  // and each refreshed victim's final targeted-refresh baselines.  Later
  // segments overwrite (a new window supersedes the old count outright).
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    const auto& C = pos_of[i];
    std::uint64_t tail = 0;
    for (const std::uint64_t c : C) {
      if (c < rem_cmds) ++tail;
    }
    const std::uint64_t events_i = h * (full_periods * C.size() + tail);
    if (events_i == 0) continue;
    upsert_row(distinct.keys()[i],
               RowCommit{w, (fresh ? 0 : a0[i]) + events_i});
  }
  for (std::size_t i = 0; i < refreshed.size(); ++i) {
    upsert_bases(refreshed_rows.keys()[i], refreshed[i].back().bases);
  }
  };  // run_segment

  // -- Drive the maximal same-window runs in command order.  Each run's
  // pattern is the batch pattern rotated to the run's first command, so
  // position arithmetic inside the closed forms stays untouched.  The
  // caller guarantees the first command falls in the clock's current
  // window; every later run is a fresh window.
  const std::uint64_t w_now = current_window();
  std::vector<std::uint64_t> seg_rows(P);
  std::uint64_t c_lo = 0;
  while (c_lo < n_cmds) {
    const std::uint64_t w_seg = cmd_times[c_lo] / window_ns_;
    // Command times are nondecreasing, so the window edge is a lookup
    // in closed form, not a per-command walk (chunks span many windows
    // and can run to hundreds of thousands of commands).
    const std::uint64_t c_hi =
        cmd_times.first_at_or_after((w_seg + 1) * window_ns_);
    for (std::uint64_t i = 0; i < P; ++i) {
      seg_rows[i] = rows[(c_lo + i) % P];
    }
    run_segment(seg_rows, c_hi - c_lo, cmd_times.sub(c_lo, c_hi - c_lo),
                w_seg, w_seg != w_now, c_lo * h);
    c_lo = c_hi;
  }

  // -- Hazard gate: a flip inside a hazard range invalidates the whole
  // replay (the data fed back into the pattern's own reads).  Undo the
  // flips in reverse (each emit was a toggle) and restore the
  // mitigation state; the caller replays this chunk scalar.
  for (const PendingFlip& p : pending) {
    for (const PatternHazard& hz : hazards) {
      if (p.flip.global_row == hz.global_row &&
          p.flip.byte_offset >= hz.byte_lo && p.flip.byte_offset < hz.byte_hi) {
        for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
          RowData& rd = materialize(it->flip.global_row);
          rd.data[it->flip.byte_offset] = static_cast<std::uint8_t>(
              it->flip.new_value
                  ? rd.data[it->flip.byte_offset] & ~(1u << it->flip.bit)
                  : rd.data[it->flip.byte_offset] | (1u << it->flip.bit));
        }
        trr_ = trr_snapshot;
        trr_window_ = trr_window_snapshot;
        para_rng_ = para_rng_snapshot;
        stats_.para_refreshes = para_refreshes_snapshot;
        return false;
      }
    }
  }

  // -- Commit: bulk row state, deferred baselines, ordered flips.
  stats_.activations += n_cmds * h;
  for (std::size_t i = 0; i < row_commit.size(); ++i) {
    row_window_[row_commit_rows.keys()[i]] = row_commit[i].window;
    row_acts_[row_commit_rows.keys()[i]] = row_commit[i].acts;
  }
  if (trr_.has_value()) stats_.trr_refreshes = trr_->refreshes_issued();
  for (std::size_t i = 0; i < bases_commit.size(); ++i) {
    refresh_bases_[bases_commit_rows.keys()[i]] = bases_commit[i];
  }
  if (!pending.empty()) {
    std::stable_sort(pending.begin(), pending.end(),
                     [](const PendingFlip& x, const PendingFlip& y) {
                       return x.event != y.event ? x.event < y.event
                                                 : x.slot < y.slot;
                     });
    stats_.bitflips += pending.size();
    for (const PendingFlip& p : pending) flip_events_.push_back(p.flip);
  }
  return true;
}

void DramDevice::account_cache_pattern(
    std::span<const DramAddr> lines,
    std::span<const std::uint64_t> rel_stamps, std::uint64_t hits) {
  RHSD_CHECK(cache_.has_value());
  RHSD_CHECK(lines.size() == rel_stamps.size());
  const std::uint64_t use_before = cache_->use_counter();
  cache_->account_hits(hits);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    cache_->set_last_use(lines[i], use_before + rel_stamps[i]);
  }
  stats_.reads += hits;
  stats_.cache_hits = cache_->hits();
  stats_.cache_misses = cache_->misses();
}

bool DramDevice::ecc_clean(std::uint64_t global_row, std::uint32_t byte_lo,
                           std::uint32_t byte_hi) const {
  if (!config_.mitigations.ecc || byte_lo >= byte_hi) return true;
  const RowData* rd = row_data_[global_row].get();
  if (rd == nullptr || rd->data.empty()) return true;
  const std::uint32_t first_word = byte_lo / 8;
  const std::uint32_t last_word = (byte_hi - 1) / 8;
  for (std::uint32_t w = first_word; w <= last_word; ++w) {
    const std::uint64_t word = LoadWord(&rd->data[w * 8]);
    if (SecdedDecode(word, rd->ecc[w]).status != SecdedStatus::kOk) {
      return false;
    }
  }
  return true;
}

std::uint64_t DramDevice::injected_read_faults_away() const {
  if (injector_ == nullptr) return FaultInjector::kNoFault;
  const std::uint64_t at =
      injector_->next_fault_at(FaultClass::kDramBitError);
  if (at == FaultInjector::kNoFault) return at;
  return at - injector_->ops(FaultClass::kDramBitError);
}

Status DramDevice::verify_and_correct_ecc(RowData* rd,
                                          std::uint32_t first_byte,
                                          std::uint32_t length,
                                          std::uint64_t row) {
  if (!config_.mitigations.ecc || rd == nullptr || rd->data.empty() ||
      length == 0) {
    return Status::Ok();
  }
  const std::uint32_t first_word = first_byte / 8;
  const std::uint32_t last_word = (first_byte + length - 1) / 8;
  for (std::uint32_t w = first_word; w <= last_word; ++w) {
    const std::uint64_t word = LoadWord(&rd->data[w * 8]);
    const SecdedResult result = SecdedDecode(word, rd->ecc[w]);
    switch (result.status) {
      case SecdedStatus::kOk:
        break;
      case SecdedStatus::kCorrectedData:
        // Scrub: repair the array so errors do not accumulate.
        StoreWord(&rd->data[w * 8], result.word);
        ++stats_.ecc_corrected;
        break;
      case SecdedStatus::kCorrectedCheck:
        rd->ecc[w] = SecdedEncode(word);
        ++stats_.ecc_corrected;
        break;
      case SecdedStatus::kUncorrectable:
        ++stats_.ecc_uncorrectable;
        return Corruption("uncorrectable ECC error in DRAM row " +
                          std::to_string(row));
    }
  }
  return Status::Ok();
}

void DramDevice::update_ecc(RowData& rd, std::uint32_t first_byte,
                            std::uint32_t length) {
  if (!config_.mitigations.ecc || rd.data.empty() || length == 0) return;
  const std::uint32_t first_word = first_byte / 8;
  const std::uint32_t last_word = (first_byte + length - 1) / 8;
  for (std::uint32_t w = first_word; w <= last_word; ++w) {
    rd.ecc[w] = SecdedEncode(LoadWord(&rd.data[w * 8]));
  }
}

Status DramDevice::read(DramAddr addr, std::span<std::uint8_t> out) {
  if (addr.value() + out.size() > config_.geometry.total_bytes()) {
    return OutOfRange("DRAM read past end of device");
  }
  ++stats_.reads;
  if (injector_ != nullptr) {
    if (const auto fault = injector_->tick(FaultClass::kDramBitError);
        fault.has_value() && !out.empty()) {
      // Transient (soft) bit error: flip one stored bit, leaving the
      // check bytes untouched so SECDED sees a genuine mismatch — the
      // same corruption shape as a disturbance flip.  param selects the
      // bit (low 3 bits) and the byte within the accessed span.
      const std::uint64_t target =
          addr.value() + (fault->param >> 3) % out.size();
      RowData& rd = materialize(
          mapper_->decode(DramAddr(target - target % config_.geometry.row_bytes))
              .global_row(config_.geometry));
      rd.data[target % config_.geometry.row_bytes] ^=
          static_cast<std::uint8_t>(1u << (fault->param & 7));
      ++stats_.injected_bit_errors;
    }
  }
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  std::uint64_t a = addr.value();
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t row_base = a - (a % row_bytes);
    const auto off = static_cast<std::uint32_t>(a % row_bytes);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(row_bytes - off, out.size() - done));
    const DramCoord coord = mapper_->decode(DramAddr(row_base));
    const std::uint64_t grow = coord.global_row(config_.geometry);

    bool need_activate = true;
    if (cache_.has_value()) {
      need_activate = false;
      const std::uint32_t line = cache_->config().line_bytes;
      for (std::uint64_t la = a - (a % line); la < a + chunk; la += line) {
        if (!cache_->access(DramAddr(la))) need_activate = true;
      }
      stats_.cache_hits = cache_->hits();
      stats_.cache_misses = cache_->misses();
    }
    if (need_activate) activate(grow);

    RowData* rd = row_data_[grow].get();
    RHSD_RETURN_IF_ERROR(verify_and_correct_ecc(rd, off, chunk, grow));
    if (rd == nullptr || rd->data.empty()) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, rd->data.data() + off, chunk);
    }
    a += chunk;
    done += chunk;
  }
  return Status::Ok();
}

Status DramDevice::write(DramAddr addr, std::span<const std::uint8_t> data) {
  if (addr.value() + data.size() > config_.geometry.total_bytes()) {
    return OutOfRange("DRAM write past end of device");
  }
  ++stats_.writes;
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  std::uint64_t a = addr.value();
  std::size_t done = 0;
  while (done < data.size()) {
    const auto off = static_cast<std::uint32_t>(a % row_bytes);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(row_bytes - off, data.size() - done));
    const std::uint64_t row_base = a - off;
    const DramCoord coord = mapper_->decode(DramAddr(row_base));
    const std::uint64_t grow = coord.global_row(config_.geometry);

    if (cache_.has_value()) {
      // Write-invalidate, mirroring the paper's modified SPDK which
      // invalidates cached L2P entries on access.
      const std::uint32_t line = cache_->config().line_bytes;
      for (std::uint64_t la = a - (a % line); la < a + chunk; la += line) {
        cache_->invalidate(DramAddr(la));
      }
    }
    activate(grow);

    RowData& rd = materialize(grow);
    std::memcpy(rd.data.data() + off, data.data() + done, chunk);
    update_ecc(rd, off, chunk);
    a += chunk;
    done += chunk;
  }
  return Status::Ok();
}

Status DramDevice::repeat_read(DramAddr addr, std::span<std::uint8_t> out,
                               std::uint64_t extra) {
  if (addr.value() + out.size() > config_.geometry.total_bytes()) {
    return OutOfRange("DRAM read past end of device");
  }
  if (extra == 0) return Status::Ok();
  if (out.empty()) {
    stats_.reads += extra;  // empty reads touch no rows
    return Status::Ok();
  }
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  const std::uint64_t first_row = addr.value() / row_bytes;
  const std::uint64_t last_row = (addr.value() + out.size() - 1) / row_bytes;
  if (cache_.has_value() || first_row != last_row) {
    // Cache state evolves per access, and a span touching two adjacent
    // rows lets each repeat disturb data it then reads — replay the
    // accesses faithfully in either case.
    for (std::uint64_t i = 0; i < extra; ++i) {
      RHSD_RETURN_IF_ERROR(read(addr, out));
    }
    return Status::Ok();
  }
  // One row, no cache: repeats of the just-completed read cannot change
  // the buffer (the row's own activations disturb only its neighbors),
  // the ECC state (scrubbed by the first read), or the outcome — only
  // the activations and their neighbor disturbance remain.
  stats_.reads += extra;
  const DramCoord coord =
      mapper_->decode(DramAddr(addr.value() - addr.value() % row_bytes));
  hammer_events(coord.global_row(config_.geometry),
                coord.global_row(config_.geometry), extra);
  return Status::Ok();
}

Status DramDevice::repeat_write(DramAddr addr,
                                std::span<const std::uint8_t> data,
                                std::uint64_t extra) {
  if (addr.value() + data.size() > config_.geometry.total_bytes()) {
    return OutOfRange("DRAM write past end of device");
  }
  if (extra == 0) return Status::Ok();
  if (data.empty()) {
    stats_.writes += extra;
    return Status::Ok();
  }
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  const std::uint64_t first_row = addr.value() / row_bytes;
  const std::uint64_t last_row = (addr.value() + data.size() - 1) / row_bytes;
  if (cache_.has_value() || first_row != last_row) {
    for (std::uint64_t i = 0; i < extra; ++i) {
      RHSD_RETURN_IF_ERROR(write(addr, data));
    }
    return Status::Ok();
  }
  // Rewriting identical bytes is idempotent (memcpy and ECC update
  // reproduce the state the first write left); only the activations and
  // their neighbor disturbance remain.
  stats_.writes += extra;
  const DramCoord coord =
      mapper_->decode(DramAddr(addr.value() - addr.value() % row_bytes));
  hammer_events(coord.global_row(config_.geometry),
                coord.global_row(config_.geometry), extra);
  return Status::Ok();
}

void DramDevice::peek(DramAddr addr, std::span<std::uint8_t> out) const {
  RHSD_CHECK(addr.value() + out.size() <= config_.geometry.total_bytes());
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  std::uint64_t a = addr.value();
  std::size_t done = 0;
  while (done < out.size()) {
    const auto off = static_cast<std::uint32_t>(a % row_bytes);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(row_bytes - off, out.size() - done));
    const DramCoord coord = mapper_->decode(DramAddr(a - off));
    const RowData* rd = row_data_[coord.global_row(config_.geometry)].get();
    if (rd == nullptr || rd->data.empty()) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, rd->data.data() + off, chunk);
    }
    a += chunk;
    done += chunk;
  }
}

void DramDevice::peek_row(std::uint64_t global_row, std::uint32_t offset,
                          std::span<std::uint8_t> out) const {
  RHSD_CHECK(global_row < row_data_.size());
  RHSD_CHECK(offset + out.size() <= config_.geometry.row_bytes);
  const RowData* rd = row_data_[global_row].get();
  if (rd == nullptr || rd->data.empty()) {
    std::memset(out.data(), 0, out.size());
  } else {
    std::memcpy(out.data(), rd->data.data() + offset, out.size());
  }
}

void DramDevice::poke(DramAddr addr, std::span<const std::uint8_t> data) {
  RHSD_CHECK(addr.value() + data.size() <= config_.geometry.total_bytes());
  ++pokes_;
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  std::uint64_t a = addr.value();
  std::size_t done = 0;
  while (done < data.size()) {
    const auto off = static_cast<std::uint32_t>(a % row_bytes);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(row_bytes - off, data.size() - done));
    const DramCoord coord = mapper_->decode(DramAddr(a - off));
    RowData& rd = materialize(coord.global_row(config_.geometry));
    std::memcpy(rd.data.data() + off, data.data() + done, chunk);
    update_ecc(rd, off, chunk);
    a += chunk;
    done += chunk;
  }
}

std::uint64_t DramDevice::row_activations(std::uint64_t global_row) {
  return acts_now(global_row);
}

}  // namespace rhsd
