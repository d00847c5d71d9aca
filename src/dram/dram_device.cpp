#include "dram/dram_device.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>

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
    if (!index_.empty() || keys_.size() > kLinearRows) index_newest();
    if (inserted != nullptr) *inserted = true;
    return keys_.size() - 1;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const {
    return keys_;
  }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  /// Empty the index, keeping its storage.
  void clear() {
    keys_.clear();
    if (!index_.empty()) index_.clear();
  }

 private:
  static constexpr std::size_t kLinearRows = 16;

  /// Hash the newest key, hashing all of them on first use.
  [[gnu::noinline]] void index_newest() {
    if (!index_.empty()) {
      index_.emplace(keys_.back(), keys_.size() - 1);
      return;
    }
    index_.reserve(2 * keys_.size());
    for (std::size_t j = 0; j < keys_.size(); ++j) index_.emplace(keys_[j], j);
  }

  std::vector<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

// Unsigned division by a value fixed for a whole replay run: a shift
// and a mask when it is a power of two (pattern widths and repeat
// counts of 1, 2, 4, ...), a hardware divide otherwise.  The closed
// forms divide by the period, the repeat and a victim's check count on
// every probe, and a 64-bit divide costs tens of cycles.
class Divisor {
 public:
  explicit Divisor(std::uint64_t d)
      : d_(d), shift_(std::countr_zero(d)), pow2_((d & (d - 1)) == 0) {}
  [[nodiscard]] std::uint64_t div(std::uint64_t x) const {
    return pow2_ ? x >> shift_ : x / d_;
  }
  [[nodiscard]] std::uint64_t mod(std::uint64_t x) const {
    return pow2_ ? x & (d_ - 1) : x % d_;
  }

 private:
  std::uint64_t d_;
  int shift_;
  bool pow2_;
};

}  // namespace

/// Working storage of one replay_reads()/hammer_pattern() call, kept
/// across calls so a small call allocates nothing.  Every field is
/// rebuilt per call (the cross-run accumulators) or per window run (the
/// rest).
struct DramDevice::PatternScratch {
  /// A targeted refresh inside a run: at `event`, the neighbors of
  /// `aggressor` up to `distance` rows away re-baseline.
  struct RefreshPoint {
    std::uint64_t event = 0;
    std::uint64_t aggressor = 0;
    std::uint32_t distance = 1;
    int source = 0;  // 0 = TRR, 1 = PARA (TRR fires first in an event)
  };
  struct RowUndo {
    std::uint64_t row = 0;
    std::uint64_t window = 0;
    std::uint64_t acts = 0;
  };
  struct BasesUndo {
    std::uint64_t row = 0;
    RefreshBases bases;
  };

  // Whole call.  Runs write row counts and baselines as they finish;
  // with hazards they log what each write replaced (`undo`).
  std::vector<PendingFlip> pending;
  bool undo = false;
  std::vector<RowUndo> row_undo;
  std::vector<BasesUndo> bases_undo;
  std::vector<std::uint64_t> rotated;  // pattern rotated to a run's start
  std::optional<TrrTracker> trr_snapshot;  // taken only with hazards

  /// One distinct row of a run's pattern.
  struct PatternRow {
    std::uint64_t row = 0;
    std::uint64_t a0 = 0;        // per-window count before the run
    std::uint64_t acts_end = 0;  // ... and after it
    std::uint64_t n_pos = 0;     // its positions in one period
    std::uint64_t first = 0;     // ... are pos[first, first + n_pos)
  };

  // One window run.
  RowIndex distinct;                  // pattern rows, first-seen order
  std::vector<PatternRow> prow;       // parallel to `distinct`
  std::vector<std::uint32_t> row_of;  // distinct index per position
  std::vector<std::uint64_t> pos;     // positions grouped by row
  std::vector<RefreshPoint> points;
  RowIndex refreshed;  // victims with targeted refreshes in the run
  /// Parallel to `refreshed`; a pool whose lists keep their storage.
  std::vector<std::vector<VictimRefresh>> refresh_lists;
  std::vector<std::uint64_t> check_pos;  // one victim's checking positions
  std::vector<std::uint32_t> banks;
  std::vector<std::uint64_t> bank_pos;
  std::vector<std::uint32_t> bank_rows;
  std::vector<TrrEmission> emissions;

  std::vector<std::uint64_t> entry_rows;  // replay_reads()'s row pattern
};

DramDevice::DramDevice(DramConfig config,
                       std::unique_ptr<AddressMapper> mapper, SimClock& clock)
    : config_(std::move(config)),
      mapper_(std::move(mapper)),
      clock_(clock),
      disturbance_(config_.profile, config_.seed, config_.geometry.row_bytes,
                   config_.geometry.total_rows()),
      scratch_(std::make_unique<PatternScratch>()) {
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
  const std::uint64_t total_rows = config_.geometry.total_rows();
  row_window_.assign(total_rows, ~0ull);
  row_acts_.assign(total_rows, 0);
  row_data_.resize(total_rows);
  RHSD_CHECK(total_rows < kNoRow);
  row_table_.assign(total_rows, kNoRow);
  neighbor_refresh_active_ = config_.mitigations.trr ||
                             config_.mitigations.para_probability > 0.0;
  if (neighbor_refresh_active_) refresh_bases_.resize(total_rows);
  quiet_row_exact_ = !neighbor_refresh_active_ &&
                     config_.profile.half_double_weight == 0.0;
}

DramDevice::~DramDevice() = default;

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
  const RefreshBases& b = refresh_bases_[global_row];
  // Stale baselines (window rolled, or never refreshed) read as zeros.
  return b.window != current_window() ? RefreshBases{} : b;
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

void DramDevice::hammer_pattern_scalar(std::span<const std::uint64_t> rows,
                                       std::uint64_t n_cmds,
                                       std::uint64_t repeat) {
  RHSD_CHECK(!rows.empty());
  for (const std::uint64_t r : rows) {
    RHSD_CHECK(r < config_.geometry.total_rows());
  }
  std::size_t p = 0;  // command c hammers rows[c % P]
  for (std::uint64_t c = 0; c < n_cmds; ++c) {
    for (std::uint64_t k = 0; k < repeat; ++k) activate(rows[p]);
    if (++p == rows.size()) p = 0;
  }
}

bool DramDevice::victim_settled(std::uint64_t victim, double bound) {
  if (bound < disturbance_.min_threshold(victim)) return true;
  // Nothing left to flip: every cell the bound reaches already holds
  // its failure value (a pair of aliased cells with opposite failure
  // values never does).
  const RowData* stored = row_data_[victim].get();
  for (const VulnCell& cell : disturbance_.cells(victim)) {
    if (cell.threshold > bound) break;  // sorted ascending
    const std::uint8_t byte = stored != nullptr && !stored->data.empty()
                                  ? stored->data[cell.byte_offset]
                                  : 0;
    if (((byte >> cell.bit) & 1u) != cell.failure_value) return false;
  }
  return true;
}

bool DramDevice::quiet_row(std::uint64_t row, std::uint64_t events,
                           std::uint64_t last_ns) {
  // The replay's own early-outs on the 1-row pattern: without targeted
  // refreshes every baseline is zero, the row's two neighbors are the
  // only victims, and each victim's exposure peaks at the end of the
  // call, from the row's final count and the frozen count of the row
  // beyond it.
  const std::uint64_t w = current_window();
  if (last_ns >= (w + 1) * window_ns_) return false;  // crosses a window
  const auto count = [&](std::uint64_t r) {
    return row_window_[r] == w ? row_acts_[r] : 0;  // stale reads zero
  };
  const std::uint64_t rows_per_bank = config_.geometry.rows_per_bank;
  const std::uint64_t in_bank = row % rows_per_bank;
  const std::uint64_t acts_end = count(row) + events;
  if (in_bank >= 1 && disturbance_.row_is_vulnerable(row - 1)) {
    const std::uint64_t far = in_bank >= 2 ? count(row - 2) : 0;
    if (!victim_settled(row - 1,
                        disturbance_.effective_hammer(far, acts_end))) {
      return false;
    }
  }
  if (in_bank + 1 < rows_per_bank && disturbance_.row_is_vulnerable(row + 1)) {
    const std::uint64_t far = in_bank + 2 < rows_per_bank ? count(row + 2) : 0;
    if (!victim_settled(row + 1,
                        disturbance_.effective_hammer(acts_end, far))) {
      return false;
    }
  }
  // Both victims settled: the replay would only write the row's count.
  row_window_[row] = w;
  row_acts_[row] = acts_end;
  stats_.activations += events;
  ++quiet_row_early_outs_;
  return true;
}

bool DramDevice::hammer_pattern(std::span<const std::uint64_t> rows,
                                std::uint64_t n_cmds, std::uint64_t repeat,
                                const CmdTimes& cmd_times,
                                std::span<const PatternHazard> hazards) {
  RHSD_CHECK(!rows.empty());
  RHSD_CHECK(repeat > 0);
  RHSD_CHECK(cmd_times.count == n_cmds);
  for (const std::uint64_t r : rows) {
    RHSD_CHECK(r < config_.geometry.total_rows());
  }
  if (n_cmds == 0) return true;
  if (rows.size() == 1 && quiet_row_exact_ &&
      quiet_row(rows[0], n_cmds * repeat, cmd_times[n_cmds - 1])) {
    return true;
  }
  PatternScratch& s = *scratch_;
  const std::uint64_t P = rows.size();

  // Snapshot the replayable mitigation state: a hazard abort must leave
  // the device untouched, across every window run.  A call without
  // hazards cannot abort, so it skips the tracker copy.
  if (!hazards.empty()) s.trr_snapshot = trr_;
  const std::uint64_t trr_window_snapshot = trr_window_;
  const Rng para_rng_snapshot = para_rng_;
  const std::uint64_t para_refreshes_snapshot = stats_.para_refreshes;

  // Each run applies its flips to row bytes and writes its rows' counts
  // and baselines when it ends: a run reads only state from before the
  // call, and a later run none (its window is fresh).  Flip events and
  // stats wait for the hazard gate.
  s.pending.clear();
  s.undo = !hazards.empty();
  s.row_undo.clear();
  s.bases_undo.clear();

  // Drive the maximal same-window runs in command order.  Each run's
  // pattern is the call's pattern rotated to the run's first command,
  // so position arithmetic inside the closed forms stays untouched.
  // The caller guarantees the first command falls in the clock's
  // current window; every later run is a fresh window.
  const std::uint64_t w_now = current_window();
  std::uint64_t c_lo = 0;
  while (c_lo < n_cmds) {
    const std::uint64_t w =
        c_lo == 0 ? w_now : cmd_times[c_lo] / window_ns_;
    // Command times are an arithmetic progression, so the window edge
    // is a ceiling division, not a per-command walk (chunks span many
    // windows and can run to hundreds of thousands of commands).
    const std::uint64_t c_hi =
        cmd_times.first_at_or_after((w + 1) * window_ns_);
    std::span<const std::uint64_t> run_rows = rows;
    if (c_lo != 0 && c_lo % P != 0) {
      s.rotated.resize(P);
      for (std::uint64_t i = 0; i < P; ++i) {
        s.rotated[i] = rows[(c_lo + i) % P];
      }
      run_rows = s.rotated;
    }
    const CmdTimes run_times = cmd_times.sub(c_lo, c_hi - c_lo);
    replay_window_run(run_rows, c_hi - c_lo, repeat, run_times, w,
                      w != w_now, c_lo * repeat);
    c_lo = c_hi;
  }

  // -- Hazard gate: a flip inside a hazard range invalidates the whole
  // replay (the data fed back into the pattern's own reads).  Undo the
  // flips in reverse (each emit was a toggle) and restore the
  // mitigation state; the caller replays this chunk scalar.
  for (const PendingFlip& p : s.pending) {
    for (const PatternHazard& hz : hazards) {
      if (p.flip.global_row == hz.global_row &&
          p.flip.byte_offset >= hz.byte_lo && p.flip.byte_offset < hz.byte_hi) {
        for (auto it = s.pending.rbegin(); it != s.pending.rend(); ++it) {
          RowData& rd = materialize(it->flip.global_row);
          rd.data[it->flip.byte_offset] = static_cast<std::uint8_t>(
              it->flip.new_value
                  ? rd.data[it->flip.byte_offset] & ~(1u << it->flip.bit)
                  : rd.data[it->flip.byte_offset] | (1u << it->flip.bit));
        }
        for (auto it = s.bases_undo.rbegin(); it != s.bases_undo.rend();
             ++it) {
          refresh_bases_[it->row] = it->bases;
        }
        for (auto it = s.row_undo.rbegin(); it != s.row_undo.rend(); ++it) {
          row_window_[it->row] = it->window;
          row_acts_[it->row] = it->acts;
        }
        trr_ = s.trr_snapshot;
        trr_window_ = trr_window_snapshot;
        para_rng_ = para_rng_snapshot;
        stats_.para_refreshes = para_refreshes_snapshot;
        return false;
      }
    }
  }

  // -- Commit: stats and ordered flips.
  stats_.activations += n_cmds * repeat;
  if (trr_.has_value()) stats_.trr_refreshes = trr_->refreshes_issued();
  if (!s.pending.empty()) {
    // Restore scalar emission order: by activation event, then by the
    // check-slot order within one activation (left, right, left2,
    // right2).  stable_sort keeps each victim's per-check cell order.
    std::stable_sort(s.pending.begin(), s.pending.end(),
                     [](const PendingFlip& x, const PendingFlip& y) {
                       return x.event != y.event ? x.event < y.event
                                                 : x.slot < y.slot;
                     });
    stats_.bitflips += s.pending.size();
    for (const PendingFlip& p : s.pending) flip_events_.push_back(p.flip);
  }
  return true;
}

void DramDevice::replay_window_run(std::span<const std::uint64_t> rows,
                                   std::uint64_t n_cmds, std::uint64_t h,
                                   const CmdTimes& cmd_times, std::uint64_t w,
                                   bool fresh, std::uint64_t event_offset) {
  // Commands [0, n_cmds) at times cmd_times, all in refresh window w;
  // command c activates rows[c % P] h times, local events 1..n_cmds*h.
  // `fresh` marks a window the clock has not reached: its first
  // activation would reset every per-window counter, baseline and the
  // TRR tracker on the scalar walk, so all pre-run counts read as zero.
  // `event_offset` maps local events onto the call-global flip order.
  using RefreshPoint = PatternScratch::RefreshPoint;
  PatternScratch& s = *scratch_;
  const std::uint64_t P = rows.size();
  const std::uint64_t E = n_cmds * h;
  const Divisor by_P(P);
  const Divisor by_h(h);
  const std::uint64_t rows_per_bank = config_.geometry.rows_per_bank;
  const Divisor by_bank(rows_per_bank);
  // Roll the TRR window once up front, like the run's first scalar
  // activation would.
  if (trr_.has_value() && w != trr_window_) {
    trr_->reset();
    trr_window_ = w;
  }

  // Per-window count of a row before the run: zero in a fresh window,
  // and for a row last activated in an older one.
  const auto count_before = [&](std::uint64_t row) -> std::uint64_t {
    return !fresh && row_window_[row] == w ? row_acts_[row] : 0;
  };
  // Targeted-refresh baselines of a row before the run (bases_of() with
  // the run's window in hand).
  const auto bases_before = [&](std::uint64_t row) {
    if (fresh || !neighbor_refresh_active_) return RefreshBases{};
    const RefreshBases& b = refresh_bases_[row];
    return b.window != w ? RefreshBases{} : b;
  };
  // Distinct pattern rows in first-seen order, with their counts before
  // and after the run; row_of maps each position to its distinct row.
  const std::uint64_t full_periods = by_P.div(n_cmds);
  const std::uint64_t rem_cmds = by_P.mod(n_cmds);
  s.distinct.clear();
  s.prow.clear();
  s.row_of.resize(P);
  for (std::uint64_t p = 0; p < P; ++p) {
    const std::uint64_t own = h * (full_periods + (p < rem_cmds ? 1 : 0));
    bool inserted = false;
    const std::size_t i = s.distinct.insert(rows[p], &inserted);
    if (inserted) {
      const std::uint64_t a0 = count_before(rows[p]);
      s.prow.push_back({rows[p], a0, a0 + own, 1, 0});
    } else {
      ++s.prow[i].n_pos;
      s.prow[i].acts_end += own;
    }
    s.row_of[p] = static_cast<std::uint32_t>(i);
  }
  const std::size_t n_rows = s.prow.size();
  // Each row's positions within a period, ascending, grouped by row.
  // Built on first use: a run whose victims all take an early-out and
  // that no mitigation refreshes never needs them.
  bool have_positions = false;
  const auto build_positions = [&] {
    if (have_positions) return;
    have_positions = true;
    std::uint64_t end = 0;
    for (PatternScratch::PatternRow& pr : s.prow) {
      end += pr.n_pos;
      pr.first = end;
    }
    s.pos.resize(P);
    for (std::uint64_t p = P; p-- > 0;) s.pos[--s.prow[s.row_of[p]].first] = p;
  };
  const auto positions = [&](std::size_t i) {
    return std::span<const std::uint64_t>(s.pos).subspan(s.prow[i].first,
                                                         s.prow[i].n_pos);
  };

  // Commands with index < t whose pattern position is in sorted list C.
  const auto cmds_before = [&](std::uint64_t t,
                               std::span<const std::uint64_t> C) {
    const std::uint64_t r = by_P.mod(t);
    std::uint64_t tail = 0;
    for (const std::uint64_t c : C) {
      if (c >= r) break;
      ++tail;
    }
    return by_P.div(t) * C.size() + tail;
  };
  // Activation count of pattern row i after event e (1-based),
  // counting event e itself.
  const auto count_at_event = [&](std::size_t i, std::uint64_t e) {
    const std::uint64_t t = by_h.div(e - 1);
    std::uint64_t cnt = s.prow[i].a0 + h * cmds_before(t, positions(i));
    if (s.row_of[by_P.mod(t)] == i) cnt += by_h.mod(e - 1) + 1;
    return cnt;
  };
  // Count of an arbitrary row at event e: pattern rows advance, every
  // other row is frozen for the whole run (zero in a fresh window).
  const auto row_count_at = [&](std::uint64_t row, std::uint64_t e) {
    const int i = s.distinct.find(row);
    return i >= 0 ? count_at_event(static_cast<std::size_t>(i), e)
                  : count_before(row);
  };

  // -- Replay the mitigation state machines over the run, collecting
  // targeted refreshes in scalar order (TRR fire before the PARA draw of
  // the same activation).
  s.points.clear();
  if (trr_.has_value()) {
    const std::uint32_t dist = config_.mitigations.trr_config.refresh_distance;
    s.banks.clear();
    for (const PatternScratch::PatternRow& pr : s.prow) {
      const auto b = static_cast<std::uint32_t>(by_bank.div(pr.row));
      if (std::find(s.banks.begin(), s.banks.end(), b) == s.banks.end()) {
        s.banks.push_back(b);
      }
    }
    for (const std::uint32_t b : s.banks) {
      // This bank's command subsequence within one pattern period.
      s.bank_pos.clear();
      s.bank_rows.clear();
      for (std::uint64_t p = 0; p < P; ++p) {
        if (by_bank.div(rows[p]) != b) continue;
        s.bank_pos.push_back(p);
        s.bank_rows.push_back(
            static_cast<std::uint32_t>(by_bank.mod(rows[p])));
      }
      const std::uint64_t m_b = s.bank_pos.size();
      const std::uint64_t events_b = h * cmds_before(n_cmds, s.bank_pos);
      if (events_b == 0) continue;
      trr_->advance_cmds(b, s.bank_rows, h, events_b, s.emissions);
      for (const TrrEmission& em : s.emissions) {
        // Bank-local activation k -> run event: k sits in the bank's
        // ((k-1)/h)-th command, which is run command q*P + bank_pos[i].
        const std::uint64_t j = (em.index - 1) / h;
        const std::uint64_t e =
            ((j / m_b) * P + s.bank_pos[j % m_b]) * h + (em.index - 1) % h + 1;
        s.points.push_back(RefreshPoint{
            e, static_cast<std::uint64_t>(b) * rows_per_bank + em.row, dist,
            0});
      }
    }
  }
  if (config_.mitigations.para_probability > 0.0) {
    const auto para_at = [&](std::uint64_t e) {
      s.points.push_back(
          RefreshPoint{e, rows[by_P.mod(by_h.div(e - 1))], 1, 1});
    };
    stats_.para_refreshes += para_events(E, para_at);
  }
  // Each bank's TRR emissions and the PARA draws come out in event
  // order; merge them by (event, TRR first).  No two points share both.
  const auto point_order = [](const RefreshPoint& x, const RefreshPoint& y) {
    return x.event != y.event ? x.event < y.event : x.source < y.source;
  };
  if (!std::is_sorted(s.points.begin(), s.points.end(), point_order)) {
    std::sort(s.points.begin(), s.points.end(), point_order);
  }

  // -- Per-victim refresh segment lists.  The refresh_bases_ writes
  // wait for the end of the run: the first segment must still read the
  // pre-run baselines.
  s.refreshed.clear();
  if (!s.points.empty()) build_positions();
  for (const RefreshPoint& rp : s.points) {
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
        bool inserted = false;
        const std::size_t li = s.refreshed.insert(*victim, &inserted);
        if (li == s.refresh_lists.size()) s.refresh_lists.emplace_back();
        std::vector<VictimRefresh>& list = s.refresh_lists[li];
        if (inserted) list.clear();
        if (!list.empty() && list.back().event == rp.event) {
          list.back().bases = nb;  // TRR + PARA hit it at the same event
        } else {
          list.push_back(VictimRefresh{rp.event, nb});
        }
      }
    }
  }

  // -- Closed-form victim check.  Within one refresh segment the
  // baselines are fixed and every count is nondecreasing in the event
  // index, so exposure is too: each crossing cell flips at the first
  // check whose exposure reaches its threshold (a binary search).
  const double hd_weight = disturbance_.profile().half_double_weight;
  const int max_dist = hd_weight > 0.0 ? 2 : 1;
  struct NeighborCount {
    std::uint64_t base = 0;  // frozen count (0 at a bank edge)
    int idx = -1;            // >= 0: pattern row (distinct index)
  };
  constexpr int kSlotDelta[4] = {-1, +1, -2, +2};  // scalar check order
  // Check `victim` (`in_bank` within its bank), reached from pattern row
  // `owner`; a victim several pattern rows reach is checked once, from
  // the first of them.
  const auto check = [&](std::uint64_t victim, std::uint64_t in_bank,
                         int owner) {
    if (!disturbance_.row_is_vulnerable(victim)) return;
    NeighborCount nc[4];  // left, right, left2, right2
    for (int k = 0; k < 2 * max_dist; ++k) {
      const int d = kSlotDelta[k];
      if (d < 0 ? in_bank < static_cast<std::uint64_t>(-d)
                : in_bank + static_cast<std::uint64_t>(d) >= rows_per_bank) {
        continue;  // bank edge: counts as zero
      }
      const std::uint64_t n = victim + static_cast<std::uint64_t>(
                                           static_cast<std::int64_t>(d));
      nc[k].idx = s.distinct.find(n);
      if (nc[k].idx < 0) {
        nc[k].base = count_before(n);
      } else if (nc[k].idx < owner) {
        return;  // an earlier pattern row checks it
      }
    }
    // Same arithmetic as the scalar check_victim: bit-exact, including
    // the uint64 sum in the Half-Double term.
    const auto exposure_of = [&](const std::uint64_t (&counts)[4],
                                 const RefreshBases& bases) {
      const std::uint64_t left =
          counts[0] > bases.left ? counts[0] - bases.left : 0;
      const std::uint64_t right =
          counts[1] > bases.right ? counts[1] - bases.right : 0;
      double exposure = disturbance_.effective_hammer(left, right);
      if (hd_weight > 0.0) {
        const std::uint64_t left2 =
            counts[2] > bases.left2 ? counts[2] - bases.left2 : 0;
        const std::uint64_t right2 =
            counts[3] > bases.right2 ? counts[3] - bases.right2 : 0;
        exposure += hd_weight * static_cast<double>(left2 + right2);
      }
      return exposure;
    };
    // Exact early-out: counts only grow within a window and targeted
    // refreshes only raise baselines, so the end-of-run counts against
    // the pre-run baselines bound every check of the run.
    const RefreshBases pre_bases = bases_before(victim);
    std::uint64_t end_counts[4];
    for (int k = 0; k < 4; ++k) {
      end_counts[k] =
          nc[k].idx >= 0 ? s.prow[static_cast<std::size_t>(nc[k].idx)].acts_end
                         : nc[k].base;
    }
    // Only this victim's own flips write its row, so a victim settled
    // under the bound stays settled for the whole run.
    if (victim_settled(victim, exposure_of(end_counts, pre_bases))) return;
    const auto& cells = disturbance_.cells(victim);

    // Pattern positions whose command checks this victim: those of the
    // pattern rows among its neighbors, merged in ascending order.
    build_positions();
    s.check_pos.clear();
    int sources = 0;
    for (int k = 0; k < 2 * max_dist; ++k) {
      if (nc[k].idx < 0) continue;
      const auto C = positions(static_cast<std::size_t>(nc[k].idx));
      s.check_pos.insert(s.check_pos.end(), C.begin(), C.end());
      ++sources;
    }
    if (sources > 1) std::sort(s.check_pos.begin(), s.check_pos.end());
    const std::span<const std::uint64_t> D = s.check_pos;
    const Divisor by_m_v(D.size());
    // Number of this victim's checks with event index <= e.
    const auto checks_up_to = [&](std::uint64_t e) -> std::uint64_t {
      if (e == 0) return 0;
      const std::uint64_t t = by_h.div(e - 1);
      std::uint64_t k = h * cmds_before(t, D);
      const std::uint32_t at = s.row_of[by_P.mod(t)];
      for (int j = 0; j < 2 * max_dist; ++j) {
        if (nc[j].idx == static_cast<int>(at)) {
          k += by_h.mod(e - 1) + 1;
          break;
        }
      }
      return k;
    };
    const auto event_of = [&](std::uint64_t k) {  // k-th check, 1-based
      const std::uint64_t j = by_h.div(k - 1);  // victim-check command index
      return (by_m_v.div(j) * P + D[by_m_v.mod(j)]) * h + by_h.mod(k - 1) +
             1;
    };
    const std::uint64_t checks = checks_up_to(E);
    if (checks == 0) return;
    const auto exposure_at = [&](std::uint64_t e, const RefreshBases& bases) {
      std::uint64_t counts[4];
      for (int k = 0; k < 4; ++k) {
        counts[k] = nc[k].idx >= 0
                        ? count_at_event(static_cast<std::size_t>(nc[k].idx), e)
                        : nc[k].base;
      }
      return exposure_of(counts, bases);
    };

    RowData* rd = nullptr;
    // Check-slot of this victim at event e: its position in the scalar
    // left/right/left2/right2 sequence of the activated row.
    const auto slot_at = [&](std::uint64_t e) {
      const std::uint64_t agg = rows[by_P.mod(by_h.div(e - 1))];
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
      s.pending.push_back(PendingFlip{
          .event = event_offset + e,
          .slot = slot_at(e),
          .flip = FlipEvent{.time_ns = cmd_times[by_h.div(e - 1)],
                            .global_row = victim,
                            .byte_offset = cell.byte_offset,
                            .bit = cell.bit,
                            .new_value = cell.failure_value}});
    };

    // Walk the segments between consecutive targeted refreshes of this
    // victim.  A refresh at event r re-baselines *before* the victim
    // check of event r runs in the scalar path, so the segment boundary
    // is [r_prev, r-1], [r, ...].
    std::span<const VictimRefresh> refreshes;
    if (!s.points.empty()) {
      const int ri = s.refreshed.find(victim);
      if (ri >= 0) refreshes = s.refresh_lists[static_cast<std::size_t>(ri)];
    }
    std::uint64_t seg_start = 1;
    RefreshBases bases = pre_bases;
    for (std::size_t si = 0;; ++si) {
      const std::uint64_t seg_end =
          si < refreshes.size() ? refreshes[si].event - 1 : E;
      const std::uint64_t k_lo = checks_up_to(seg_start - 1) + 1;
      const std::uint64_t k_hi =
          seg_end == E ? checks : std::min(checks, checks_up_to(seg_end));
      if (k_lo <= k_hi) {
        const double exposure_last = exposure_at(event_of(k_hi), bases);
        if (exposure_last >= disturbance_.min_threshold(victim)) {
          if (rd == nullptr) rd = &materialize(victim);
          // Two cells aliasing the same (byte, bit) with opposite
          // failure values re-flip each other at every check; the closed
          // form assumes each bit flips at most once per segment, so
          // alias cases replay the per-check loop exactly.
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
              if (cell.threshold > exposure_last) break;  // sorted ascending
              const std::uint8_t current =
                  (rd->data[cell.byte_offset] >> cell.bit) & 1u;
              if (current == cell.failure_value) continue;  // decayed
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
  // Candidate victims: every row within disturbance distance of a
  // pattern row (pattern rows themselves included — adjacent aggressors
  // disturb each other).
  for (std::size_t i = 0; i < n_rows; ++i) {
    const std::uint64_t r = s.prow[i].row;
    const std::uint64_t r_in_bank = by_bank.mod(r);
    for (std::uint64_t d = 1; d <= static_cast<std::uint64_t>(max_dist);
         ++d) {
      if (r_in_bank >= d) check(r - d, r_in_bank - d, static_cast<int>(i));
      if (r_in_bank + d < rows_per_bank) {
        check(r + d, r_in_bank + d, static_cast<int>(i));
      }
    }
  }

  // -- Write back: each activated row's per-window count and each
  // refreshed victim's baselines from its last targeted refresh.
  for (const PatternScratch::PatternRow& pr : s.prow) {
    if (pr.acts_end == pr.a0) continue;  // not activated in this run
    if (s.undo) {
      s.row_undo.push_back({pr.row, row_window_[pr.row], row_acts_[pr.row]});
    }
    row_window_[pr.row] = w;
    row_acts_[pr.row] = pr.acts_end;
  }
  for (std::size_t i = 0; i < s.refreshed.size(); ++i) {
    const std::uint64_t v = s.refreshed.keys()[i];
    if (s.undo) s.bases_undo.push_back({v, refresh_bases_[v]});
    refresh_bases_[v] = s.refresh_lists[i].back().bases;
  }
}

std::uint32_t DramDevice::decode_row(DramAddr addr) const {
  const std::uint64_t a = addr.value();
  return static_cast<std::uint32_t>(
      mapper_->decode(DramAddr(a - a % config_.geometry.row_bytes))
          .global_row(config_.geometry));
}

bool DramDevice::reads_replayable(std::span<const DramAddr> entries,
                                  std::uint32_t bytes) const {
  RHSD_CHECK(bytes > 0);
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  for (const DramAddr addr : entries) {
    const std::uint64_t a = addr.value();
    const auto off = static_cast<std::uint32_t>(a % row_bytes);
    if (off + bytes > row_bytes) return false;
    if (cache_.has_value()) {
      // One line per touch, resident: a guaranteed hit.
      constexpr std::uint32_t line = CacheConfig::kLineBytes;
      if (a / line != (a + bytes - 1) / line || !cache_->contains(addr)) {
        return false;
      }
    }
    if (!config_.mitigations.ecc) continue;
    const RowData* rd = row_data_[row_of(addr)].get();
    if (rd == nullptr || rd->data.empty()) continue;  // clean by construction
    for (std::uint32_t w = off / 8; w <= (off + bytes - 1) / 8; ++w) {
      if (SecdedDecode(LoadWord(&rd->data[w * 8]), rd->ecc[w]).status !=
          SecdedStatus::kOk) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t DramDevice::read_fault_horizon(std::uint64_t touches) const {
  if (injector_ == nullptr) return FaultInjector::kNoFault;
  const std::uint64_t away =
      injector_->ops_until_fault(FaultClass::kDramBitError);
  if (away == FaultInjector::kNoFault) return away;
  return away / read_ticks_per_cmd(touches);
}

bool DramDevice::replay_reads(std::span<const DramAddr> entries,
                              std::uint64_t start, std::uint64_t n_cmds,
                              std::uint64_t touches, const CmdTimes& cmd_times,
                              std::span<const PatternHazard> hazards) {
  RHSD_CHECK(!entries.empty());
  RHSD_CHECK(touches > 0);
  if (n_cmds == 0) return true;
  const std::uint64_t P = entries.size();
  if (!cache_.has_value()) {
    // The entries' rows, rotated so the pattern starts at `start`'s
    // position; the hazard list is row-keyed and unaffected.
    std::vector<std::uint64_t>& rows = scratch_->entry_rows;
    rows.resize(P);
    for (std::uint64_t i = 0; i < P; ++i) {
      rows[i] = row_of(entries[(start + i) % P]);
    }
    if (!hammer_pattern(rows, n_cmds, touches, cmd_times, hazards)) {
      return false;
    }
  } else {
    // All hits: no activations.  Each touched line ends with the LRU
    // stamp of its last touch, the last touch of the last chunk command
    // reading any entry in it (chunk command c reads entries[(start + c)
    // % P]).  A line is handled at its first position in the pattern.
    constexpr std::uint32_t line = CacheConfig::kLineBytes;
    const std::uint64_t use_before = cache_->use_counter();
    const std::uint64_t s0 = start % P;
    for (std::uint64_t q = 0; q < P; ++q) {
      const std::uint64_t id = entries[q].value() / line;
      bool seen = false;
      for (std::uint64_t q2 = 0; q2 < q && !seen; ++q2) {
        seen = entries[q2].value() / line == id;
      }
      if (seen) continue;
      std::uint64_t last = 0;
      bool touched = false;
      for (std::uint64_t q2 = q; q2 < P; ++q2) {
        if (entries[q2].value() / line != id) continue;
        const std::uint64_t c0 = (q2 + P - s0) % P;
        if (c0 >= n_cmds) continue;
        last = std::max(last, c0 + (n_cmds - 1 - c0) / P * P);
        touched = true;
      }
      if (touched) {
        cache_->set_last_use(entries[q], use_before + (last + 1) * touches);
      }
    }
    cache_->account_hits(n_cmds * touches);
    stats_.cache_hits = cache_->hits();
    stats_.cache_misses = cache_->misses();
  }
  stats_.reads += n_cmds * touches;
  if (injector_ != nullptr) {
    injector_->skip_ops(FaultClass::kDramBitError,
                        n_cmds * read_ticks_per_cmd(touches));
  }
  return true;
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

Status DramDevice::read(DramAddr addr, std::span<std::uint8_t> out,
                        std::uint64_t touches) {
  RHSD_CHECK(touches > 0);
  if (!amplified(addr, out.size(), touches)) {
    for (std::uint64_t i = 0; i < touches; ++i) {
      RHSD_RETURN_IF_ERROR(read_once(addr, out));
    }
    return Status::Ok();
  }
  // The data access once; the touches' activations cannot change what
  // it reads (they disturb only the row's neighbors), so they replay
  // afterwards as one 1-row pattern.
  const std::uint64_t a = addr.value();
  const std::uint64_t row = row_of(addr);
  const auto off = static_cast<std::uint32_t>(a % config_.geometry.row_bytes);
  tick_read_fault(addr, out);
  RowData* rd = row_data_[row].get();
  if (const Status s = verify_and_correct_ecc(
          rd, off, static_cast<std::uint32_t>(out.size()), row);
      !s.ok()) {
    ++stats_.reads;  // the first touch fails: its activation only
    activate(row);
    return s;
  }
  if (rd == nullptr || rd->data.empty()) {
    std::memset(out.data(), 0, out.size());
  } else {
    std::memcpy(out.data(), rd->data.data() + off, out.size());
  }
  stats_.reads += touches;
  // Without hazards the replay cannot abort.
  const bool ok = hammer_pattern({&row, 1}, touches, 1,
                                 CmdTimes{clock_.now_ns(), 0, touches}, {});
  RHSD_CHECK(ok);
  return Status::Ok();
}

Status DramDevice::write(DramAddr addr, std::span<const std::uint8_t> data,
                         std::uint64_t touches) {
  RHSD_CHECK(touches > 0);
  if (!amplified(addr, data.size(), touches)) {
    for (std::uint64_t i = 0; i < touches; ++i) {
      RHSD_RETURN_IF_ERROR(write_once(addr, data));
    }
    return Status::Ok();
  }
  const std::uint64_t a = addr.value();
  const std::uint64_t row = row_of(addr);
  const auto off = static_cast<std::uint32_t>(a % config_.geometry.row_bytes);
  RowData& rd = materialize(row);
  std::memcpy(rd.data.data() + off, data.data(), data.size());
  update_ecc(rd, off, static_cast<std::uint32_t>(data.size()));
  stats_.writes += touches;
  const bool ok = hammer_pattern({&row, 1}, touches, 1,
                                 CmdTimes{clock_.now_ns(), 0, touches}, {});
  RHSD_CHECK(ok);
  return Status::Ok();
}

bool DramDevice::amplified(DramAddr addr, std::size_t bytes,
                           std::uint64_t touches) const {
  // Cache state evolves per access, and a span touching two adjacent
  // rows lets each touch disturb data it then reads: those touches stay
  // scalar, as do single touches (the parity oracle) and empty spans.
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  const std::uint64_t a = addr.value();
  return touches > 1 && bytes > 0 && !cache_.has_value() &&
         a + bytes <= config_.geometry.total_bytes() &&
         a / row_bytes == (a + bytes - 1) / row_bytes;
}

void DramDevice::tick_read_fault(DramAddr addr,
                                 std::span<const std::uint8_t> out) {
  if (injector_ == nullptr) return;
  if (const auto fault = injector_->tick(FaultClass::kDramBitError);
      fault.has_value() && !out.empty()) {
    // Transient (soft) bit error: flip one stored bit, leaving the
    // check bytes untouched so SECDED sees a genuine mismatch — the
    // same corruption shape as a disturbance flip.  param selects the
    // bit (low 3 bits) and the byte within the accessed span.
    const std::uint64_t target =
        addr.value() + (fault->param >> 3) % out.size();
    RowData& rd = materialize(row_of(DramAddr(target)));
    rd.data[target % config_.geometry.row_bytes] ^=
        static_cast<std::uint8_t>(1u << (fault->param & 7));
    ++stats_.injected_bit_errors;
  }
}

Status DramDevice::read_once(DramAddr addr, std::span<std::uint8_t> out) {
  if (addr.value() + out.size() > config_.geometry.total_bytes()) {
    return OutOfRange("DRAM read past end of device");
  }
  ++stats_.reads;
  tick_read_fault(addr, out);
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  std::uint64_t a = addr.value();
  std::size_t done = 0;
  while (done < out.size()) {
    const auto off = static_cast<std::uint32_t>(a % row_bytes);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(row_bytes - off, out.size() - done));
    const std::uint64_t grow = row_of(DramAddr(a));

    bool need_activate = true;
    if (cache_.has_value()) {
      need_activate = false;
      constexpr std::uint32_t line = CacheConfig::kLineBytes;
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

Status DramDevice::write_once(DramAddr addr,
                              std::span<const std::uint8_t> data) {
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
    const std::uint64_t grow = row_of(DramAddr(a));

    if (cache_.has_value()) {
      // Write-invalidate, mirroring the paper's modified SPDK which
      // invalidates cached L2P entries on access.
      constexpr std::uint32_t line = CacheConfig::kLineBytes;
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

void DramDevice::peek(DramAddr addr, std::span<std::uint8_t> out) const {
  RHSD_CHECK(addr.value() + out.size() <= config_.geometry.total_bytes());
  const std::uint32_t row_bytes = config_.geometry.row_bytes;
  std::uint64_t a = addr.value();
  std::size_t done = 0;
  while (done < out.size()) {
    const auto off = static_cast<std::uint32_t>(a % row_bytes);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(row_bytes - off, out.size() - done));
    const RowData* rd = row_data_[row_of(DramAddr(a))].get();
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
    RowData& rd = materialize(row_of(DramAddr(a)));
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
