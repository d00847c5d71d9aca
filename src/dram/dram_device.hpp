// Functional DRAM device with rowhammer disturbance.
//
// Backs real bytes (lazily, per row), counts row activations per refresh
// window, and applies the DisturbanceModel on every activation: when the
// effective exposure of an adjacent victim row crosses a vulnerable
// cell's threshold, the stored bit decays to its failure value.  Flips
// therefore corrupt whatever the row currently holds — in the SSD
// configuration, the FTL's L2P table — organically rather than by fault
// injection.
//
// The memory controller is closed-page, like the simple embedded
// controllers in SSDs: it precharges after every access, so every access
// that reaches the arrays activates its row (which is what makes §3.1's
// one-location variant viable).
//
// One closed-form hammer engine, bit-exact with the scalar path:
//  * the scalar path — one access activates rows one at a time and runs
//    a victim check per activation (hammer_pair_scalar() and
//    hammer_row_scalar() drive it as the test oracle);
//  * the pattern replay — a periodic activation stream (command c
//    hammers rows[c % P] `repeat` times) applied as one row-state update
//    plus a closed-form victim check per refresh-window run.  One-,
//    double- and many-sided hammering are its 1-, 2- and N-row cases:
//    the repeated touches of one read()/write() call and hammer_row()
//    replay one row, hammer_pair() the pair {a, b}, and replay_reads()
//    the FTL's whole read patterns.  Same seed, same FlipEvent
//    sequence, same DramStats as the scalar path.
//
// The FTL makes one call per L2P access (read()/write() with the
// firmware's touch count) and one per replayed chunk of a read pattern
// (replay_reads(), after reads_replayable() and read_fault_horizon()):
// how a stream of touches is accounted — reads, fault-injector ticks,
// cache LRU stamps, ECC state — is decided here only.
//
// Optional mitigations (all off by default, matching the paper's
// testbed): SECDED ECC, TRR, PARA, a CPU cache in front of the arrays,
// and a refresh-interval override.  TRR and PARA have per-activation
// state, but under a periodic stream that state evolves
// deterministically: the replay advances the TRR tracker analytically
// (TrrTracker::advance_cmds), draws the stream's PARA decisions in one
// Rng::bernoulli_hits scan (same hits, same final RNG state as one
// para_decide() per activation; 16 jump-ahead lanes in vector registers
// from 4,096 draws up), and runs the closed-form victim check on the
// segments between the resulting targeted refreshes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "dram/address_mapper.hpp"
#include "dram/cache_model.hpp"
#include "dram/disturbance_model.hpp"
#include "dram/profiles.hpp"
#include "dram/trr.hpp"
#include "fault/fault_injector.hpp"

namespace rhsd {

struct DramMitigations {
  bool ecc = false;
  bool trr = false;
  TrrConfig trr_config;
  std::optional<CacheConfig> cache;
  /// PARA (probabilistic adjacent row activation): on each activation,
  /// refresh the neighbors with this probability.  0 disables.  Unlike
  /// TRR there is no tracker state to thrash, so many-sided patterns
  /// gain nothing; the cost is a steady refresh overhead on every
  /// access.
  double para_probability = 0.0;
  /// 0 = use profile's refresh interval; otherwise override (ms).
  double refresh_interval_ms_override = 0.0;
};

struct DramConfig {
  DramGeometry geometry;
  DramProfile profile;
  std::uint64_t seed = 1;
  DramMitigations mitigations;
};

struct DramStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t activations = 0;
  /// Always 0 (the controller is closed-page); kept because perfbench's
  /// output digest names it.
  std::uint64_t row_buffer_hits = 0;
  std::uint64_t bitflips = 0;
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_uncorrectable = 0;
  std::uint64_t trr_refreshes = 0;
  std::uint64_t para_refreshes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t injected_bit_errors = 0;  // fault-injected soft errors
};

/// A byte range of one row in which a batched pattern replay must not
/// produce a disturbance flip (it would feed back into the replayed
/// commands themselves — e.g. an L2P entry the pattern keeps reading).
/// hammer_pattern() aborts without side effects if a flip lands inside.
struct PatternHazard {
  std::uint64_t global_row = 0;
  std::uint32_t byte_lo = 0;  // inclusive
  std::uint32_t byte_hi = 0;  // exclusive
};

/// Simulated times of a replayed chunk's commands, nondecreasing: an
/// explicit `head` followed by the arithmetic tail t0, t0 + stride, ...
/// of `count` terms.  Without a rate limiter the head is empty; with
/// one it holds the commands before the token bucket's stall settles
/// (the burst), and the tail's stride is service time plus that stall.
/// A view: the head's storage must outlive it.
struct CmdTimes {
  std::span<const std::uint64_t> head;
  std::uint64_t t0 = 0;
  std::uint64_t stride = 0;
  std::uint64_t count = 0;

  [[nodiscard]] std::uint64_t size() const { return head.size() + count; }
  [[nodiscard]] std::uint64_t operator[](std::uint64_t i) const {
    return i < head.size() ? head[i] : t0 + (i - head.size()) * stride;
  }
  /// Commands [lo, lo + n).  Requires lo + n <= size().
  [[nodiscard]] CmdTimes sub(std::uint64_t lo, std::uint64_t n) const {
    if (lo >= head.size()) {
      return {{}, t0 + (lo - head.size()) * stride, stride, n};
    }
    const std::uint64_t in_head =
        std::min<std::uint64_t>(n, head.size() - lo);
    return {head.subspan(lo, in_head), t0, stride, n - in_head};
  }
  /// Index of the first command at or after time t (size() if none): a
  /// binary search in the head, a ceiling division in the tail.
  [[nodiscard]] std::uint64_t first_at_or_after(std::uint64_t t) const {
    const auto it = std::lower_bound(head.begin(), head.end(), t);
    if (it != head.end()) {
      return static_cast<std::uint64_t>(it - head.begin());
    }
    if (count == 0 || t <= t0) return head.size();
    if (stride == 0) return size();
    return head.size() + std::min(count, (t - t0 + stride - 1) / stride);
  }
};

/// One disturbance-induced bitflip, for scanning and experiment output.
struct FlipEvent {
  std::uint64_t time_ns = 0;
  std::uint64_t global_row = 0;
  std::uint32_t byte_offset = 0;  // within the row
  std::uint8_t bit = 0;
  std::uint8_t new_value = 0;
};

class DramDevice {
 public:
  /// `clock` must outlive the device. The mapper's geometry must equal
  /// config.geometry.
  DramDevice(DramConfig config, std::unique_ptr<AddressMapper> mapper,
             SimClock& clock);

  ~DramDevice();
  DramDevice(const DramDevice&) = delete;
  DramDevice& operator=(const DramDevice&) = delete;

  /// Read bytes `touches` times back to back (firmware touching one L2P
  /// entry several times per command).  A touch activates each row it
  /// touches (unless the cache absorbs it), ticks the fault injector
  /// and verifies ECC.  The touches after the first replay as the 1-row
  /// pattern when the span lies in one row and no cache is configured:
  /// they then cannot change the buffer, the ECC state or the outcome,
  /// so only their activations remain.  Otherwise each is a further
  /// scalar touch.  Returns Corruption, after the failing touch, if ECC
  /// detects an uncorrectable error.  DramStats::reads counts every
  /// touch issued, a failing one included.
  Status read(DramAddr addr, std::span<std::uint8_t> out,
              std::uint64_t touches = 1);

  /// Write bytes `touches` times.  Always activates the touched rows;
  /// the touches after the first follow read()'s rule (rewriting
  /// identical bytes is idempotent).  DramStats::writes counts touches.
  Status write(DramAddr addr, std::span<const std::uint8_t> data,
               std::uint64_t touches = 1);

  /// `pairs` alternating activations of the two aggressors (a, b, a, b,
  /// ... — 2*pairs accesses): the 2-row pattern {a, b}, replayed in
  /// closed form.
  void hammer_pair(std::uint64_t row_a, std::uint64_t row_b,
                   std::uint64_t pairs);
  /// `count` back-to-back activations of one row (one-location
  /// hammering): the 1-row pattern.
  void hammer_row(std::uint64_t global_row, std::uint64_t count);

  /// Scalar reference implementations of hammer_pair()/hammer_row():
  /// one activation at a time, one victim check per activation.  Used
  /// by the parity tests and the microbenchmarks; always produce the
  /// same FlipEvents and DramStats as the replayed versions.
  void hammer_pair_scalar(std::uint64_t row_a, std::uint64_t row_b,
                          std::uint64_t pairs);
  void hammer_row_scalar(std::uint64_t global_row, std::uint64_t count);

  /// Batched replay of an activation pattern (replay_reads() feeds it
  /// uncached FTL read-pattern chunks): command c (0-based,
  /// c < n_cmds) activates rows[c % rows.size()] `repeat` times, i.e.
  /// the activation stream is rows[0]*repeat, rows[1]*repeat, ...,
  /// wrapping around the pattern — exactly what `n_cmds` scalar
  /// unmapped-L2P reads with per-I/O hammer amplification produce.
  /// `cmd_times[c]` is the simulated time of command c's DRAM work
  /// (used to stamp FlipEvents and to place each command in its refresh
  /// window); cmd_times.size() == n_cmds.  Apart from the PARA draws
  /// (one Rng::bernoulli_hits scan per window, ~0.45 ns per activation
  /// with AVX-512 in a window of 4,096 or more), host work scales with
  /// the pattern's rows, the windows crossed, the refreshes and the
  /// flips, not with n_cmds.  Commands may span
  /// refresh-window boundaries: the replay splits the stream into
  /// maximal same-window runs internally, and a run in a window beyond
  /// the clock's current one starts from zeroed per-window counters,
  /// baselines, and a freshly reset TRR tracker — exactly what the
  /// scalar walk's roll_window() would produce.  The first command must
  /// fall in the clock's current refresh window.
  /// Precondition: no cache (the entry points that resolve cache
  /// fallbacks first — hammer_pair(), hammer_row(), read()/write() with
  /// touches — reach the same replay core without it).
  /// Bit-exact with the scalar loop: same flips in the same order, same
  /// DramStats, same TRR/PARA state.
  ///
  /// Returns false and leaves the device completely untouched if a flip
  /// would land inside one of `hazards` — the caller must then replay
  /// the chunk through the scalar path (the flip feeds back into data
  /// the pattern reads, which only the scalar path models).
  [[nodiscard]] bool hammer_pattern(std::span<const std::uint64_t> rows,
                                    std::uint64_t n_cmds,
                                    std::uint64_t repeat, CmdTimes cmd_times,
                                    std::span<const PatternHazard> hazards);

  /// The FTL's read patterns, one call each.  Such a stream is a run of
  /// commands where command g reads `bytes` at entries[g % P], P =
  /// entries.size(), with `touches` touches: the L2P lookups of a round
  /// of reads of unmapped LBAs.
  ///
  /// True when the stream replays exactly from the current state: every
  /// entry lies in one row; with a cache, in one resident line (every
  /// touch hits and nothing activates); and with ECC every entry's check
  /// words are consistent (a scalar read's verify would be a no-op).
  /// Pure check.
  [[nodiscard]] bool reads_replayable(std::span<const DramAddr> entries,
                                      std::uint32_t bytes) const;
  /// Commands of such a stream that run before the next injected bit
  /// error (0 = the very next command carries it), or
  /// FaultInjector::kNoFault.
  [[nodiscard]] std::uint64_t read_fault_horizon(
      std::uint64_t touches) const;
  /// Replay commands [start, start + n_cmds) of such a stream in closed
  /// form, bit-exact with n_cmds read() calls of `touches` touches: same
  /// DramStats, flips, cache LRU state and fault-op alignment.  Without
  /// a cache the stream is the entries' row pattern, rotated to start,
  /// through the hammer_pattern() engine (`cmd_times`, `hazards` and the
  /// abort as there: false leaves the device untouched); with one, it
  /// is pure hit accounting plus the LRU stamp each line's last touch
  /// leaves.  Preconditions: reads_replayable(), n_cmds at most
  /// read_fault_horizon().  No allocation once the scratch has grown.
  [[nodiscard]] bool replay_reads(std::span<const DramAddr> entries,
                                  std::uint64_t start, std::uint64_t n_cmds,
                                  std::uint64_t touches,
                                  const CmdTimes& cmd_times,
                                  std::span<const PatternHazard> hazards);

  /// Inspect memory without activations, stats, or ECC (for tests and
  /// experiment harnesses, not part of the modeled device interface).
  void peek(DramAddr addr, std::span<std::uint8_t> out) const;
  /// peek() with the address already decoded: read `out.size()` bytes at
  /// `offset` within `global_row` (must not cross the row end).  Lets
  /// bulk table walks — the FTL's integrity scrub — skip the per-call
  /// address decode.
  void peek_row(std::uint64_t global_row, std::uint32_t offset,
                std::span<std::uint8_t> out) const;
  /// Modify memory without activations; updates ECC check bits.
  void poke(DramAddr addr, std::span<const std::uint8_t> data);

  [[nodiscard]] const DramConfig& config() const { return config_; }
  [[nodiscard]] const AddressMapper& mapper() const { return *mapper_; }
  [[nodiscard]] const SimClock& clock() const { return clock_; }
  [[nodiscard]] const DramStats& stats() const { return stats_; }
  [[nodiscard]] DisturbanceModel& disturbance() { return disturbance_; }

  [[nodiscard]] const std::vector<FlipEvent>& flip_events() const {
    return flip_events_;
  }
  void clear_flip_events() { flip_events_.clear(); }

  /// Monotonic signature of stored-content mutations: host writes,
  /// committed disturbance flips, ECC in-place corrections, injected
  /// soft errors, and debug pokes.  Two equal readings prove the memory
  /// content is unchanged between them — the FTL's integrity scrub uses
  /// this to skip re-verifying a table nothing has touched.
  [[nodiscard]] std::uint64_t content_epoch() const {
    return stats_.writes + stats_.bitflips + stats_.ecc_corrected +
           stats_.injected_bit_errors + pokes_;
  }

  /// Activations of `global_row` in the current refresh window.
  [[nodiscard]] std::uint64_t row_activations(std::uint64_t global_row);

  /// Refresh interval actually in effect (ns).
  [[nodiscard]] std::uint64_t refresh_window_ns() const {
    return window_ns_;
  }

  /// Attach a fault injector (nullptr detaches).  Consulted once per
  /// read(); an injected FaultClass::kDramBitError flips one stored bit
  /// without updating the check bytes — indistinguishable from a
  /// disturbance flip to the ECC machinery.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

 private:
  /// Lazily allocated backing store of one row.
  struct RowData {
    std::vector<std::uint8_t> data;
    std::vector<std::uint8_t> ecc;  // one check byte per 8 data bytes
  };

  /// Exposure baselines: neighbor activation counts at the last
  /// targeted refresh of a row (TRR/PARA), valid only within `window`.
  /// The `2` pair covers distance-2 neighbors (Half-Double).  Rows
  /// without an entry (or with a stale one) have all-zero baselines.
  struct RefreshBases {
    std::uint64_t window = ~0ull;
    std::uint64_t left = 0;
    std::uint64_t right = 0;
    std::uint64_t left2 = 0;
    std::uint64_t right2 = 0;
  };

  /// A bitflip produced inside a replay, waiting for the global
  /// (event, check-slot) sort that restores scalar emission order.
  struct PendingFlip {
    std::uint64_t event = 0;  // 1-based activation index within the call
    int slot = 0;             // victim check order within one activation
    FlipEvent flip;
  };

  [[nodiscard]] std::uint64_t current_window() const {
    return clock_.now_ns() / window_ns_;
  }

  /// One touch of read()/write().
  Status read_once(DramAddr addr, std::span<std::uint8_t> out);
  Status write_once(DramAddr addr, std::span<const std::uint8_t> data);
  /// The touches after the first of a read()/write() of `bytes` at
  /// `addr`: replays `extra` of them as the 1-row pattern and returns
  /// true when the span lies in one row and no cache is configured (an
  /// empty span touches no row); otherwise returns false and leaves them
  /// to the caller as scalar touches.
  bool repeat_in_row(DramAddr addr, std::size_t bytes, std::uint64_t extra);
  /// Fault-injector ticks per command of `touches` touches replayed by
  /// replay_reads(): read_once() ticks FaultClass::kDramBitError once
  /// per call, which is every touch with a cache and only the first one
  /// without (repeat_in_row() ticks nothing).
  [[nodiscard]] std::uint64_t read_ticks_per_cmd(std::uint64_t touches) const {
    return cache_.has_value() ? touches : 1;
  }
  /// Global row holding `addr`.
  [[nodiscard]] std::uint64_t row_of(DramAddr addr) const;

  void roll_window(std::uint64_t global_row);
  RowData& materialize(std::uint64_t global_row);
  [[nodiscard]] RefreshBases bases_of(std::uint64_t global_row) const;
  /// One PARA decision from the global RNG (one draw per decision for p
  /// in (0,1); p >= 1 decides true without drawing).
  [[nodiscard]] bool para_decide();
  /// The PARA decisions of `events` consecutive activations, drawn
  /// exactly as `events` para_decide() calls would (one
  /// Rng::bernoulli_hits scan): calls at(e) for each 1-based event e
  /// that refreshes its neighbors, in order, and returns their count.
  template <typename Fn>
  std::uint64_t para_events(std::uint64_t events, Fn&& at);

  /// Per-window activation count, rolling the window first.
  std::uint64_t acts_now(std::uint64_t global_row);

  void activate(std::uint64_t global_row);
  void check_victim(std::uint64_t victim_global_row);
  void target_refresh_neighbors(std::uint64_t aggressor_global_row,
                                std::uint32_t distance);

  /// One targeted refresh of a victim row inside a replay: the 1-based
  /// activation index at which it fired, and the re-baselined counts it
  /// left behind.  The victim check treats the replay as segments
  /// between consecutive refreshes, each with its own baselines.
  struct VictimRefresh {
    std::uint64_t event = 0;
    RefreshBases bases;
  };

  /// The activation sequence a, b, a, b, ... of `events` activations
  /// (a == b means one-location), replayed as the 1- or 2-row pattern.
  void hammer_events(std::uint64_t a, std::uint64_t b, std::uint64_t events);
  /// The replay core behind hammer_pattern() and hammer_events(), with
  /// hammer_pattern()'s contract minus its cache precondition: every
  /// command is an activation.
  [[nodiscard]] bool replay_pattern(std::span<const std::uint64_t> rows,
                                    std::uint64_t n_cmds, std::uint64_t repeat,
                                    const CmdTimes& cmd_times,
                                    std::span<const PatternHazard> hazards);
  /// One maximal same-window run of a replay: advances the mitigation
  /// state, applies flips to row bytes (queuing their events), and
  /// writes back its rows' counts and baselines, logging what they
  /// replace when the call has hazards.
  void replay_window_run(std::span<const std::uint64_t> rows,
                         std::uint64_t n_cmds, std::uint64_t h,
                         const CmdTimes& cmd_times, std::uint64_t w,
                         bool fresh, std::uint64_t event_offset);
  struct PatternScratch;

  /// Neighbor within the same bank, or nullopt at bank edges.
  [[nodiscard]] std::optional<std::uint64_t> neighbor(
      std::uint64_t global_row, int delta) const;

  Status verify_and_correct_ecc(RowData* rd, std::uint32_t first_byte,
                                std::uint32_t length, std::uint64_t row);
  void update_ecc(RowData& rd, std::uint32_t first_byte,
                  std::uint32_t length);

  DramConfig config_;
  std::unique_ptr<AddressMapper> mapper_;
  FaultInjector* injector_ = nullptr;
  SimClock& clock_;
  DisturbanceModel disturbance_;
  std::optional<TrrTracker> trr_;
  std::optional<CacheModel> cache_;
  std::uint64_t window_ns_ = 0;
  std::uint64_t trr_window_ = ~0ull;
  Rng para_rng_{0};  // re-seeded from config in the constructor
  /// Rng::bool_threshold(para_probability) when it lies in (0,1); the
  /// hot para_decide() path compares against this instead of re-doing
  /// the float comparison per draw.
  std::uint64_t para_threshold_ = 0;
  std::vector<std::uint64_t> para_hits_;  // para_events() scratch
  DramStats stats_;
  std::vector<FlipEvent> flip_events_;
  std::uint64_t pokes_ = 0;  // content mutations via poke()

  // Flat per-row hot state (indexed by global row id).  The activation
  // path touches only these three arrays plus the disturbance model's
  // flat caches — no hashing.
  std::vector<std::uint64_t> row_window_;  // ~0 = never touched
  std::vector<std::uint64_t> row_acts_;
  std::vector<std::unique_ptr<RowData>> row_data_;
  /// Sparse: only rows that received a targeted refresh (TRR/PARA).
  std::unordered_map<std::uint64_t, RefreshBases> refresh_bases_;
  /// True iff TRR or PARA can write refresh_bases_; when false the
  /// activation path skips the baseline lookup entirely.
  bool neighbor_refresh_active_ = false;
  std::unique_ptr<PatternScratch> scratch_;  // replay storage
};

}  // namespace rhsd
