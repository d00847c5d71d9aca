// Flash Translation Layer.
//
// Page-level log-structured FTL (§2.1): logical block addresses map to
// physical NAND pages through the L2P table, which lives in the SSD's
// *simulated DRAM* — so every host read performs a real DRAM access
// (row activation) to fetch the mapping, and every write performs one to
// update it.  That access stream is the paper's rowhammer vector: the
// attacker chooses LBAs purely to steer which DRAM rows get activated.
//
// `hammers_per_io` reproduces the paper's amplification ("we manually
// amplified each L2P row activation — 5 hammers per I/O request", §4.1),
// modeling firmware that touches the entry several times per command.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "dram/dram_device.hpp"
#include "fault/fault_injector.hpp"
#include "ftl/l2p_journal.hpp"
#include "ftl/l2p_layout.hpp"
#include "nand/nand_device.hpp"

namespace rhsd {

struct FtlConfig {
  /// Logical capacity in 4 KiB pages (1 GiB SSD => 262144).  The L2P
  /// table starts at DRAM address 0.
  std::uint64_t num_lbas = (1 * kGiB) / kBlockSize;
  L2pLayoutKind layout = L2pLayoutKind::kLinear;
  std::uint64_t device_key = 0;  // for the hashed layout
  /// DRAM touches per L2P access (paper's 5× amplification; 1 = none).
  std::uint32_t hammers_per_io = 1;
  /// Page-level BCH-style ECC budget: NAND reads whose sampled raw bit
  /// errors exceed this count fail as Corruption ("uncorrectable flash
  /// error").  Only meaningful when the NAND has a reliability model.
  std::uint32_t page_ecc_correctable_bits = 72;
  /// §5 mitigation ("block data integrity [41] … relying on the block's
  /// LBA"): verify the per-page reference tag (OOB LPN) on reads, so a
  /// misdirected mapping surfaces as Corruption instead of wrong data.
  bool t10_reference_tag = false;
  /// §5 mitigation ("encryption [32] algorithms … relying on the
  /// block's LBA to … encrypt block data"): XTS-style per-LBA tweaked
  /// encryption, so misdirected reads decrypt to noise.
  bool xts_encryption = false;
  /// Flash-resident L2P journal (snapshot + record log).  Enables
  /// power-loss recovery via Ftl::recover() and the integrity scrub.
  L2pJournalConfig journal;
  /// Run the integrity scrub every this many host IOs (0 = never).
  /// Requires the journal: the scrub replays journal state against the
  /// DRAM-resident table and repairs entries that drifted — the
  /// "per-block integrity" style defense of §5 applied to the mapping
  /// itself.
  std::uint32_t scrub_interval_ios = 0;
};

struct FtlStats {
  std::uint64_t host_reads = 0;
  std::uint64_t host_writes = 0;
  std::uint64_t host_trims = 0;
  std::uint64_t unmapped_reads = 0;  // reads served without flash access
  std::uint64_t flash_reads = 0;
  std::uint64_t flash_programs = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_relocations = 0;
  std::uint64_t gc_erases = 0;
  std::uint64_t l2p_dram_reads = 0;
  std::uint64_t l2p_dram_writes = 0;
  std::uint64_t l2p_corruption_errors = 0;   // surfaced by DRAM ECC
  std::uint64_t reference_tag_mismatches = 0;  // T10-style guard hits
  std::uint64_t flash_raw_bit_errors = 0;      // media errors corrected
  std::uint64_t flash_ecc_uncorrectable = 0;   // reads beyond the budget
  std::uint64_t read_retries = 0;            // NAND reads retried
  std::uint64_t read_retry_successes = 0;    // retries that recovered
  std::uint64_t retired_blocks = 0;          // grown bad blocks retired
  std::uint64_t journal_records = 0;         // mapping changes journaled
  std::uint64_t journal_snapshots = 0;       // epoch rolls (excl. format)
  std::uint64_t scrub_runs = 0;
  std::uint64_t scrub_repairs = 0;           // L2P entries repaired
  std::uint64_t scrub_aborts = 0;            // scrubs with unusable journal
};

/// What Ftl::recover() reconstructed after a power loss.
struct FtlRecoveryReport {
  bool snapshot_found = false;
  std::uint64_t epoch = 0;
  /// Journal records newer than the snapshot that were applied.
  std::uint64_t records_applied = 0;
  /// Mappings adopted from the OOB scan (journaled but unflushed, or
  /// whose record page was lost).
  std::uint64_t oob_adopted = 0;
  std::uint32_t corrupt_journal_pages = 0;
  std::uint64_t unreadable_pages = 0;  // data pages that failed to read
  std::uint64_t invalid_records = 0;   // records naming impossible LPNs
  /// LPNs whose mapping could not be re-established (quarantined to
  /// unmapped).  Sorted ascending.
  std::vector<std::uint64_t> lost_lbas;
};

/// Outcome details of a single FTL read, for the timing model.
struct FtlIoInfo {
  bool flash_accessed = false;
};

/// Why the device degraded to read-only (kNone while fully writable).
/// An explicit device-state transition rather than a per-op error: the
/// NVMe event loop observes it to fail tenant writes fast while reads
/// keep flowing.
enum class FtlDegradation : std::uint8_t {
  kNone = 0,
  /// Grown bad blocks ate the spare pool (update_degradation()).
  kSpareExhausted,
  /// The L2P journal could not roll a fresh epoch (its reserved blocks
  /// failed or filled); further mapping changes would be unrecoverable
  /// after a crash, so mutations stop.
  kJournalExhausted,
};

[[nodiscard]] const char* to_string(FtlDegradation cause);

/// Precomputed per-entry state for replaying a fixed read pattern many
/// times in closed form (the batched hammer path).  Built once by
/// Ftl::plan_pattern_replay(); immutable while the pattern runs.
struct PatternReplayPlan {
  /// The pattern's device LBAs, in issue order (duplicates allowed).
  std::vector<Lba> lbas;
  /// L2P entry address per element.
  std::vector<DramAddr> entry_addrs;
  /// Byte ranges a batched replay must not flip (entries whose value
  /// could feed back into the replay itself); see DramDevice::
  /// hammer_pattern.
  std::vector<PatternHazard> hazards;
  /// Whether ios_since_scrub advances per command (journal + interval).
  bool scrub_enabled = false;
};

class Ftl {
 public:
  /// `nand`, `dram` must outlive the FTL.  The DRAM must be large enough
  /// to hold the table.
  Ftl(FtlConfig config, NandDevice& nand, DramDevice& dram);

  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

  /// Read one logical page. Unmapped/trimmed LBAs read as zeros without
  /// touching flash (the fast path §3's threat model mentions).
  Status read(Lba lba, std::span<std::uint8_t> out,
              FtlIoInfo* info = nullptr);

  /// Write one logical page (allocates a fresh NAND page; copy-on-write,
  /// §3.2: "flash writes are copy-on-write").
  Status write(Lba lba, std::span<const std::uint8_t> data);

  /// Unmap a logical page.
  Status trim(Lba lba);

  /// Build a replay plan for `lbas` — the state needed to push whole
  /// rounds of read(lbas[0]), read(lbas[1]), ... down to the DRAM in
  /// one call.  Returns false when an LBA is out of range or the device
  /// is not operational; the caller then stays on scalar reads.
  [[nodiscard]] bool plan_pattern_replay(std::span<const Lba> lbas,
                                         PatternReplayPlan* plan);

  /// True while the planned pattern still replays exactly: device
  /// operational, every entry still unmapped, and the DRAM able to
  /// replay the entries' read stream from its current state
  /// (DramDevice::reads_replayable).  Callers re-check after any scalar
  /// command that may have perturbed state.
  [[nodiscard]] bool pattern_state_ok(const PatternReplayPlan& plan) const;

  /// Commands that may be replayed in closed form before one must run
  /// scalar: the distance (in commands) to the next injected power
  /// loss or DRAM bit error, or to the integrity-scrub trigger.
  /// Returns FaultInjector::kNoFault when nothing is scheduled.
  [[nodiscard]] std::uint64_t replay_safe_cmds(
      const PatternReplayPlan& plan) const;

  /// Replay commands [start_cmd, start_cmd + n_cmds) of the pattern —
  /// command g reads plan.lbas[g % size] — in closed form, bit-exact
  /// with the scalar loop: same FtlStats, DramStats, flips, scrub
  /// counter and fault-op alignment.  `cmd_times[i]` is the simulated
  /// time command start_cmd+i's DRAM work happens (head plus arithmetic
  /// tail, cmd_times.size() == n_cmds); the first falls in the DRAM's
  /// current refresh window, later ones may cross window edges.
  /// Preconditions: pattern_state_ok(), at most replay_safe_cmds()
  /// commands.  Returns false (and does nothing) when a disturbance
  /// flip would land in a hazard range — the caller must run this chunk
  /// through scalar reads.
  [[nodiscard]] bool replay_pattern_reads(const PatternReplayPlan& plan,
                                          std::uint64_t start_cmd,
                                          std::uint64_t n_cmds,
                                          const CmdTimes& cmd_times);

  /// Reconstruct the L2P table after a power loss: newest complete
  /// journal snapshot, plus CRC-valid records, plus an OOB scan of the
  /// data blocks for journaled-but-unflushed writes; mappings that
  /// cannot be re-established are quarantined and reported.  A fresh
  /// (formatted) device recovers to an empty table trivially.  Until
  /// this succeeds on a device that booted with journal history, all
  /// host operations fail with FailedPrecondition.
  Status recover(FtlRecoveryReport* report = nullptr);

  /// Integrity scrub: rebuild the authoritative mapping from the
  /// journal (flushing pending records first) and compare it with the
  /// DRAM-resident table; entries that differ — hammer flips, injected
  /// soft errors — are repaired in place.  Returns the repair count.
  Status scrub(std::uint64_t* repaired = nullptr);

  /// Attach a fault injector (nullptr detaches).  The FTL consults it
  /// once per host operation for FaultClass::kPowerLoss; after a power
  /// loss every operation fails with Aborted until the device is
  /// "rebooted" (a new Ftl constructed over the same NAND) and
  /// recover()ed.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  /// True once grown bad blocks ate the spare pool — or the journal ran
  /// out of epoch space: reads still work, mutations fail with
  /// FailedPrecondition.
  [[nodiscard]] bool read_only() const { return read_only_; }
  /// Why read_only() is true (kNone while writable).
  [[nodiscard]] FtlDegradation degradation() const { return degradation_; }
  /// True when journal history was found at boot and recover() has not
  /// yet completed.
  [[nodiscard]] bool needs_recovery() const { return needs_recovery_; }
  [[nodiscard]] bool powered_off() const { return powered_off_; }
  /// Good data blocks beyond what capacity + GC headroom require.
  [[nodiscard]] std::uint64_t spare_data_blocks() const;

  [[nodiscard]] const FtlConfig& config() const { return config_; }
  [[nodiscard]] const FtlStats& stats() const { return stats_; }
  [[nodiscard]] const L2pLayout& layout() const { return *layout_; }
  [[nodiscard]] NandDevice& nand() { return nand_; }
  [[nodiscard]] DramDevice& dram() { return dram_; }

  /// Current mapping of `lba` read via DRAM peek — no activations, no
  /// stats; for experiments/tests ("device debug port").
  [[nodiscard]] std::uint32_t debug_lookup(Lba lba) const;
  /// Overwrite the mapping via DRAM poke — test/experiment use only.
  void debug_store(Lba lba, std::uint32_t pba32);

  [[nodiscard]] std::uint64_t free_blocks() const {
    return free_blocks_.size();
  }

 private:
  /// Global DRAM row and in-row offset of an L2P entry.  Entries are 4
  /// bytes at multiples of 4 from address 0 and rows a multiple of 8
  /// bytes, so no entry crosses a row end or an ECC word.
  struct EntryLoc {
    std::uint64_t row = 0;
    std::uint32_t offset = 0;
  };
  [[nodiscard]] EntryLoc entry_loc(Lba lba) const;

  Status check_lba(Lba lba) const;
  /// Per-host-op gate: power-loss tick, recovery and read-only state.
  Status guard_op(bool mutating);

  /// L2P entry access through DRAM, with hammer amplification: one
  /// DRAM call of hammers_per_io touches.
  Status l2p_load(Lba lba, std::uint32_t& pba32);
  Status l2p_store(Lba lba, std::uint32_t pba32);

  StatusOr<Pba> allocate_page();
  Status garbage_collect();
  /// Allocate + program with bad-block retirement on program failure.
  /// Each attempt draws a fresh write sequence (returned via seq_out) so
  /// sequences stay ordered with any GC the allocation triggered.
  StatusOr<Pba> program_page(std::uint64_t lpn,
                             std::span<const std::uint8_t> data,
                             std::uint64_t* seq_out);
  /// NAND read with bounded read-retry on uncorrectable media errors.
  Status nand_read_retry(Pba pba, std::span<std::uint8_t> out,
                         PageOob* oob, std::uint32_t* raw_bit_errors);
  /// Relocate live pages off `block`, then mark it bad.
  Status retire_bad_block(std::uint32_t block);
  /// Append to the journal (no-op when disabled), rolling a fresh
  /// snapshot when the active half runs low.
  Status journal_append(std::uint64_t lpn, std::uint32_t pba32,
                        std::uint64_t seq, bool sync);
  Status roll_snapshot();
  /// The table as currently stored in DRAM (peek; no activations).
  [[nodiscard]] std::vector<std::uint32_t> snapshot_table() const;
  void maybe_scrub();
  /// Whether scrub may trust a cached journal parse: true unless the
  /// fault plan still schedules NAND or power faults that could change
  /// flash content outside the journal writer.
  [[nodiscard]] bool scrub_cacheable() const;
  /// Recompute read-only degradation from the good-block census.
  void update_degradation();
  /// Good data blocks minus the floor that capacity and GC headroom
  /// require (ceil(num_lbas / pages per block) + the GC low watermark +
  /// 1); negative once grown bad blocks ate into that floor.
  [[nodiscard]] std::int64_t spare_margin() const;
  [[nodiscard]] std::uint32_t data_block_count() const;
  /// XTS-style keystream XOR, tweaked by LBA (applied on write and on
  /// read with the *requested* LBA — misdirected reads come out as
  /// noise).
  void xts_whiten(Lba lba, std::span<std::uint8_t> data) const;
  void mark_invalid(Pba pba);
  void mark_valid(Pba pba);

  FtlConfig config_;
  NandDevice& nand_;
  DramDevice& dram_;
  std::unique_ptr<L2pLayout> layout_;
  std::unique_ptr<L2pJournal> journal_;
  FaultInjector* injector_ = nullptr;

  bool powered_off_ = false;
  bool read_only_ = false;
  FtlDegradation degradation_ = FtlDegradation::kNone;
  bool needs_recovery_ = false;
  std::uint64_t ios_since_scrub_ = 0;
  /// Journal contents found at boot, consumed by recover().
  std::optional<JournalLoadResult> boot_load_;

  /// Integrity-scrub fast path (see Ftl::scrub): the authoritative
  /// table parsed from the last clean journal load, reusable while the
  /// journal writer has not moved and no injected NAND/power fault
  /// could alter the flash behind the FTL's back.
  std::vector<std::uint32_t> scrub_truth_;
  bool scrub_truth_valid_ = false;
  std::uint64_t scrub_truth_epoch_ = 0;
  std::uint32_t scrub_truth_next_page_ = 0;
  /// DRAM readings taken right after the table was last verified
  /// drift-free against the cached truth.
  struct ScrubMark {
    std::uint64_t content_epoch = 0;
    std::uint64_t bitflips = 0;
    std::uint64_t flip_events = 0;  // DramDevice::flip_events().size()
  };
  std::optional<ScrubMark> scrub_clean_;
  /// Pre-decoded DRAM location of each LPN's L2P entry (the layout is
  /// fixed for the FTL's lifetime), so the verify walk reads rows
  /// directly instead of decoding every address; and every entry as a
  /// (row, LPN) pair, sorted, so a walk can find the entries of a row.
  /// Both built on the first scrub walk.
  std::vector<EntryLoc> scrub_locs_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> scrub_row_lpns_;

  std::deque<std::uint32_t> free_blocks_;
  std::uint32_t active_block_ = 0;
  bool have_active_block_ = false;
  std::vector<bool> page_valid_;          // per flat PBA
  std::vector<std::uint32_t> block_valid_count_;
  std::vector<bool> block_is_free_or_active_;
  std::uint64_t write_seq_ = 0;
  bool in_gc_ = false;
  FtlStats stats_;
};

}  // namespace rhsd
