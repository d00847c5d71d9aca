// Flash-resident L2P journal: snapshot + record log with CRC-32C pages.
//
// The L2P table lives in the SSD's DRAM — exactly the property the
// paper's attack exploits, and also what makes the table volatile: a
// power loss wipes it.  Real FTLs persist the mapping as a periodic
// snapshot plus a log of mapping changes in a reserved flash region.
// This journal reproduces that: the last `blocks` NAND blocks are split
// into two halves, and each half holds one *epoch* — a full snapshot of
// the table (in LPN order, so recovery is independent of the DRAM
// layout) followed by append-only record pages, every page protected by
// CRC-32C.  Rolling to a new epoch erases the other half first, so the
// previous complete epoch survives any crash during the roll; recovery
// picks the newest half whose snapshot is complete.
//
// Every page is self-describing (magic, kind, epoch, index, count, CRC),
// so load() can classify torn or fault-injected pages as corrupt and
// stop at them instead of replaying garbage.  Records buffered in DRAM
// and not yet flushed are *not* lost information: host writes and GC
// relocations program their data page (with the owning LPN and write
// sequence in the OOB area) before the record is appended, so
// Ftl::recover() re-adopts them from the OOB scan.  Trims have no flash
// artifact, which is why the FTL appends them with `sync` set.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "nand/nand_device.hpp"

namespace rhsd {

struct L2pJournalConfig {
  bool enabled = false;
  /// NAND blocks reserved at the top of the device; even, >= 2.  One
  /// half must fit a full snapshot plus
  /// L2pJournal::kSnapshotHeadroomPages.
  std::uint32_t blocks = 4;
  /// Proactive epoch cadence: also roll once this many records have been
  /// appended since the active snapshot (0 = only roll on space).  Bounds
  /// the record tail recover() must replay after a crash, trading
  /// snapshot write amplification for recovery time.
  std::uint64_t snapshot_every_records = 0;
};

/// One mapping change: `lpn` now maps to `pba32` (kUnmappedPba32 for a
/// trim) as of write sequence `seq`.
struct JournalRecord {
  std::uint64_t lpn = 0;
  std::uint32_t pba32 = 0;
  std::uint64_t seq = 0;
};

struct JournalStats {
  std::uint64_t snapshots = 0;      // epochs written (incl. format)
  std::uint64_t records = 0;        // records appended
  std::uint64_t record_pages = 0;   // record pages programmed
  std::uint64_t sync_flushes = 0;   // flushes forced by sync appends
  std::uint64_t loads = 0;
  std::uint64_t corrupt_pages = 0;  // seen across all loads
};

struct JournalLoadResult {
  bool snapshot_found = false;
  std::uint64_t epoch = 0;
  /// Global write sequence at the moment the snapshot was taken; every
  /// snapshot entry is at least this old.
  std::uint64_t snapshot_write_seq = 0;
  /// pba32 per LPN (size num_lbas), straight from the snapshot.
  std::vector<std::uint32_t> table;
  /// CRC-valid records of the chosen epoch, in append order.
  std::vector<JournalRecord> records;
  /// Pages that were neither valid nor erased (torn writes, injected
  /// media faults).  Record scanning stops at the first such page.
  std::uint32_t corrupt_pages = 0;

  /// The mapping this load describes, as replay() rebuilds it.
  struct Replay {
    std::vector<std::uint32_t> table;     // pba32 per LPN
    std::vector<std::uint64_t> last_seq;  // newest sequence per LPN
    std::uint64_t applied = 0;  // records newer than their LPN's last
    std::uint64_t invalid = 0;  // records naming an LPN >= num_lbas
    std::uint64_t max_seq = 0;  // newest valid record or snapshot seq
  };
  /// The snapshot (all unmapped when none was found) plus every record
  /// newer than its LPN's last sequence, applied in sequence order.
  /// Moves the snapshot table out and sorts `records` by sequence
  /// (stably, and only when an O(n) check finds them out of order).
  [[nodiscard]] Replay replay(std::uint64_t num_lbas);
};

class L2pJournal {
 public:
  /// `nand` must outlive the journal.  The reserved region is the last
  /// `config.blocks` blocks of the device; the FTL must exclude them
  /// from its allocator.
  L2pJournal(L2pJournalConfig config, NandDevice& nand,
             std::uint64_t num_lbas);

  L2pJournal(const L2pJournal&) = delete;
  L2pJournal& operator=(const L2pJournal&) = delete;

  [[nodiscard]] std::uint32_t first_block() const { return first_block_; }
  [[nodiscard]] std::uint32_t block_count() const { return config_.blocks; }
  [[nodiscard]] const L2pJournalConfig& config() const { return config_; }
  [[nodiscard]] const JournalStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Writer position within the active half.  (epoch, next_page)
  /// together identify the flash content exactly: pages are programmed
  /// strictly in order and only through this writer, so an unchanged
  /// position means unchanged media (absent injected faults).
  [[nodiscard]] std::uint32_t next_page() const { return next_page_; }

  /// First-boot initialization: erase the whole reserved region and
  /// write `table` as epoch 0.
  Status format(std::span<const std::uint32_t> table,
                std::uint64_t write_seq);

  /// Append one mapping change.  Buffered until a page fills (or
  /// `sync`); returns ResourceExhausted when the active half is out of
  /// pages — the caller must snapshot() and may then retry.
  Status append(const JournalRecord& record, bool sync);

  /// Write buffered records out as a (possibly short) record page.
  Status flush();

  /// True when the active half is nearly full and the caller should
  /// take a snapshot soon.
  [[nodiscard]] bool needs_snapshot() const;

  /// Roll to a new epoch: erase the inactive half, write `table` there,
  /// switch to it.  Buffered records are dropped — the snapshot source
  /// already reflects them.
  Status snapshot(std::span<const std::uint32_t> table,
                  std::uint64_t write_seq);

  /// Scan both halves and reconstruct the newest complete epoch.  Also
  /// positions the writer on that epoch so a subsequent snapshot() rolls
  /// away from it.  snapshot_found == false means the region is blank or
  /// unreadable (fresh device, or both halves torn).  Every call reads
  /// both halves' pages in the same order (the NAND reads are part of
  /// the simulated firmware); each half decodes into storage the journal
  /// keeps across loads, and only the winner's table and records are
  /// copied into the result.
  StatusOr<JournalLoadResult> load();

  /// Pages one half can hold, and how many a snapshot consumes — for
  /// sizing checks.
  [[nodiscard]] std::uint32_t pages_per_half() const;
  [[nodiscard]] std::uint32_t snapshot_pages() const;

  /// needs_snapshot() turns true when this few record pages remain in
  /// the active half.
  static constexpr std::uint32_t kSnapshotHeadroomPages = 4;

 private:
  // On-media page layout: 24-byte header, payload, 4-byte CRC-32C
  // trailer over everything before it.
  //   [0,4)   magic "RHJL"
  //   [4,8)   kind (0 snapshot header, 1 snapshot data, 2 records)
  //   [8,16)  epoch
  //   [16,20) index (snapshot data page index / record page index)
  //   [20,24) count (payload entries)
  static constexpr std::uint32_t kMagic = 0x4C4A4852;  // "RHJL"
  static constexpr std::uint32_t kHeaderBytes = 24;
  static constexpr std::uint32_t kKindSnapshotHeader = 0;
  static constexpr std::uint32_t kKindSnapshotData = 1;
  static constexpr std::uint32_t kKindRecords = 2;
  static constexpr std::uint32_t kRecordBytes = 20;  // lpn + pba32 + seq

  struct PageView {
    bool valid = false;
    bool erased = false;  // all-0xFF (never programmed)
    std::uint32_t kind = 0;
    std::uint64_t epoch = 0;
    std::uint32_t index = 0;
    std::uint32_t count = 0;
  };

  [[nodiscard]] std::uint32_t payload_bytes() const;
  /// Mapping records one record page holds.
  [[nodiscard]] std::uint32_t records_per_page() const;
  [[nodiscard]] std::uint32_t snap_entries_per_page() const;

  /// Block/page of global page `page` within half `half`.
  [[nodiscard]] std::uint32_t half_block(std::uint32_t half,
                                         std::uint32_t page) const;

  Status erase_half(std::uint32_t half);
  /// Program the next page of the active half.
  Status write_page(std::uint32_t kind, std::uint32_t index,
                    std::uint32_t count,
                    std::span<const std::uint8_t> payload);
  /// Read and validate one page of `half`; payload copied into `buf`
  /// (whole page).
  PageView read_page(std::uint32_t half, std::uint32_t page,
                     std::span<std::uint8_t> buf);
  /// Write the full snapshot (header + data pages) for `epoch_` into the
  /// active half starting at page 0.
  Status write_snapshot(std::span<const std::uint32_t> table,
                        std::uint64_t write_seq);

  L2pJournalConfig config_;
  NandDevice& nand_;
  std::uint64_t num_lbas_;
  std::uint32_t first_block_ = 0;
  std::uint32_t half_blocks_ = 0;

  std::uint64_t epoch_ = 0;
  std::uint32_t active_half_ = 0;
  std::uint32_t next_page_ = 0;     // within the active half
  std::uint32_t record_index_ = 0;  // record pages written this epoch
  std::uint64_t records_since_snapshot_ = 0;
  std::vector<JournalRecord> pending_;
  JournalStats stats_;

  /// load()'s working storage, kept across loads: one page buffer, and
  /// per half the decoded snapshot table and records.  Only the winning
  /// half's are copied into the result, so a reload neither reallocates
  /// nor faults in fresh pages for the half that loses.
  struct HalfScratch {
    std::vector<std::uint32_t> table;
    std::vector<JournalRecord> records;
  };
  std::vector<std::uint8_t> page_buf_;
  HalfScratch half_scratch_[2];
};

}  // namespace rhsd
