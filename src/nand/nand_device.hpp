// NAND flash model.
//
// §2.1: "Flash memories lack support for in-place writes and perform
// accesses in large units due to physical limitations" — the properties
// that force an FTL to exist at all.  The model enforces the real
// constraints the FTL must honor: erase-before-program, sequential page
// programming within a block, page-granularity reads/writes, per-block
// wear, and out-of-band (OOB) metadata where the FTL records the reverse
// (P2L) mapping used by garbage collection.
//
// Wear has no P/E-cycle limit: it only raises the raw bit-error rate of
// the optional reliability model.  A block goes bad through an injected
// erase fault or the FTL's retirement after a program fault (mark_bad).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "fault/fault_injector.hpp"

namespace rhsd {

struct NandGeometry {
  std::uint32_t channels = 2;
  std::uint32_t dies_per_channel = 2;
  std::uint32_t planes_per_die = 2;
  std::uint32_t blocks_per_plane = 64;
  std::uint32_t pages_per_block = 64;
  std::uint32_t page_bytes = kBlockSize;

  [[nodiscard]] constexpr std::uint32_t total_blocks() const {
    return channels * dies_per_channel * planes_per_die * blocks_per_plane;
  }
  [[nodiscard]] constexpr std::uint64_t total_pages() const {
    return static_cast<std::uint64_t>(total_blocks()) * pages_per_block;
  }
  [[nodiscard]] constexpr std::uint64_t total_bytes() const {
    return total_pages() * page_bytes;
  }

  /// Smallest geometry whose raw capacity covers `data_bytes` plus the
  /// requested over-provisioning fraction.
  [[nodiscard]] static NandGeometry ForCapacity(std::uint64_t data_bytes,
                                                double op_fraction = 0.125);
};

/// Array timing the NVMe IOPS model charges (NandDevice::latency()).
/// Programs and erases charge no array time of their own.
struct NandLatency {
  std::uint64_t read_ns = 50'000;  // tR
};

/// Raw bit-error model for the flash media itself.  The paper contrasts
/// its DRAM-side attack with flash-cell disturbance attacks ([8, 28]);
/// this model provides that other side: the raw bit-error rate grows
/// with program/erase wear and with read disturb, and the *controller's*
/// page ECC (see Ftl::kPageEccCorrectableBits) decides when the
/// accumulated errors become uncorrectable.  Disabled by default.
struct NandReliability {
  /// RBER of a fresh page (errors per bit per read). 0 disables.
  double base_rber = 0.0;
  /// Additional RBER per P/E cycle of the containing block.
  double wear_rber_per_pe = 0.0;
  /// Additional RBER per prior read of the block since its last erase
  /// (read disturb).
  double read_disturb_rber_per_read = 0.0;
};

/// Out-of-band page metadata. The FTL stores the owning LPN here so that
/// garbage collection can find live data without a RAM-resident P2L map.
struct PageOob {
  static constexpr std::uint64_t kNoLpn = ~0ull;
  std::uint64_t lpn = kNoLpn;
  std::uint64_t write_seq = 0;
};

struct NandStats {
  std::uint64_t reads = 0;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  std::uint64_t program_violations = 0;  // rejected out-of-order programs
  std::uint64_t injected_read_faults = 0;
  std::uint64_t injected_program_faults = 0;
  std::uint64_t injected_erase_faults = 0;
  std::uint64_t grown_bad_blocks = 0;  // marked bad after manufacture
};

class NandDevice {
 public:
  NandDevice(NandGeometry geometry, NandReliability reliability = {},
             std::uint64_t seed = 1);

  NandDevice(const NandDevice&) = delete;
  NandDevice& operator=(const NandDevice&) = delete;

  [[nodiscard]] const NandGeometry& geometry() const { return geometry_; }
  /// Array timing, the same for every device (the default above).
  [[nodiscard]] static constexpr NandLatency latency() { return {}; }
  [[nodiscard]] const NandStats& stats() const { return stats_; }

  /// Erase a whole block, returning it to programmable state.
  Status erase(std::uint32_t block);

  /// Program one page. Pages within a block must be programmed in
  /// strictly increasing order, and only after an erase.
  Status program(std::uint32_t block, std::uint32_t page,
                 std::span<const std::uint8_t> data, const PageOob& oob);

  /// Read one page. Unwritten pages read as all 0xFF (erased state).
  /// With a reliability model configured, `raw_bit_errors` (if given)
  /// receives the number of raw media bit errors sampled for this read;
  /// the returned data is the pre-correction content the controller's
  /// ECC would recover if the count is within its budget (the caller —
  /// the FTL — enforces that budget).
  Status read(std::uint32_t block, std::uint32_t page,
              std::span<std::uint8_t> out, PageOob* oob = nullptr,
              std::uint32_t* raw_bit_errors = nullptr) const;

  /// Flat-PBA convenience wrappers (pba = block * pages_per_block + page).
  Status program_pba(Pba pba, std::span<const std::uint8_t> data,
                     const PageOob& oob);
  Status read_pba(Pba pba, std::span<std::uint8_t> out,
                  PageOob* oob = nullptr,
                  std::uint32_t* raw_bit_errors = nullptr) const;

  /// Reads of `block` since its last erase (read-disturb pressure).
  [[nodiscard]] std::uint64_t reads_since_erase(std::uint32_t block) const;

  [[nodiscard]] std::uint32_t block_of(Pba pba) const {
    return static_cast<std::uint32_t>(pba.value() /
                                      geometry_.pages_per_block);
  }
  [[nodiscard]] std::uint32_t page_of(Pba pba) const {
    return static_cast<std::uint32_t>(pba.value() %
                                      geometry_.pages_per_block);
  }
  [[nodiscard]] Pba make_pba(std::uint32_t block, std::uint32_t page) const {
    return Pba(static_cast<std::uint64_t>(block) *
                   geometry_.pages_per_block + page);
  }

  /// Next programmable page index in `block` (== pages_per_block when
  /// the block is full).
  [[nodiscard]] std::uint32_t write_pointer(std::uint32_t block) const;
  [[nodiscard]] std::uint32_t erase_count(std::uint32_t block) const;
  [[nodiscard]] bool is_bad(std::uint32_t block) const;

  /// Retire a block (grown bad block): the FTL calls this after a
  /// program failure; erase failures mark the block bad internally.
  void mark_bad(std::uint32_t block);

  /// Attach a fault injector (nullptr detaches).  The device consults it
  /// on every read/program/erase; must outlive the device or be detached.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

 private:
  struct Page {
    std::vector<std::uint8_t> data;  // empty until programmed
    PageOob oob;
    bool programmed = false;
  };
  struct Block {
    std::vector<Page> pages;
    std::uint32_t write_pointer = 0;
    std::uint32_t erase_count = 0;
    bool bad = false;
  };

  Status validate(std::uint32_t block, std::uint32_t page) const;
  /// Sample the raw bit-error count for one read of `block`.
  [[nodiscard]] std::uint32_t sample_bit_errors(std::uint32_t block) const;

  NandGeometry geometry_;
  FaultInjector* injector_ = nullptr;
  NandReliability reliability_;
  std::vector<Block> blocks_;
  /// Per-block reads since last erase (read-disturb pressure); mutable
  /// because reads are logically const.
  mutable std::vector<std::uint64_t> reads_since_erase_;
  mutable Rng error_rng_;
  mutable NandStats stats_;  // read() is logically const but counts
};

}  // namespace rhsd
