#include "nand/nand_device.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace rhsd {

NandGeometry NandGeometry::ForCapacity(std::uint64_t data_bytes,
                                       double op_fraction) {
  RHSD_CHECK(op_fraction >= 0.0);
  NandGeometry g;
  const auto needed_bytes =
      static_cast<std::uint64_t>(static_cast<double>(data_bytes) *
                                 (1.0 + op_fraction));
  const std::uint64_t bytes_per_plane_block =
      static_cast<std::uint64_t>(g.pages_per_block) * g.page_bytes;
  const std::uint32_t parallel_units =
      g.channels * g.dies_per_channel * g.planes_per_die;
  const std::uint64_t needed_blocks =
      (needed_bytes + bytes_per_plane_block - 1) / bytes_per_plane_block;
  g.blocks_per_plane = static_cast<std::uint32_t>(
      (needed_blocks + parallel_units - 1) / parallel_units);
  RHSD_CHECK(g.blocks_per_plane > 0);
  return g;
}

NandDevice::NandDevice(NandGeometry geometry, NandReliability reliability,
                       std::uint64_t seed)
    : geometry_(geometry),
      reliability_(reliability),
      blocks_(geometry.total_blocks()),
      reads_since_erase_(geometry.total_blocks(), 0),
      error_rng_(Mix64(seed ^ 0x4E414E44)) {
  RHSD_CHECK(reliability_.base_rber >= 0.0);
  RHSD_CHECK(reliability_.wear_rber_per_pe >= 0.0);
  RHSD_CHECK(reliability_.read_disturb_rber_per_read >= 0.0);
  for (Block& b : blocks_) b.pages.resize(geometry_.pages_per_block);
}

std::uint32_t NandDevice::sample_bit_errors(std::uint32_t block) const {
  const double rber =
      reliability_.base_rber +
      reliability_.wear_rber_per_pe * blocks_[block].erase_count +
      reliability_.read_disturb_rber_per_read *
          static_cast<double>(reads_since_erase_[block]);
  if (rber <= 0.0) return 0;
  // Expected errors over the page; Poisson-approximate the binomial.
  const double mean = rber * static_cast<double>(geometry_.page_bytes) * 8;
  // Knuth's algorithm is fine for the small means we model.
  const double limit = std::exp(-std::min(mean, 700.0));
  std::uint32_t count = 0;
  double product = error_rng_.next_double();
  while (product > limit && count < 4096) {
    ++count;
    product *= error_rng_.next_double();
  }
  return count;
}

Status NandDevice::validate(std::uint32_t block, std::uint32_t page) const {
  if (block >= geometry_.total_blocks()) {
    return OutOfRange("NAND block " + std::to_string(block) +
                      " out of range");
  }
  if (page >= geometry_.pages_per_block) {
    return OutOfRange("NAND page " + std::to_string(page) + " out of range");
  }
  return Status::Ok();
}

Status NandDevice::erase(std::uint32_t block) {
  RHSD_RETURN_IF_ERROR(validate(block, 0));
  Block& b = blocks_[block];
  if (b.bad) {
    return FailedPrecondition("erase of bad block " + std::to_string(block));
  }
  ++stats_.erases;
  if (injector_ != nullptr &&
      injector_->tick(FaultClass::kNandErase).has_value()) {
    // An erase failure grows a bad block immediately: the media could
    // not return to the programmable state.
    ++stats_.injected_erase_faults;
    mark_bad(block);
    return Unavailable("NAND erase failure on block " +
                       std::to_string(block));
  }
  for (Page& p : b.pages) {
    p.data.clear();
    p.oob = PageOob{};
    p.programmed = false;
  }
  b.write_pointer = 0;
  ++b.erase_count;
  reads_since_erase_[block] = 0;
  return Status::Ok();
}

Status NandDevice::program(std::uint32_t block, std::uint32_t page,
                           std::span<const std::uint8_t> data,
                           const PageOob& oob) {
  RHSD_RETURN_IF_ERROR(validate(block, page));
  if (data.size() != geometry_.page_bytes) {
    return InvalidArgument("program size must equal the page size");
  }
  Block& b = blocks_[block];
  if (b.bad) {
    return FailedPrecondition("program to bad block " +
                              std::to_string(block));
  }
  if (page != b.write_pointer) {
    // Real NAND rejects out-of-order or re-programming without erase.
    ++stats_.program_violations;
    return FailedPrecondition(
        "out-of-order program: block " + std::to_string(block) + " page " +
        std::to_string(page) + " (write pointer at " +
        std::to_string(b.write_pointer) + ")");
  }
  if (injector_ != nullptr &&
      injector_->tick(FaultClass::kNandProgram).has_value()) {
    // Program failure: the page holds indeterminate data and must not be
    // used; the write pointer does not advance.  The FTL is expected to
    // retire the block (mark_bad) and rewrite elsewhere.
    ++stats_.injected_program_faults;
    return Unavailable("NAND program failure on block " +
                       std::to_string(block) + " page " +
                       std::to_string(page));
  }
  Page& p = b.pages[page];
  p.data.assign(data.begin(), data.end());
  p.oob = oob;
  p.programmed = true;
  b.write_pointer = page + 1;
  ++stats_.programs;
  return Status::Ok();
}

Status NandDevice::read(std::uint32_t block, std::uint32_t page,
                        std::span<std::uint8_t> out, PageOob* oob,
                        std::uint32_t* raw_bit_errors) const {
  RHSD_RETURN_IF_ERROR(validate(block, page));
  if (out.size() != geometry_.page_bytes) {
    return InvalidArgument("read size must equal the page size");
  }
  const Page& p = blocks_[block].pages[page];
  ++stats_.reads;
  ++reads_since_erase_[block];
  if (injector_ != nullptr &&
      injector_->tick(FaultClass::kNandRead).has_value()) {
    // Uncorrectable read: the sense returned garbage beyond what the
    // controller ECC can repair.  The FTL may retry (read-retry with
    // shifted reference voltages often recovers real NAND).
    ++stats_.injected_read_faults;
    return Corruption("NAND uncorrectable read on block " +
                      std::to_string(block) + " page " +
                      std::to_string(page));
  }
  if (raw_bit_errors != nullptr) {
    *raw_bit_errors = sample_bit_errors(block);
  }
  if (!p.programmed) {
    // Erased flash reads as all ones.
    std::memset(out.data(), 0xFF, out.size());
    if (oob != nullptr) *oob = PageOob{};
    return Status::Ok();
  }
  std::memcpy(out.data(), p.data.data(), out.size());
  if (oob != nullptr) *oob = p.oob;
  return Status::Ok();
}

Status NandDevice::program_pba(Pba pba, std::span<const std::uint8_t> data,
                               const PageOob& oob) {
  return program(block_of(pba), page_of(pba), data, oob);
}

Status NandDevice::read_pba(Pba pba, std::span<std::uint8_t> out,
                            PageOob* oob,
                            std::uint32_t* raw_bit_errors) const {
  return read(block_of(pba), page_of(pba), out, oob, raw_bit_errors);
}

std::uint64_t NandDevice::reads_since_erase(std::uint32_t block) const {
  RHSD_CHECK(block < reads_since_erase_.size());
  return reads_since_erase_[block];
}

std::uint32_t NandDevice::write_pointer(std::uint32_t block) const {
  RHSD_CHECK(block < blocks_.size());
  return blocks_[block].write_pointer;
}

std::uint32_t NandDevice::erase_count(std::uint32_t block) const {
  RHSD_CHECK(block < blocks_.size());
  return blocks_[block].erase_count;
}

bool NandDevice::is_bad(std::uint32_t block) const {
  RHSD_CHECK(block < blocks_.size());
  return blocks_[block].bad;
}

void NandDevice::mark_bad(std::uint32_t block) {
  RHSD_CHECK(block < blocks_.size());
  if (blocks_[block].bad) return;
  blocks_[block].bad = true;
  ++stats_.grown_bad_blocks;
}

}  // namespace rhsd
