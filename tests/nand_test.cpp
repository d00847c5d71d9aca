// Tests for the NAND flash model: erase-before-program, sequential
// programming, OOB metadata, wear and bad-block handling.
#include <gtest/gtest.h>

#include "nand/nand_device.hpp"

namespace rhsd {
namespace {

NandGeometry SmallGeometry() {
  return NandGeometry{.channels = 1,
                      .dies_per_channel = 1,
                      .planes_per_die = 1,
                      .blocks_per_plane = 8,
                      .pages_per_block = 4,
                      .page_bytes = kBlockSize};
}

std::vector<std::uint8_t> Page(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kBlockSize, fill);
}

TEST(NandGeometry, Counts) {
  const NandGeometry g = SmallGeometry();
  EXPECT_EQ(g.total_blocks(), 8u);
  EXPECT_EQ(g.total_pages(), 32u);
  EXPECT_EQ(g.total_bytes(), 32u * kBlockSize);
}

TEST(NandGeometry, ForCapacityCoversRequestPlusOp) {
  const auto g = NandGeometry::ForCapacity(1 * kGiB, 0.125);
  EXPECT_GE(g.total_bytes(), static_cast<std::uint64_t>(1.125 * kGiB));
  // Not wildly oversized either (within one allocation unit).
  const std::uint64_t unit = static_cast<std::uint64_t>(
      g.pages_per_block) * g.page_bytes *
      (g.channels * g.dies_per_channel * g.planes_per_die);
  EXPECT_LT(g.total_bytes(), static_cast<std::uint64_t>(1.125 * kGiB) +
                                 unit);
}

TEST(Nand, ProgramAndRead) {
  NandDevice nand(SmallGeometry());
  const auto data = Page(0x5A);
  ASSERT_TRUE(nand.program(0, 0, data, PageOob{42, 1}).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  PageOob oob;
  ASSERT_TRUE(nand.read(0, 0, out, &oob).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(oob.lpn, 42u);
  EXPECT_EQ(oob.write_seq, 1u);
}

TEST(Nand, ErasedPagesReadAllOnes) {
  NandDevice nand(SmallGeometry());
  std::vector<std::uint8_t> out(kBlockSize, 0);
  PageOob oob;
  ASSERT_TRUE(nand.read(3, 2, out, &oob).ok());
  for (auto b : out) EXPECT_EQ(b, 0xFF);
  EXPECT_EQ(oob.lpn, PageOob::kNoLpn);
}

TEST(Nand, SequentialProgramRuleEnforced) {
  NandDevice nand(SmallGeometry());
  // Page 1 before page 0: rejected.
  EXPECT_EQ(nand.program(0, 1, Page(1), {}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(nand.program(0, 0, Page(1), {}).ok());
  // Re-programming page 0 without erase: rejected.
  EXPECT_EQ(nand.program(0, 0, Page(2), {}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(nand.program(0, 1, Page(2), {}).ok());
  EXPECT_EQ(nand.stats().program_violations, 2u);
}

TEST(Nand, WritePointerTracksProgress) {
  NandDevice nand(SmallGeometry());
  EXPECT_EQ(nand.write_pointer(0), 0u);
  ASSERT_TRUE(nand.program(0, 0, Page(1), {}).ok());
  ASSERT_TRUE(nand.program(0, 1, Page(2), {}).ok());
  EXPECT_EQ(nand.write_pointer(0), 2u);
  ASSERT_TRUE(nand.erase(0).ok());
  EXPECT_EQ(nand.write_pointer(0), 0u);
}

TEST(Nand, EraseClearsDataAndOob) {
  NandDevice nand(SmallGeometry());
  ASSERT_TRUE(nand.program(1, 0, Page(0xAA), PageOob{7, 9}).ok());
  ASSERT_TRUE(nand.erase(1).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  PageOob oob;
  ASSERT_TRUE(nand.read(1, 0, out, &oob).ok());
  EXPECT_EQ(out[0], 0xFF);
  EXPECT_EQ(oob.lpn, PageOob::kNoLpn);
  // And the block is programmable again from page 0.
  EXPECT_TRUE(nand.program(1, 0, Page(0xBB), {}).ok());
}

TEST(Nand, EraseCountsWear) {
  NandDevice nand(SmallGeometry());
  EXPECT_EQ(nand.erase_count(2), 0u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(nand.erase(2).ok());
  EXPECT_EQ(nand.erase_count(2), 5u);
  EXPECT_EQ(nand.stats().erases, 5u);
}

TEST(Nand, BadBlockRejectsProgramAndErase) {
  NandDevice nand(SmallGeometry());
  nand.mark_bad(0);
  EXPECT_TRUE(nand.is_bad(0));
  EXPECT_EQ(nand.program(0, 0, Page(1), {}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(nand.erase(0).code(), StatusCode::kFailedPrecondition);
  // Other blocks unaffected.
  EXPECT_FALSE(nand.is_bad(1));
}

TEST(Nand, FlatPbaHelpers) {
  NandDevice nand(SmallGeometry());
  const Pba pba = nand.make_pba(2, 3);
  EXPECT_EQ(pba.value(), 2u * 4 + 3);
  EXPECT_EQ(nand.block_of(pba), 2u);
  EXPECT_EQ(nand.page_of(pba), 3u);
  ASSERT_TRUE(nand.program(2, 0, Page(1), {}).ok());
  ASSERT_TRUE(nand.program(2, 1, Page(2), {}).ok());
  ASSERT_TRUE(nand.program(2, 2, Page(3), {}).ok());
  ASSERT_TRUE(nand.program_pba(pba, Page(4), PageOob{11, 2}).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(nand.read_pba(pba, out).ok());
  EXPECT_EQ(out[0], 4);
}

TEST(Nand, BoundsChecked) {
  NandDevice nand(SmallGeometry());
  std::vector<std::uint8_t> out(kBlockSize);
  EXPECT_EQ(nand.read(8, 0, out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(nand.read(0, 4, out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(nand.erase(99).code(), StatusCode::kOutOfRange);
}

TEST(Nand, SizeMismatchRejected) {
  NandDevice nand(SmallGeometry());
  std::vector<std::uint8_t> small(16);
  EXPECT_EQ(nand.program(0, 0, small, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(nand.read(0, 0, small).code(), StatusCode::kInvalidArgument);
}

TEST(Nand, StatsCount) {
  NandDevice nand(SmallGeometry());
  ASSERT_TRUE(nand.program(0, 0, Page(1), {}).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(nand.read(0, 0, out).ok());
  ASSERT_TRUE(nand.read(0, 1, out).ok());
  ASSERT_TRUE(nand.erase(0).ok());
  EXPECT_EQ(nand.stats().programs, 1u);
  EXPECT_EQ(nand.stats().reads, 2u);
  EXPECT_EQ(nand.stats().erases, 1u);
}

}  // namespace
}  // namespace rhsd
