// Tests for DRAM geometry bookkeeping and coordinate math.
#include <gtest/gtest.h>

#include <set>

#include "dram/geometry.hpp"

namespace rhsd {
namespace {

TEST(DramGeometry, PaperTestbedIs16GiB) {
  const DramGeometry g = DramGeometry::PaperTestbed();
  EXPECT_EQ(g.total_banks(), 2u * 2 * 2 * 8);
  EXPECT_EQ(g.total_rows(), 64ull << 15);
  EXPECT_EQ(g.total_bytes(), 16ull * kGiB);  // §4.1: 16 GiB DDR3
}

TEST(DramGeometry, SsdOnboardIs1GiB) {
  EXPECT_EQ(DramGeometry::SsdOnboard().total_bytes(), 1ull * kGiB);
}

TEST(DramGeometry, TinyCounts) {
  const DramGeometry g = DramGeometry::Tiny();
  EXPECT_EQ(g.total_banks(), 2u);
  EXPECT_EQ(g.total_rows(), 32u);
  EXPECT_EQ(g.total_bytes(), 32u * 128);
}

TEST(DramCoord, FlatBankRoundTrip) {
  const DramGeometry g = DramGeometry::PaperTestbed();
  for (std::uint32_t fb = 0; fb < g.total_banks(); ++fb) {
    const DramCoord c = DramCoord::FromFlatBank(g, fb, 5, 9);
    EXPECT_EQ(c.flat_bank(g), fb);
    EXPECT_EQ(c.row, 5u);
    EXPECT_EQ(c.col, 9u);
    EXPECT_LT(c.channel, g.channels);
    EXPECT_LT(c.dimm, g.dimms_per_channel);
    EXPECT_LT(c.rank, g.ranks_per_dimm);
    EXPECT_LT(c.bank, g.banks_per_rank);
  }
}

TEST(DramCoord, GlobalRowIsUniquePerBankRow) {
  const DramGeometry g = DramGeometry::Tiny();
  std::set<std::uint64_t> seen;
  for (std::uint32_t fb = 0; fb < g.total_banks(); ++fb) {
    for (std::uint32_t r = 0; r < g.rows_per_bank; ++r) {
      const DramCoord c = DramCoord::FromFlatBank(g, fb, r, 0);
      EXPECT_TRUE(seen.insert(c.global_row(g)).second);
    }
  }
  EXPECT_EQ(seen.size(), g.total_rows());
}

TEST(DramCoord, GlobalRowAdjacencyWithinBank) {
  const DramGeometry g = DramGeometry::PaperTestbed();
  const DramCoord a = DramCoord::FromFlatBank(g, 3, 100, 0);
  const DramCoord b = DramCoord::FromFlatBank(g, 3, 101, 0);
  EXPECT_EQ(b.global_row(g), a.global_row(g) + 1);
  // Different banks are never adjacent.
  const DramCoord c = DramCoord::FromFlatBank(g, 4, 100, 0);
  EXPECT_GE(c.global_row(g) - a.global_row(g), g.rows_per_bank);
}

TEST(DramCoord, FromFlatBankRejectsOutOfRange) {
  const DramGeometry g = DramGeometry::Tiny();
  EXPECT_THROW((void)DramCoord::FromFlatBank(g, g.total_banks(), 0, 0),
               CheckFailure);
}

}  // namespace
}  // namespace rhsd
