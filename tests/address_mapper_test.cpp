// Tests for physical-address <-> DRAM-coordinate mapping functions,
// including the property the attack depends on: under the XOR mapper
// with row remapping, physically adjacent rows do NOT correspond to
// monotonically increasing addresses (§4.2).
#include <gtest/gtest.h>

#include <set>

#include "dram/address_mapper.hpp"

namespace rhsd {
namespace {

std::vector<DramGeometry> TestGeometries() {
  return {
      DramGeometry::Tiny(),
      DramGeometry{.channels = 1,
                   .dimms_per_channel = 1,
                   .ranks_per_dimm = 1,
                   .banks_per_rank = 4,
                   .rows_per_bank = 32,
                   .row_bytes = 256},
      DramGeometry{.channels = 2,
                   .dimms_per_channel = 1,
                   .ranks_per_dimm = 2,
                   .banks_per_rank = 8,
                   .rows_per_bank = 64,
                   .row_bytes = 1024},
  };
}

class MapperRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(MapperRoundTrip, DecodeEncodeIsIdentity) {
  const auto [geo_idx, use_xor] = GetParam();
  const DramGeometry g = TestGeometries()[geo_idx];
  const auto mapper =
      use_xor ? MakeXorMapper(g) : MakeLinearMapper(g);
  // Walk a stride that covers many rows/banks without being exhaustive.
  const std::uint64_t stride = g.row_bytes / 4 + 1;
  for (std::uint64_t a = 0; a < g.total_bytes(); a += stride) {
    const DramCoord c = mapper->decode(DramAddr(a));
    EXPECT_LT(c.row, g.rows_per_bank);
    EXPECT_LT(c.col, g.row_bytes);
    EXPECT_LT(c.flat_bank(g), g.total_banks());
    EXPECT_EQ(mapper->encode(c).value(), a)
        << "round-trip failed at address " << a;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MapperRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Bool()),
    [](const auto& info) {
      return std::string("geo") +
             std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_xor" : "_linear");
    });

TEST(LinearMapper, RowBytesAreAddressContiguous) {
  const DramGeometry g = DramGeometry::Tiny();
  LinearMapper mapper(g);
  const DramCoord base = mapper.decode(DramAddr(0));
  for (std::uint32_t col = 1; col < g.row_bytes; ++col) {
    const DramCoord c = mapper.decode(DramAddr(col));
    EXPECT_EQ(c.global_row(g), base.global_row(g));
    EXPECT_EQ(c.col, col);
  }
}

TEST(XorMapper, RowBytesAreAddressContiguous) {
  const DramGeometry g = DramGeometry::Tiny();
  XorMapper mapper(g, {});
  const DramCoord base = mapper.decode(DramAddr(0));
  for (std::uint32_t col = 1; col < g.row_bytes; ++col) {
    const DramCoord c = mapper.decode(DramAddr(col));
    EXPECT_EQ(c.global_row(g), base.global_row(g));
    EXPECT_EQ(c.col, col);
  }
}

TEST(LinearMapper, RowAdjacencyIsAddressMonotone) {
  const DramGeometry g = DramGeometry::Tiny();
  LinearMapper mapper(g);
  for (std::uint32_t r = 0; r + 1 < g.rows_per_bank; ++r) {
    const DramAddr a0 = mapper.encode(DramCoord::FromFlatBank(g, 0, r, 0));
    const DramAddr a1 =
        mapper.encode(DramCoord::FromFlatBank(g, 0, r + 1, 0));
    EXPECT_LT(a0.value(), a1.value());
  }
}

TEST(XorMapper, RowRemappingBreaksAddressMonotonicity) {
  const DramGeometry g{.channels = 1,
                       .dimms_per_channel = 1,
                       .ranks_per_dimm = 1,
                       .banks_per_rank = 4,
                       .rows_per_bank = 64,
                       .row_bytes = 256};
  XorMapperConfig config;
  config.interleaved_bank_bits = 2;
  config.row_remap_bits = 3;
  XorMapper mapper(g, config);
  // §4.2: there must exist a contiguous run of three physical rows whose
  // addresses are NOT monotonically increasing.
  bool found_non_monotone = false;
  for (std::uint32_t r = 0; r + 2 < g.rows_per_bank && !found_non_monotone;
       ++r) {
    const std::uint64_t a0 =
        mapper.encode(DramCoord::FromFlatBank(g, 0, r, 0)).value();
    const std::uint64_t a1 =
        mapper.encode(DramCoord::FromFlatBank(g, 0, r + 1, 0)).value();
    const std::uint64_t a2 =
        mapper.encode(DramCoord::FromFlatBank(g, 0, r + 2, 0)).value();
    if (!(a0 < a1 && a1 < a2)) found_non_monotone = true;
  }
  EXPECT_TRUE(found_non_monotone);
}

TEST(XorMapper, NoRemapNoBankXorIsMonotone) {
  const DramGeometry g = DramGeometry::Tiny();
  XorMapperConfig config;
  config.interleaved_bank_bits = 0;
  config.row_remap_bits = 0;
  XorMapper mapper(g, config);
  for (std::uint32_t r = 0; r + 1 < g.rows_per_bank; ++r) {
    const std::uint64_t a0 =
        mapper.encode(DramCoord::FromFlatBank(g, 0, r, 0)).value();
    const std::uint64_t a1 =
        mapper.encode(DramCoord::FromFlatBank(g, 0, r + 1, 0)).value();
    EXPECT_LT(a0, a1);
  }
}

TEST(XorMapper, EveryAddressMapsToUniqueCoordinate) {
  const DramGeometry g = DramGeometry::Tiny();
  XorMapper mapper(g, {});
  std::set<std::tuple<std::uint64_t, std::uint32_t>> seen;
  for (std::uint64_t a = 0; a < g.total_bytes(); a += g.row_bytes) {
    const DramCoord c = mapper.decode(DramAddr(a));
    EXPECT_TRUE(seen.insert({c.global_row(g), c.col}).second)
        << "collision at address " << a;
  }
  EXPECT_EQ(seen.size(), g.total_rows());
}

TEST(XorMapper, CustomRowXorMasksRespected) {
  const DramGeometry g = DramGeometry::Tiny();
  XorMapperConfig config;
  config.interleaved_bank_bits = 1;
  config.row_remap_bits = 0;
  config.row_xor_masks = {0x1};  // bank bit flips with row bit 0
  XorMapper mapper(g, config);
  const DramCoord even = mapper.decode(DramAddr(0));
  const DramCoord odd =
      mapper.decode(DramAddr(2ull * g.row_bytes));  // row field 1
  EXPECT_NE(even.flat_bank(g), odd.flat_bank(g));
}

TEST(XorMapper, RejectsWrongMaskCount) {
  const DramGeometry g = DramGeometry::Tiny();
  XorMapperConfig config;
  config.interleaved_bank_bits = 1;
  config.row_xor_masks = {0x1, 0x2};  // too many
  EXPECT_THROW(XorMapper(g, config), CheckFailure);
}

TEST(XorMapper, RejectsNonPowerOfTwoGeometry) {
  DramGeometry g = DramGeometry::Tiny();
  g.rows_per_bank = 17;
  EXPECT_THROW(XorMapper(g, {}), CheckFailure);
}

TEST(Mappers, DecodeOutOfRangeThrows) {
  const DramGeometry g = DramGeometry::Tiny();
  LinearMapper linear(g);
  XorMapper xormap(g, {});
  EXPECT_THROW((void)linear.decode(DramAddr(g.total_bytes())), CheckFailure);
  EXPECT_THROW((void)xormap.decode(DramAddr(g.total_bytes())), CheckFailure);
}

}  // namespace
}  // namespace rhsd
