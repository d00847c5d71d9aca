// Tests for the NAND media-error model and the FTL's page ECC budget
// (the flash-side counterpart to the DRAM disturbance the paper attacks;
// related work [8, 28] attacks these cells directly).
#include <gtest/gtest.h>

#include <memory>

#include "ftl/ftl.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

NandGeometry SmallGeometry() {
  return NandGeometry{.channels = 1,
                      .dies_per_channel = 1,
                      .planes_per_die = 1,
                      .blocks_per_plane = 8,
                      .pages_per_block = 16,
                      .page_bytes = kBlockSize};
}

std::vector<std::uint8_t> Page(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kBlockSize, fill);
}

TEST(NandReliabilityModel, DisabledByDefault) {
  NandDevice nand(SmallGeometry());
  ASSERT_TRUE(nand.program(0, 0, Page(1), {}).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  for (int i = 0; i < 200; ++i) {
    std::uint32_t errors = 99;
    ASSERT_TRUE(nand.read(0, 0, out, nullptr, &errors).ok());
    EXPECT_EQ(errors, 0u);
  }
}

TEST(NandReliabilityModel, BaseRberProducesExpectedErrorCounts) {
  NandReliability reliability;
  reliability.base_rber = 1e-4;  // mean ~3.3 errors per 4 KiB page
  NandDevice nand(SmallGeometry(), reliability, 7);
  ASSERT_TRUE(nand.program(0, 0, Page(1), {}).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  std::uint64_t total = 0;
  const int reads = 2000;
  for (int i = 0; i < reads; ++i) {
    std::uint32_t errors = 0;
    ASSERT_TRUE(nand.read(0, 0, out, nullptr, &errors).ok());
    total += errors;
  }
  const double mean = static_cast<double>(total) / reads;
  EXPECT_NEAR(mean, 1e-4 * kBlockSize * 8, 0.4);
}

TEST(NandReliabilityModel, WearRaisesErrorRate) {
  NandReliability reliability;
  reliability.base_rber = 1e-5;
  reliability.wear_rber_per_pe = 1e-5;
  auto mean_errors_at_pe = [&](int pe_cycles) {
    NandDevice nand(SmallGeometry(), reliability, 7);
    for (int i = 0; i < pe_cycles; ++i) {
      EXPECT_TRUE(nand.erase(0).ok());
    }
    EXPECT_TRUE(nand.program(0, 0, Page(1), {}).ok());
    std::vector<std::uint8_t> out(kBlockSize);
    std::uint64_t total = 0;
    for (int i = 0; i < 1000; ++i) {
      std::uint32_t errors = 0;
      EXPECT_TRUE(nand.read(0, 0, out, nullptr, &errors).ok());
      total += errors;
    }
    return static_cast<double>(total) / 1000.0;
  };
  EXPECT_GT(mean_errors_at_pe(100), mean_errors_at_pe(0) + 1.0);
}

TEST(NandReliabilityModel, ReadDisturbAccumulatesAndErasesReset) {
  NandReliability reliability;
  reliability.read_disturb_rber_per_read = 1e-8;
  NandDevice nand(SmallGeometry(), reliability, 7);
  ASSERT_TRUE(nand.program(0, 0, Page(1), {}).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(nand.read(0, 0, out).ok());
  }
  EXPECT_EQ(nand.reads_since_erase(0), 5000u);
  // At 5000 reads the per-read RBER is 5e-5 => ~1.6 errors/page.
  std::uint64_t total = 0;
  for (int i = 0; i < 500; ++i) {
    std::uint32_t errors = 0;
    ASSERT_TRUE(nand.read(0, 0, out, nullptr, &errors).ok());
    total += errors;
  }
  EXPECT_GT(total, 200u);
  ASSERT_TRUE(nand.erase(0).ok());
  EXPECT_EQ(nand.reads_since_erase(0), 0u);
}

TEST(FtlFlashEcc, BudgetSeparatesCorrectableFromFatal) {
  SimClock clock;
  DramConfig dc;
  dc.geometry = test::SmallDram();
  dc.profile = DramProfile::Invulnerable();
  DramDevice dram(dc, MakeLinearMapper(dc.geometry), clock);
  NandReliability reliability;
  reliability.base_rber = 2e-4;  // mean ~6.5 raw errors per page
  NandDevice nand(SmallGeometry(), reliability, 11);
  FtlConfig fc;
  fc.num_lbas = 64;
  fc.page_ecc_correctable_bits = 40;  // plenty: reads succeed
  Ftl ftl(fc, nand, dram);
  ASSERT_TRUE(ftl.write(Lba(1), Page(0x5A)).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(ftl.read(Lba(1), out).ok());
  }
  EXPECT_GT(ftl.stats().flash_raw_bit_errors, 500u);
  EXPECT_EQ(ftl.stats().flash_ecc_uncorrectable, 0u);
  EXPECT_EQ(out, Page(0x5A));  // always corrected

  // A tiny budget makes the same media unusable.
  SimClock clock2;
  DramDevice dram2(dc, MakeLinearMapper(dc.geometry), clock2);
  NandDevice nand2(SmallGeometry(), reliability, 11);
  fc.page_ecc_correctable_bits = 2;
  Ftl ftl2(fc, nand2, dram2);
  ASSERT_TRUE(ftl2.write(Lba(1), Page(0x5A)).ok());
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!ftl2.read(Lba(1), out).ok()) ++failures;
  }
  EXPECT_GT(failures, 100);
  EXPECT_GT(ftl2.stats().flash_ecc_uncorrectable, 100u);
}

TEST(FtlFlashEcc, DeterministicPerSeed) {
  NandReliability reliability;
  reliability.base_rber = 1e-4;
  auto total_for_seed = [&](std::uint64_t seed) {
    NandDevice nand(SmallGeometry(), reliability, seed);
    EXPECT_TRUE(nand.program(0, 0, Page(1), {}).ok());
    std::vector<std::uint8_t> out(kBlockSize);
    std::uint64_t total = 0;
    for (int i = 0; i < 300; ++i) {
      std::uint32_t errors = 0;
      EXPECT_TRUE(nand.read(0, 0, out, nullptr, &errors).ok());
      total += errors;
    }
    return total;
  };
  EXPECT_EQ(total_for_seed(5), total_for_seed(5));
  EXPECT_NE(total_for_seed(5), total_for_seed(6));
}

TEST(NandReliabilityModel, RejectsNegativeRates) {
  NandReliability reliability;
  reliability.base_rber = -1.0;
  EXPECT_THROW(
      NandDevice(SmallGeometry(), reliability, 1),
      CheckFailure);
}

}  // namespace
}  // namespace rhsd
