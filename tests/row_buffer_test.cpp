// Tests for the closed-page row buffer: the controller precharges after
// every access, so every access — same-row or alternating — activates
// its row, which is what lets one-location hammering flip bits.
#include <gtest/gtest.h>

#include <memory>

#include "dram/dram_device.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

std::unique_ptr<DramDevice> MakeDevice(SimClock& clock) {
  DramConfig config;
  config.geometry = DramGeometry::Tiny();
  config.profile = test::EasyFlipProfile();
  config.seed = 7;
  return std::make_unique<DramDevice>(
      config, MakeLinearMapper(config.geometry), clock);
}

TEST(RowBuffer, ClosedPageActivatesEveryAccess) {
  SimClock clock;
  auto dram = MakeDevice(clock);
  std::uint8_t byte;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(dram->read(DramAddr(1 * 128), {&byte, 1}).ok());
  }
  EXPECT_EQ(dram->stats().activations, 1000u);
  EXPECT_EQ(dram->stats().row_buffer_hits, 0u);
}

TEST(RowBuffer, AlternatingPatternActivatesEveryAccess) {
  SimClock clock;
  auto dram = MakeDevice(clock);
  std::uint8_t byte;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(dram->read(DramAddr(1 * 128), {&byte, 1}).ok());
    ASSERT_TRUE(dram->read(DramAddr(3 * 128), {&byte, 1}).ok());
  }
  EXPECT_EQ(dram->stats().activations, 1000u);
}

TEST(RowBuffer, OneLocationHammeringFlipsUnderClosedPage) {
  // The §3.1 one-location variant relies on the controller closing the
  // row between accesses.
  SimClock clock;
  auto dram = MakeDevice(clock);
  std::uint8_t byte;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(dram->read(DramAddr(2 * 128), {&byte, 1}).ok());
  }
  EXPECT_GT(dram->stats().bitflips, 0u);
}

}  // namespace
}  // namespace rhsd
