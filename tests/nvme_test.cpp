// Tests for the NVMe front end: namespace translation and isolation,
// the IOPS timing model, and the rate-limiter mitigation.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "nvme/nvme_controller.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

struct NvmeRig {
  explicit NvmeRig(NvmeConfig config = DefaultConfig()) {
    DramConfig dc;
    dc.geometry = test::SmallDram();
    dc.profile = DramProfile::Invulnerable();
    dram = std::make_unique<DramDevice>(
        dc, MakeLinearMapper(dc.geometry), clock);
    nand = std::make_unique<NandDevice>(
        NandGeometry{.channels = 1,
                     .dies_per_channel = 1,
                     .planes_per_die = 1,
                     .blocks_per_plane = 8,
                     .pages_per_block = 16,
                     .page_bytes = kBlockSize});
    FtlConfig fc;
    fc.num_lbas = 64;
    ftl = std::make_unique<Ftl>(fc, *nand, *dram);
    controller = std::make_unique<NvmeController>(config, *ftl, clock);
  }

  static NvmeConfig DefaultConfig() {
    NvmeConfig c;
    c.namespaces = {NvmeNamespaceConfig{Lba(0), 32},
                    NvmeNamespaceConfig{Lba(32), 32}};
    c.iops = IopsModel(1e6);
    return c;
  }

  SimClock clock;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<NandDevice> nand;
  std::unique_ptr<Ftl> ftl;
  std::unique_ptr<NvmeController> controller;
};

std::vector<std::uint8_t> Block(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kBlockSize, fill);
}

TEST(Nvme, WriteReadWithinNamespace) {
  NvmeRig rig;
  ASSERT_TRUE(rig.controller->write(1, 5, Block(0xAA)).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(rig.controller->read(1, 5, out).ok());
  EXPECT_EQ(out, Block(0xAA));
}

TEST(Nvme, NamespacesAreDisjointWindows) {
  NvmeRig rig;
  ASSERT_TRUE(rig.controller->write(1, 0, Block(0x11)).ok());
  ASSERT_TRUE(rig.controller->write(2, 0, Block(0x22)).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(rig.controller->read(1, 0, out).ok());
  EXPECT_EQ(out, Block(0x11));
  ASSERT_TRUE(rig.controller->read(2, 0, out).ok());
  EXPECT_EQ(out, Block(0x22));
  // They map to different device LBAs on the shared FTL.
  EXPECT_NE(rig.ftl->debug_lookup(Lba(0)), rig.ftl->debug_lookup(Lba(32)));
}

TEST(Nvme, SlbaBeyondNamespaceRejected) {
  NvmeRig rig;
  std::vector<std::uint8_t> buf(kBlockSize);
  // Device LBA 32 is valid, but it belongs to namespace 2 — namespace 1
  // cannot address it ("a block address is only valid within its
  // partition", §4.1).
  EXPECT_EQ(rig.controller->read(1, 32, buf).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(rig.controller->write(2, 32, buf).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(rig.controller->stats().errors, 2u);
}

TEST(Nvme, UnknownNamespaceRejected) {
  NvmeRig rig;
  std::vector<std::uint8_t> buf(kBlockSize);
  EXPECT_EQ(rig.controller->read(0, 0, buf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rig.controller->read(3, 0, buf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rig.controller->flush(9).code(),
            StatusCode::kInvalidArgument);
}

TEST(Nvme, MultiBlockTransfers) {
  NvmeRig rig;
  std::vector<std::uint8_t> data(4 * kBlockSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i / kBlockSize + 1);
  }
  ASSERT_TRUE(rig.controller->write(1, 8, data).ok());
  std::vector<std::uint8_t> out(4 * kBlockSize);
  ASSERT_TRUE(rig.controller->read(1, 8, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(rig.controller->stats().write_cmds, 4u);
  EXPECT_EQ(rig.controller->stats().read_cmds, 4u);
}

TEST(Nvme, UnalignedLengthRejected) {
  NvmeRig rig;
  std::vector<std::uint8_t> buf(kBlockSize + 5);
  EXPECT_EQ(rig.controller->read(1, 0, buf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rig.controller->write(1, 0, buf).code(),
            StatusCode::kInvalidArgument);
}

TEST(Nvme, TrimUnmapsRange) {
  NvmeRig rig;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(rig.controller->write(1, i, Block(7)).ok());
  }
  ASSERT_TRUE(rig.controller->trim(1, 0, 4).ok());
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.ftl->debug_lookup(Lba(i)), kUnmappedPba32);
  }
  EXPECT_EQ(rig.controller->stats().trim_cmds, 4u);
}

TEST(Nvme, CommandsAdvanceSimulatedTime) {
  NvmeRig rig;
  const auto t0 = rig.clock.now_ns();
  std::vector<std::uint8_t> buf(kBlockSize);
  ASSERT_TRUE(rig.controller->read(1, 0, buf).ok());  // unmapped read
  // At 1M IOPS one command takes ~1 us.
  EXPECT_GE(rig.clock.now_ns() - t0, 900u);
  EXPECT_LE(rig.clock.now_ns() - t0, 1200u);
}

TEST(Nvme, MeasuredIopsApproachesModelLimit) {
  NvmeRig rig;
  std::vector<std::uint8_t> buf(kBlockSize);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(rig.controller->read(1, 0, buf).ok());
  }
  EXPECT_NEAR(rig.controller->measured_iops(), 1e6, 1e5);
}

TEST(Nvme, RateLimiterCapsEffectiveRate) {
  NvmeConfig config = NvmeRig::DefaultConfig();
  config.rate_limit = RateLimiterConfig{.max_iops = 100e3, .burst = 8};
  NvmeRig rig(config);
  std::vector<std::uint8_t> buf(kBlockSize);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(rig.controller->read(1, 0, buf).ok());
  }
  EXPECT_LT(rig.controller->measured_iops(), 115e3);
}

TEST(Nvme, FlushIsAcceptedAndCharged) {
  NvmeRig rig;
  const auto t0 = rig.clock.now_ns();
  ASSERT_TRUE(rig.controller->flush(1).ok());
  EXPECT_GT(rig.clock.now_ns(), t0);
  EXPECT_EQ(rig.controller->stats().flush_cmds, 1u);
}

TEST(Nvme, RejectsOverlappingNamespaces) {
  NvmeConfig config = NvmeRig::DefaultConfig();
  config.namespaces = {NvmeNamespaceConfig{Lba(0), 40},
                       NvmeNamespaceConfig{Lba(32), 32}};
  EXPECT_THROW(NvmeRig rig(config), CheckFailure);
}

TEST(Nvme, RejectsNamespaceBeyondCapacity) {
  NvmeConfig config = NvmeRig::DefaultConfig();
  config.namespaces = {NvmeNamespaceConfig{Lba(0), 65}};
  EXPECT_THROW(NvmeRig rig(config), CheckFailure);
}

TEST(IopsModel, InterfaceCalibrations) {
  // §3.1 and §4's cited numbers.
  EXPECT_DOUBLE_EQ(MaxIops(HostInterface::kPcie4), 1.5e6);
  EXPECT_GT(MaxIops(HostInterface::kPcie5), 2e6);
  EXPECT_DOUBLE_EQ(MaxIops(HostInterface::kCloudVm), 2e6);
  // Figure 2: the unprivileged testbed host is slower than the
  // attacker VM's direct path.
  EXPECT_LT(MaxIops(HostInterface::kTestbedHost),
            MaxIops(HostInterface::kTestbedVmDirect));
}

TEST(IopsModel, ServiceTimeRoundsToNearest) {
  // 1.5e6 IOPS is 666.67 ns per command; truncation charged 666 ns and
  // quietly inflated modeled IOPS by the accumulated fraction.
  const IopsModel pcie4(MaxIops(HostInterface::kPcie4), 4.0);
  EXPECT_EQ(pcie4.service_ns(false), 667u);
  // 2.1e6 IOPS is 476.19 ns: the fraction below one half still truncates.
  const IopsModel pcie5(MaxIops(HostInterface::kPcie5), 4.0);
  EXPECT_EQ(pcie5.service_ns(false), 476u);
  // 64 parallel units amortize 50 us tR to 781.25 ns, which rounds down
  // and outlasts PCIe 4's interface gap.
  const IopsModel parallel(MaxIops(HostInterface::kPcie4));
  EXPECT_EQ(parallel.service_ns(true), 781u);
}

TEST(IopsModel, UnmappedReadsAreFasterThanFlashReads) {
  const IopsModel model(1e6, /*flash_parallelism=*/4.0);
  ASSERT_EQ(NandDevice::latency().read_ns, 50'000u);  // 50 us tR
  const auto no_flash = model.service_ns(false);
  const auto with_flash = model.service_ns(true);
  EXPECT_LT(no_flash, with_flash);  // §3: trimmed blocks hammer faster
  EXPECT_EQ(with_flash, 50'000u / 4);
}

TEST(RateLimiter, TokenBucketMath) {
  RateLimiter limiter(RateLimiterConfig{.max_iops = 1000, .burst = 2});
  // Burst passes immediately.
  EXPECT_EQ(limiter.acquire(0), 0u);
  EXPECT_EQ(limiter.acquire(0), 0u);
  // Third command at t=0 must wait ~1ms for a token.
  const auto stall = limiter.acquire(0);
  EXPECT_NEAR(static_cast<double>(stall), 1e6, 1e4);
  // After a long idle period the bucket refills (up to burst).
  EXPECT_EQ(limiter.acquire(1'000'000'000), 0u);
  EXPECT_EQ(limiter.acquire(1'000'000'000), 0u);
  EXPECT_GT(limiter.acquire(1'000'000'000), 0u);
}

TEST(RateLimiter, LongRunAdmissionRateNeverExceedsConfig) {
  // Regression: acquire() used to truncate the stall toward zero while
  // also zeroing the fractional token, so a sustained train of stalled
  // commands was admitted slightly faster than max_iops.
  constexpr double kIops = 333.0;  // deliberately not a divisor of 1e9
  RateLimiter limiter(RateLimiterConfig{.max_iops = kIops, .burst = 1});
  std::uint64_t now = 0;
  constexpr std::uint64_t kCommands = 100'000;
  for (std::uint64_t i = 0; i < kCommands; ++i) now += limiter.acquire(now);
  // The bucket admits at most burst + elapsed * max_iops commands, so a
  // back-to-back train of kCommands must take at least
  // (kCommands - burst) / max_iops seconds...
  const double elapsed_s = static_cast<double>(now) * 1e-9;
  const double floor_s = static_cast<double>(kCommands - 1) / kIops;
  EXPECT_GE(elapsed_s, floor_s);
  // ...and ceil over-stalls by less than 1 ns per command.
  EXPECT_LE(elapsed_s, floor_s + static_cast<double>(kCommands) * 1e-9);
}

TEST(RateLimiter, SteadyStallFindsTheFixedPoint) {
  // Commands sent one 625 ns service time after the previous stall:
  // steady_stall() must report a stall exactly when every later
  // acquire() repeats it, and skip_steady() must leave the state those
  // acquires would.
  constexpr std::uint64_t kService = 625;
  const auto drive = [](RateLimiter& l, std::uint64_t& now, int n) {
    for (int i = 0; i < n; ++i) now += l.acquire(now) + kService;
  };

  // A 4-command burst at 500K IOPS (0.3125 tokens per gap) drains, then
  // every command stalls the same.
  RateLimiter drained(RateLimiterConfig{.max_iops = 500e3, .burst = 4});
  std::uint64_t now = 1'000'000;
  EXPECT_FALSE(drained.steady_stall(now, kService).has_value());  // idle gap
  drive(drained, now, 1);
  EXPECT_FALSE(drained.steady_stall(now, kService).has_value());  // draining
  drive(drained, now, 10);
  const std::optional<std::uint64_t> stall =
      drained.steady_stall(now, kService);
  ASSERT_TRUE(stall.has_value());
  EXPECT_GT(*stall, 0u);
  RateLimiter stepped = drained;
  std::uint64_t t = now;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(stepped.acquire(t), *stall);
    t += *stall + kService;
  }
  RateLimiter skipped = drained;
  skipped.skip_steady(now + 49 * (*stall + kService), *stall);
  EXPECT_EQ(skipped.steady_stall(t, kService), stall);
  EXPECT_EQ(skipped.acquire(t + 40), stepped.acquire(t + 40));
  // Off the fixed point again after an idle gap: the refill is larger.
  EXPECT_FALSE(stepped.steady_stall(t + 3 * kService, kService).has_value());

  // Faster than the service rate (1.25 tokens per gap): once the bucket
  // refills to its cap, no command stalls.
  RateLimiter never(RateLimiterConfig{.max_iops = 2e6, .burst = 8});
  now = 1'000'000;
  drive(never, now, 1);
  EXPECT_FALSE(never.steady_stall(now + kService, kService).has_value());
  const std::optional<std::uint64_t> zero = never.steady_stall(now, kService);
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(*zero, 0u);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(never.acquire(now), 0u);
    now += kService;
  }
}

}  // namespace
}  // namespace rhsd
