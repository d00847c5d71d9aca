// Tests for the DRAM device: storage semantics, activation accounting,
// refresh windows, organic rowhammer bitflips, and the ECC / TRR / cache
// mitigations wired into the device.
#include <gtest/gtest.h>

#include <memory>

#include "dram/dram_device.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

DramConfig SmallConfig() {
  DramConfig c;
  c.geometry = DramGeometry::Tiny();  // 2 banks x 16 rows x 128 B
  c.profile = test::EasyFlipProfile();
  c.seed = 7;
  return c;
}

std::unique_ptr<DramDevice> MakeDevice(SimClock& clock,
                                       DramConfig config = SmallConfig()) {
  auto mapper = MakeLinearMapper(config.geometry);
  return std::make_unique<DramDevice>(config, std::move(mapper), clock);
}

/// With the linear mapper, row r of bank 0 covers addresses
/// [r*row_bytes, (r+1)*row_bytes).
DramAddr RowAddr(const DramConfig& c, std::uint64_t global_row,
                 std::uint32_t col = 0) {
  return DramAddr(global_row * c.geometry.row_bytes + col);
}

void HammerPair(DramDevice& dram, const DramConfig& c, std::uint64_t left,
                std::uint64_t right, int rounds) {
  std::uint8_t byte;
  for (int i = 0; i < rounds; ++i) {
    ASSERT_TRUE(dram.read(RowAddr(c, left), {&byte, 1}).ok());
    ASSERT_TRUE(dram.read(RowAddr(c, right), {&byte, 1}).ok());
  }
}

TEST(CmdTimes, ArithmeticProgression) {
  const CmdTimes t{1000, 625, 8};  // 1000, 1625, ..., 5375
  EXPECT_EQ(t[0], 1000u);
  EXPECT_EQ(t[7], 1000u + 7 * 625);
  const CmdTimes mid = t.sub(3, 4);
  EXPECT_EQ(mid.t0, t[3]);
  EXPECT_EQ(mid.stride, 625u);
  EXPECT_EQ(mid.count, 4u);
  EXPECT_EQ(mid[3], t[6]);
  EXPECT_EQ(t.sub(8, 0).count, 0u);

  // first_at_or_after: at or before t0 is command 0; an exact term is
  // its own index; between terms rounds up; past the last is count.
  EXPECT_EQ(t.first_at_or_after(0), 0u);
  EXPECT_EQ(t.first_at_or_after(1000), 0u);
  EXPECT_EQ(t.first_at_or_after(1001), 1u);
  EXPECT_EQ(t.first_at_or_after(1625), 1u);
  EXPECT_EQ(t.first_at_or_after(1000 + 5 * 625), 5u);
  EXPECT_EQ(t.first_at_or_after(1000 + 5 * 625 + 1), 6u);
  EXPECT_EQ(t.first_at_or_after(t[7]), 7u);
  EXPECT_EQ(t.first_at_or_after(t[7] + 1), 8u);
  EXPECT_EQ(t.first_at_or_after(~0ull / 2), 8u);

  // Stride 0: every command at t0.
  const CmdTimes flat{500, 0, 5};
  EXPECT_EQ(flat[4], 500u);
  EXPECT_EQ(flat.sub(2, 3).t0, 500u);
  EXPECT_EQ(flat.first_at_or_after(500), 0u);
  EXPECT_EQ(flat.first_at_or_after(501), 5u);

  // Count 0: no command at or after any time.
  const CmdTimes none{500, 625, 0};
  EXPECT_EQ(none.first_at_or_after(0), 0u);
  EXPECT_EQ(none.first_at_or_after(500), 0u);
  EXPECT_EQ(none.first_at_or_after(10'000), 0u);
  const CmdTimes none_flat{500, 0, 0};
  EXPECT_EQ(none_flat.first_at_or_after(501), 0u);
}

TEST(DramDevice, ReadsZeroByDefault) {
  SimClock clock;
  auto dram = MakeDevice(clock);
  std::vector<std::uint8_t> buf(64, 0xAB);
  ASSERT_TRUE(dram->read(DramAddr(100), buf).ok());
  for (auto b : buf) EXPECT_EQ(b, 0);
}

TEST(DramDevice, WriteReadRoundTrip) {
  SimClock clock;
  auto dram = MakeDevice(clock);
  std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(dram->write(DramAddr(200), data).ok());
  std::vector<std::uint8_t> out(5);
  ASSERT_TRUE(dram->read(DramAddr(200), out).ok());
  EXPECT_EQ(out, data);
}

TEST(DramDevice, CrossRowAccessTouchesBothRows) {
  SimClock clock;
  const DramConfig c = SmallConfig();
  auto dram = MakeDevice(clock);
  std::vector<std::uint8_t> data(64, 0x5A);
  // Straddles rows 0 and 1.
  ASSERT_TRUE(
      dram->write(DramAddr(c.geometry.row_bytes - 32), data).ok());
  std::vector<std::uint8_t> out(64);
  ASSERT_TRUE(dram->read(DramAddr(c.geometry.row_bytes - 32), out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GE(dram->row_activations(0), 1u);
  EXPECT_GE(dram->row_activations(1), 1u);
}

TEST(DramDevice, OutOfRangeRejected) {
  SimClock clock;
  const DramConfig c = SmallConfig();
  auto dram = MakeDevice(clock);
  std::vector<std::uint8_t> buf(16);
  EXPECT_EQ(
      dram->read(DramAddr(c.geometry.total_bytes() - 8), buf).code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(
      dram->write(DramAddr(c.geometry.total_bytes()), buf).code(),
      StatusCode::kOutOfRange);
}

TEST(DramDevice, ActivationsCountedPerRowPerWindow) {
  SimClock clock;
  const DramConfig c = SmallConfig();
  auto dram = MakeDevice(clock);
  std::uint8_t byte;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(dram->read(RowAddr(c, 4), {&byte, 1}).ok());
  }
  EXPECT_EQ(dram->row_activations(4), 10u);
  EXPECT_EQ(dram->stats().activations, 10u);
  // Crossing the refresh window resets the per-row count.
  clock.advance_seconds(0.065);
  EXPECT_EQ(dram->row_activations(4), 0u);
}

TEST(DramDevice, PeekPokeDoNotActivate) {
  SimClock clock;
  auto dram = MakeDevice(clock);
  std::vector<std::uint8_t> data = {9, 8, 7};
  dram->poke(DramAddr(50), data);
  std::vector<std::uint8_t> out(3);
  dram->peek(DramAddr(50), out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(dram->stats().activations, 0u);
  EXPECT_EQ(dram->stats().reads, 0u);
}

TEST(DramDevice, DoubleSidedHammerFlipsVictimBits) {
  SimClock clock;
  const DramConfig c = SmallConfig();
  auto dram = MakeDevice(clock);
  // Rows 1 and 3 are aggressors; row 2 is the victim (bank 0, linear).
  // EasyFlip threshold = 6400 effective; 4000 rounds double-sided gives
  // H = 4*4000 = 16000, above every cell's threshold.
  HammerPair(*dram, c, 1, 3, 4000);
  EXPECT_GT(dram->stats().bitflips, 0u);
  ASSERT_FALSE(dram->flip_events().empty());
  for (const FlipEvent& e : dram->flip_events()) {
    // Victims must be adjacent to an aggressor.
    EXPECT_TRUE(e.global_row == 0 || e.global_row == 2 ||
                e.global_row == 4)
        << "unexpected victim row " << e.global_row;
  }
}

TEST(DramDevice, FlipsActuallyChangeStoredBytes) {
  SimClock clock;
  const DramConfig c = SmallConfig();
  auto dram = MakeDevice(clock);
  // Prime the victim row so every vulnerable cell is visible (current
  // bit = complement of its failure value).
  std::vector<std::uint8_t> row(c.geometry.row_bytes, 0);
  auto& cells = dram->disturbance().cells(2);
  ASSERT_FALSE(cells.empty());
  for (const VulnCell& cell : cells) {
    if (cell.failure_value == 0) {
      row[cell.byte_offset] |= static_cast<std::uint8_t>(1u << cell.bit);
    }
  }
  dram->poke(RowAddr(c, 2), row);

  HammerPair(*dram, c, 1, 3, 4000);
  std::vector<std::uint8_t> after(c.geometry.row_bytes);
  dram->peek(RowAddr(c, 2), after);
  std::size_t changed = 0;
  for (std::uint32_t i = 0; i < c.geometry.row_bytes; ++i) {
    if (after[i] != row[i]) ++changed;
  }
  EXPECT_GT(changed, 0u);
  // And every change corresponds to a known vulnerable cell.
  for (const FlipEvent& e : dram->flip_events()) {
    if (e.global_row != 2) continue;
    bool known = false;
    for (const VulnCell& cell : cells) {
      known |= (cell.byte_offset == e.byte_offset && cell.bit == e.bit);
    }
    EXPECT_TRUE(known);
  }
}

TEST(DramDevice, BelowThresholdNoFlips) {
  SimClock clock;
  const DramConfig c = SmallConfig();
  auto dram = MakeDevice(clock);
  // H = 4*1000 = 4000 < 6400.
  HammerPair(*dram, c, 1, 3, 1000);
  EXPECT_EQ(dram->stats().bitflips, 0u);
}

TEST(DramDevice, RefreshWindowBoundsExposure) {
  SimClock clock;
  const DramConfig c = SmallConfig();
  auto dram = MakeDevice(clock);
  // 1200 rounds per window (H=4800 < 6400), three windows: no flips —
  // the refresh interval is doing its job.
  for (int w = 0; w < 3; ++w) {
    HammerPair(*dram, c, 1, 3, 1200);
    clock.advance_seconds(0.065);
  }
  EXPECT_EQ(dram->stats().bitflips, 0u);
  // Same 3600 total rounds inside one window: flips.
  HammerPair(*dram, c, 1, 3, 3600);
  EXPECT_GT(dram->stats().bitflips, 0u);
}

TEST(DramDevice, SingleSidedNeedsMoreAccessesThanDoubleSided) {
  const DramConfig c = SmallConfig();
  // Double-sided with 2N total reads reaching H=4N; single-sided needs
  // H=N from N reads. Compare the minimum reads to first flip.
  auto first_flip_reads = [&](bool double_sided) -> std::uint64_t {
    SimClock clock;
    auto dram = MakeDevice(clock);
    std::uint8_t byte;
    for (std::uint64_t reads = 0; reads < 60000;) {
      EXPECT_TRUE(dram->read(RowAddr(c, 1), {&byte, 1}).ok());
      ++reads;
      if (double_sided) {
        EXPECT_TRUE(dram->read(RowAddr(c, 3), {&byte, 1}).ok());
        ++reads;
      }
      if (dram->stats().bitflips > 0) return reads;
    }
    return ~0ull;
  };
  const std::uint64_t ds = first_flip_reads(true);
  const std::uint64_t ss = first_flip_reads(false);
  ASSERT_NE(ds, ~0ull);
  ASSERT_NE(ss, ~0ull);
  EXPECT_LT(ds, ss);  // §4.2: single-sided flips fewer bits per access
}

TEST(DramDevice, FlippedCellLatchesUntilRewritten) {
  SimClock clock;
  const DramConfig c = SmallConfig();
  auto dram = MakeDevice(clock);
  auto& cells = dram->disturbance().cells(2);
  ASSERT_FALSE(cells.empty());
  // Make all cells visible, hammer, record flip count.
  std::vector<std::uint8_t> primed(c.geometry.row_bytes, 0);
  for (const VulnCell& cell : cells) {
    if (cell.failure_value == 0) {
      primed[cell.byte_offset] |=
          static_cast<std::uint8_t>(1u << cell.bit);
    }
  }
  dram->poke(RowAddr(c, 2), primed);
  HammerPair(*dram, c, 1, 3, 4000);
  const std::uint64_t flips1 = dram->stats().bitflips;
  ASSERT_GT(flips1, 0u);
  // Continue hammering in a fresh window without rewriting: cells are
  // already at their failure value, so nothing new flips.
  clock.advance_seconds(0.065);
  HammerPair(*dram, c, 1, 3, 4000);
  EXPECT_EQ(dram->stats().bitflips, flips1);
  // Rewrite the row: the cells recharge and can flip again.
  clock.advance_seconds(0.065);
  dram->poke(RowAddr(c, 2), primed);
  const std::uint64_t before = dram->stats().bitflips;
  HammerPair(*dram, c, 1, 3, 4000);
  EXPECT_GT(dram->stats().bitflips, before);
}

TEST(DramDevice, EccCorrectsHammerFlips) {
  SimClock clock;
  DramConfig c = SmallConfig();
  c.mitigations.ecc = true;
  auto dram = MakeDevice(clock, c);
  // Prime the victim row with recognizable content.
  std::vector<std::uint8_t> primed(c.geometry.row_bytes);
  auto& cells = dram->disturbance().cells(2);
  ASSERT_FALSE(cells.empty());
  for (std::uint32_t i = 0; i < primed.size(); ++i) {
    primed[i] = static_cast<std::uint8_t>(i);
  }
  for (const VulnCell& cell : cells) {
    // Make each cell visible.
    if (cell.failure_value == 0) {
      primed[cell.byte_offset] |=
          static_cast<std::uint8_t>(1u << cell.bit);
    } else {
      primed[cell.byte_offset] &=
          static_cast<std::uint8_t>(~(1u << cell.bit));
    }
  }
  ASSERT_TRUE(dram->write(RowAddr(c, 2), primed).ok());
  HammerPair(*dram, c, 1, 3, 4000);
  ASSERT_GT(dram->stats().bitflips, 0u);

  // Unless two cells share a 64-bit word, every read comes back
  // corrected.
  bool shared_word = false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      shared_word |= cells[i].byte_offset / 8 == cells[j].byte_offset / 8;
    }
  }
  std::vector<std::uint8_t> out(c.geometry.row_bytes);
  const Status s = dram->read(RowAddr(c, 2), out);
  if (!shared_word) {
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_EQ(out, primed);
    EXPECT_GT(dram->stats().ecc_corrected, 0u);
  }
}

TEST(DramDevice, EccDetectsDoubleFlipInOneWord) {
  // Find a seed/row where two vulnerable cells share a 64-bit word and
  // differ in bit position; then both flips land before any read and
  // the read must fail as uncorrectable.
  for (std::uint64_t seed = 1; seed < 400; ++seed) {
    SimClock clock;
    DramConfig c = SmallConfig();
    c.mitigations.ecc = true;
    c.seed = seed;
    auto dram = MakeDevice(clock, c);
    auto& cells = dram->disturbance().cells(2);
    const VulnCell* a = nullptr;
    const VulnCell* b = nullptr;
    for (std::size_t i = 0; i < cells.size() && b == nullptr; ++i) {
      for (std::size_t j = i + 1; j < cells.size(); ++j) {
        if (cells[i].byte_offset / 8 == cells[j].byte_offset / 8 &&
            (cells[i].byte_offset != cells[j].byte_offset ||
             cells[i].bit != cells[j].bit)) {
          a = &cells[i];
          b = &cells[j];
          break;
        }
      }
    }
    if (b == nullptr) continue;

    std::vector<std::uint8_t> primed(c.geometry.row_bytes, 0);
    for (const VulnCell* cell : {a, b}) {
      if (cell->failure_value == 0) {
        primed[cell->byte_offset] |=
            static_cast<std::uint8_t>(1u << cell->bit);
      } else {
        primed[cell->byte_offset] &=
            static_cast<std::uint8_t>(~(1u << cell->bit));
      }
    }
    ASSERT_TRUE(dram->write(RowAddr(c, 2), primed).ok());
    HammerPair(*dram, c, 1, 3, 5000);
    if (dram->stats().bitflips < 2) continue;

    std::vector<std::uint8_t> out(8);
    const std::uint32_t word_byte = (a->byte_offset / 8) * 8;
    const Status s = dram->read(RowAddr(c, 2, word_byte), out);
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
    EXPECT_GT(dram->stats().ecc_uncorrectable, 0u);
    return;  // found and verified
  }
  GTEST_SKIP() << "no seed produced a shared-word cell pair";
}

TEST(DramDevice, TrrPreventsDoubleSidedFlips) {
  SimClock clock;
  DramConfig c = SmallConfig();
  c.mitigations.trr = true;
  c.mitigations.trr_config = TrrConfig{.trackers_per_bank = 4,
                                       .activation_threshold = 500};
  auto dram = MakeDevice(clock, c);
  HammerPair(*dram, c, 1, 3, 20000);
  EXPECT_EQ(dram->stats().bitflips, 0u);
  EXPECT_GT(dram->stats().trr_refreshes, 0u);
}

TEST(DramDevice, ManySidedEvadesTrr) {
  SimClock clock;
  DramConfig c = SmallConfig();
  c.mitigations.trr = true;
  c.mitigations.trr_config = TrrConfig{.trackers_per_bank = 4,
                                       .activation_threshold = 500};
  auto dram = MakeDevice(clock, c);
  // Aggressors rows 1,3 + three rotating decoy arrivals (rows 6..14)
  // per pass thrash the tracker.
  std::uint8_t byte;
  for (int i = 0; i < 12000; ++i) {
    ASSERT_TRUE(dram->read(RowAddr(c, 1), {&byte, 1}).ok());
    ASSERT_TRUE(dram->read(RowAddr(c, 3), {&byte, 1}).ok());
    for (int j = 0; j < 3; ++j) {
      ASSERT_TRUE(
          dram->read(RowAddr(c, 6 + (3 * i + j) % 9), {&byte, 1}).ok());
    }
  }
  EXPECT_GT(dram->stats().bitflips, 0u);
  EXPECT_EQ(dram->stats().trr_refreshes, 0u);
}

TEST(DramDevice, CacheAbsorbsRepeatedAccesses) {
  SimClock clock;
  DramConfig c = SmallConfig();
  c.mitigations.cache = CacheConfig{4, 16};
  auto dram = MakeDevice(clock, c);
  std::uint8_t byte;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(dram->read(RowAddr(c, 1), {&byte, 1}).ok());
    ASSERT_TRUE(dram->read(RowAddr(c, 3), {&byte, 1}).ok());
  }
  // Two cold misses, everything else hits: no hammering pressure.
  EXPECT_EQ(dram->stats().activations, 2u);
  EXPECT_EQ(dram->stats().bitflips, 0u);
  EXPECT_GT(dram->stats().cache_hits, 19000u);
}

TEST(DramDevice, WritesBypassCacheAndStillActivate) {
  SimClock clock;
  DramConfig c = SmallConfig();
  c.mitigations.cache = CacheConfig{4, 16};
  auto dram = MakeDevice(clock, c);
  std::uint8_t value = 1;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(dram->write(RowAddr(c, 1), {&value, 1}).ok());
  }
  EXPECT_EQ(dram->stats().activations, 100u);
}

TEST(DramDevice, FasterRefreshOverrideRaisesBar) {
  // Same hammer rate that flips at 64 ms fails at a 16 ms window when
  // the accesses are spread in time.
  auto run = [](double interval_ms) {
    SimClock clock;
    DramConfig c = SmallConfig();
    c.mitigations.refresh_interval_ms_override = interval_ms;
    auto dram = MakeDevice(clock, c);
    std::uint8_t byte;
    // 2000 double-sided rounds spread over 64 ms of simulated time:
    // 32 us per round.
    for (int i = 0; i < 2000; ++i) {
      EXPECT_TRUE(dram->read(RowAddr(c, 1), {&byte, 1}).ok());
      EXPECT_TRUE(dram->read(RowAddr(c, 3), {&byte, 1}).ok());
      clock.advance_ns(32'000);
    }
    return dram->stats().bitflips;
  };
  EXPECT_GT(run(64.0), 0u);  // H = 8000 in one window >= 6400
  EXPECT_EQ(run(16.0), 0u);  // only 2000 effective per window
}

TEST(DramDevice, StatsCountReadsAndWrites) {
  SimClock clock;
  auto dram = MakeDevice(clock);
  std::uint8_t byte = 0;
  ASSERT_TRUE(dram->write(DramAddr(0), {&byte, 1}).ok());
  ASSERT_TRUE(dram->read(DramAddr(0), {&byte, 1}).ok());
  ASSERT_TRUE(dram->read(DramAddr(0), {&byte, 1}).ok());
  EXPECT_EQ(dram->stats().writes, 1u);
  EXPECT_EQ(dram->stats().reads, 2u);
}

TEST(DramDevice, ClearFlipEvents) {
  SimClock clock;
  const DramConfig c = SmallConfig();
  auto dram = MakeDevice(clock);
  HammerPair(*dram, c, 1, 3, 4000);
  ASSERT_FALSE(dram->flip_events().empty());
  dram->clear_flip_events();
  EXPECT_TRUE(dram->flip_events().empty());
  // Counters persist.
  EXPECT_GT(dram->stats().bitflips, 0u);
}

}  // namespace
}  // namespace rhsd
