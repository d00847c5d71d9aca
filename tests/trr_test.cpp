// Tests for the TRR heavy-hitter tracker, including the bounded-capacity
// behaviour many-sided hammering exploits.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "dram/trr.hpp"

namespace rhsd {
namespace {

TEST(Trr, FiresAtThreshold) {
  TrrTracker trr(TrrConfig{.trackers_per_bank = 4,
                           .activation_threshold = 100},
                 /*num_banks=*/1);
  for (int i = 0; i < 99; ++i) {
    EXPECT_FALSE(trr.on_activate(0, 7).has_value()) << "at " << i;
  }
  const auto fired = trr.on_activate(0, 7);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, 7u);
  EXPECT_EQ(trr.refreshes_issued(), 1u);
}

TEST(Trr, CountRestartsAfterFiring) {
  TrrTracker trr(TrrConfig{4, 10}, 1);
  for (int i = 0; i < 9; ++i) (void)trr.on_activate(0, 3);
  EXPECT_TRUE(trr.on_activate(0, 3).has_value());
  // Needs another full run to fire again.
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(trr.on_activate(0, 3).has_value());
  }
  EXPECT_TRUE(trr.on_activate(0, 3).has_value());
}

TEST(Trr, BanksAreIndependent) {
  TrrTracker trr(TrrConfig{4, 10}, 2);
  for (int i = 0; i < 9; ++i) {
    (void)trr.on_activate(0, 5);
    (void)trr.on_activate(1, 5);
  }
  EXPECT_TRUE(trr.on_activate(0, 5).has_value());
  EXPECT_TRUE(trr.on_activate(1, 5).has_value());
}

TEST(Trr, TracksDistinctRowsUpToCapacity) {
  TrrTracker trr(TrrConfig{3, 5}, 1);
  // Three rows fit; all should fire eventually.
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t row = 0; row < 3; ++row) {
      const auto fired = trr.on_activate(0, row);
      if (round == 4) {
        EXPECT_TRUE(fired.has_value()) << "row " << row;
      } else {
        EXPECT_FALSE(fired.has_value());
      }
    }
  }
}

TEST(Trr, ManySidedChurnPreventsFiring) {
  // The TRRespass-style evasion: rotating more distinct rows than the
  // tracker has entries keeps every counter near zero.
  TrrTracker trr(TrrConfig{.trackers_per_bank = 4,
                           .activation_threshold = 50},
                 1);
  // 2 aggressors + three rotating-decoy arrivals per pass: inserts and
  // decrement-alls keep the aggressor counters pinned near zero.
  std::uint64_t fired_count = 0;
  for (int round = 0; round < 5000; ++round) {
    if (trr.on_activate(0, 1).has_value()) ++fired_count;
    if (trr.on_activate(0, 3).has_value()) ++fired_count;
    for (int j = 0; j < 3; ++j) {
      if (trr.on_activate(0, 100 + (3 * round + j) % 9).has_value()) {
        ++fired_count;
      }
    }
  }
  EXPECT_EQ(fired_count, 0u);
}

TEST(Trr, PlainDoubleSidedIsCaught) {
  TrrTracker trr(TrrConfig{4, 50}, 1);
  std::uint64_t fired = 0;
  for (int round = 0; round < 5000; ++round) {
    if (trr.on_activate(0, 1).has_value()) ++fired;
    if (trr.on_activate(0, 3).has_value()) ++fired;
  }
  // 10000 activations at threshold 50: on the order of 200 refreshes.
  EXPECT_GT(fired, 100u);
}

TEST(Trr, ResetClearsState) {
  TrrTracker trr(TrrConfig{4, 10}, 1);
  for (int i = 0; i < 9; ++i) (void)trr.on_activate(0, 2);
  trr.reset();
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(trr.on_activate(0, 2).has_value());
  }
  EXPECT_TRUE(trr.on_activate(0, 2).has_value());
}

TEST(Trr, RejectsBadConfig) {
  EXPECT_THROW(TrrTracker(TrrConfig{0, 10}, 1), CheckFailure);
  EXPECT_THROW(TrrTracker(TrrConfig{4, 0}, 1), CheckFailure);
}

TEST(Trr, BatchedAdvanceMatchesScalarOnRandomHistories) {
  // advance_cmds() must leave the tracker exactly where `events` scalar
  // on_activate calls would, and emit the same refreshes at the same
  // activation indices — from *any* starting table, including ones the
  // command stream thrashes against.  Randomize the prehistory, the
  // config, the command list, the repeat, and the batch length.  The
  // lists cycle through the three shapes the DRAM replay feeds it: one
  // row (one-location hammering, the FTL's per-I/O repeats), an
  // alternating pair (double-sided), and 1-6 rows (a read pattern).
  Rng rng(0xADBA7C4);
  for (int iter = 0; iter < 900; ++iter) {
    TrrConfig config;
    config.trackers_per_bank = 1 + static_cast<std::uint32_t>(
        rng.next_below(4));
    config.activation_threshold = 3 + rng.next_below(48);
    TrrTracker batched(config, /*num_banks=*/1);
    TrrTracker scalar(config, /*num_banks=*/1);

    // Arbitrary starting table: random traffic over a small row pool.
    const std::uint64_t prehistory = rng.next_below(120);
    for (std::uint64_t i = 0; i < prehistory; ++i) {
      const auto row = static_cast<std::uint32_t>(rng.next_below(8));
      const auto fb = batched.on_activate(0, row);
      const auto fs = scalar.on_activate(0, row);
      ASSERT_EQ(fb, fs);
    }

    std::vector<std::uint32_t> cmd_rows;
    const auto pool_row = [&] {
      return static_cast<std::uint32_t>(rng.next_below(8));
    };
    switch (iter % 3) {
      case 0:
        cmd_rows = {pool_row()};
        break;
      case 1: {
        const std::uint32_t a = pool_row();
        cmd_rows = {a, (a + 1 + static_cast<std::uint32_t>(
                                    rng.next_below(7))) % 8};
        break;
      }
      default:
        for (std::uint64_t n = 1 + rng.next_below(6); n > 0; --n) {
          cmd_rows.push_back(pool_row());
        }
    }
    const std::uint64_t repeat = 1 + rng.next_below(6);
    const std::uint64_t events = rng.next_below(600);

    std::vector<TrrEmission> emissions;
    batched.advance_cmds(0, cmd_rows, repeat, events, emissions);
    std::size_t next = 0;
    for (std::uint64_t e = 1; e <= events; ++e) {
      const std::uint32_t row =
          cmd_rows[((e - 1) / repeat) % cmd_rows.size()];
      const auto fired = scalar.on_activate(0, row);
      if (fired.has_value()) {
        ASSERT_LT(next, emissions.size()) << "iter " << iter << " event " << e;
        EXPECT_EQ(emissions[next].index, e) << "iter " << iter;
        EXPECT_EQ(emissions[next].row, *fired) << "iter " << iter;
        ++next;
      }
    }
    EXPECT_EQ(next, emissions.size()) << "iter " << iter;
    EXPECT_EQ(batched.refreshes_issued(), scalar.refreshes_issued())
        << "iter " << iter;

    // Final tracker state must agree: probe both with the same tail.
    for (std::uint64_t i = 0; i < 80; ++i) {
      const auto row = static_cast<std::uint32_t>(rng.next_below(8));
      ASSERT_EQ(batched.on_activate(0, row), scalar.on_activate(0, row))
          << "iter " << iter << " probe " << i;
    }
  }
}

}  // namespace
}  // namespace rhsd
