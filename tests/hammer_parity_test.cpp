// Bit-exactness of the closed-form hammer replay.
//
// Every test drives two identically configured devices — one through
// the batched entry points (hammer_pair / hammer_row / read and write
// with a touch count, which replay 1- and 2-row patterns through the
// same core as hammer_pattern, and submit_pattern down the whole
// stack), one through the scalar reference path — and requires *identical*
// outcomes: the same DramStats, the same FlipEvent sequence (order
// included), and the same bytes in every row.  This is the contract
// that lets the FTL and the attack orchestrator use the replay without
// changing any experiment's results.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "dram/dram_device.hpp"
#include "exec/experiment_engine.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

std::unique_ptr<DramDevice> MakeDevice(DramConfig config, SimClock& clock) {
  return std::make_unique<DramDevice>(config,
                                      MakeLinearMapper(config.geometry),
                                      clock);
}

DramConfig BaseConfig(std::uint64_t seed) {
  DramConfig c;
  c.geometry = test::SmallDram();  // 2 banks x 64 rows x 512 B
  c.profile = test::EasyFlipProfile();
  c.seed = seed;
  return c;
}

void ExpectSameStats(const DramStats& a, const DramStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.row_buffer_hits, b.row_buffer_hits);
  EXPECT_EQ(a.bitflips, b.bitflips);
  EXPECT_EQ(a.ecc_corrected, b.ecc_corrected);
  EXPECT_EQ(a.ecc_uncorrectable, b.ecc_uncorrectable);
  EXPECT_EQ(a.trr_refreshes, b.trr_refreshes);
  EXPECT_EQ(a.para_refreshes, b.para_refreshes);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

void ExpectSameOutcome(DramDevice& batched, DramDevice& scalar) {
  ExpectSameStats(batched.stats(), scalar.stats());

  const auto& fb = batched.flip_events();
  const auto& fs = scalar.flip_events();
  ASSERT_EQ(fb.size(), fs.size());
  for (std::size_t i = 0; i < fb.size(); ++i) {
    EXPECT_EQ(fb[i].time_ns, fs[i].time_ns) << "flip " << i;
    EXPECT_EQ(fb[i].global_row, fs[i].global_row) << "flip " << i;
    EXPECT_EQ(fb[i].byte_offset, fs[i].byte_offset) << "flip " << i;
    EXPECT_EQ(fb[i].bit, fs[i].bit) << "flip " << i;
    EXPECT_EQ(fb[i].new_value, fs[i].new_value) << "flip " << i;
  }

  const std::uint64_t bytes = batched.config().geometry.total_bytes();
  std::vector<std::uint8_t> mb(bytes);
  std::vector<std::uint8_t> ms(bytes);
  batched.peek(DramAddr(0), mb);
  scalar.peek(DramAddr(0), ms);
  EXPECT_EQ(mb, ms);

  // Per-window activation counts: which window each activation landed
  // in, as of the current one.
  for (std::uint64_t r = 0; r < batched.config().geometry.total_rows(); ++r) {
    EXPECT_EQ(batched.row_activations(r), scalar.row_activations(r))
        << "row " << r;
  }
}

/// Run `fn(device, use_batched)` against a batched and a scalar device
/// built from the same config, then require identical outcomes.
template <typename Fn>
void RunParity(DramConfig config, Fn&& fn) {
  SimClock clock_b;
  SimClock clock_s;
  auto batched = MakeDevice(config, clock_b);
  auto scalar = MakeDevice(config, clock_s);
  fn(*batched, clock_b, /*use_batched=*/true);
  fn(*scalar, clock_s, /*use_batched=*/false);
  ExpectSameOutcome(*batched, *scalar);
}

void HammerPairEither(DramDevice& d, std::uint64_t a, std::uint64_t b,
                      std::uint64_t pairs, bool batched) {
  if (batched) {
    d.hammer_pair(a, b, pairs);
  } else {
    d.hammer_pair_scalar(a, b, pairs);
  }
}

void HammerRowEither(DramDevice& d, std::uint64_t row, std::uint64_t n,
                     bool batched) {
  if (batched) {
    d.hammer_row(row, n);
  } else {
    d.hammer_row_scalar(row, n);
  }
}

TEST(HammerParity, DoubleSidedClosedPageAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunParity(BaseConfig(seed),
              [](DramDevice& d, SimClock&, bool batched) {
                d.poke(DramAddr(10 * 512), std::vector<std::uint8_t>(512, 0xFF));
                HammerPairEither(d, 9, 11, 5000, batched);
              });
  }
}

TEST(HammerParity, FlipsActuallyHappen) {
  // Guard against vacuous parity: the workload must produce flips.
  SimClock clock;
  auto d = MakeDevice(BaseConfig(3), clock);
  d->poke(DramAddr(10 * 512), std::vector<std::uint8_t>(512, 0xFF));
  d->hammer_pair(9, 11, 5000);
  EXPECT_GT(d->stats().bitflips, 0u);
}

TEST(HammerParity, OneLocationClosedPage) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunParity(BaseConfig(seed),
              [](DramDevice& d, SimClock&, bool batched) {
                HammerRowEither(d, 20, 30000, batched);
              });
  }
}

TEST(HammerParity, AdjacentAggressors) {
  // b = a+1: each aggressor is the other's victim, and the victim set
  // of the pair overlaps both aggressors' neighborhoods.
  RunParity(BaseConfig(5), [](DramDevice& d, SimClock&, bool batched) {
    HammerPairEither(d, 10, 11, 6000, batched);
  });
  // b = a+2: the classic sandwich around victim a+1.
  RunParity(BaseConfig(5), [](DramDevice& d, SimClock&, bool batched) {
    HammerPairEither(d, 10, 12, 6000, batched);
  });
}

TEST(HammerParity, BankEdges) {
  RunParity(BaseConfig(6), [](DramDevice& d, SimClock&, bool batched) {
    HammerPairEither(d, 0, 1, 6000, batched);       // bottom edge of bank 0
    HammerPairEither(d, 62, 63, 6000, batched);     // top edge of bank 0
    HammerRowEither(d, 64, 20000, batched);         // bottom edge of bank 1
  });
}

TEST(HammerParity, CrossBankPair) {
  RunParity(BaseConfig(7), [](DramDevice& d, SimClock&, bool batched) {
    // Aggressors in different banks: disturbance accrues independently.
    HammerPairEither(d, 10, 64 + 10, 6000, batched);
  });
}

TEST(HammerParity, OddEventCounts) {
  RunParity(BaseConfig(8), [](DramDevice& d, SimClock&, bool batched) {
    // Odd/even splits of the alternating sequence via repeated odd runs.
    for (int i = 0; i < 7; ++i) HammerRowEither(d, 33, 999, batched);
    HammerPairEither(d, 40, 42, 3333, batched);
  });
}

TEST(HammerParity, HalfDoubleProfile) {
  DramConfig c = BaseConfig(9);
  c.profile.half_double_weight = 0.1;
  RunParity(c, [](DramDevice& d, SimClock&, bool batched) {
    HammerPairEither(d, 9, 13, 6000, batched);
    HammerPairEither(d, 30, 31, 6000, batched);
  });
}

TEST(HammerParity, EccMitigations) {
  DramConfig c = BaseConfig(12);
  c.mitigations.ecc = true;
  RunParity(c, [](DramDevice& d, SimClock&, bool batched) {
    d.poke(DramAddr(10 * 512), std::vector<std::uint8_t>(512, 0xA5));
    HammerPairEither(d, 9, 11, 6000, batched);
  });
}

// ---------------------------------------------------------------------
// TRR / PARA replay parity.  The replay does not fall back to scalar
// under mitigations: TrrTracker::advance_cmds replays the tracker
// analytically and the PARA stream is pre-drawn in scalar order, so the
// full matrix below (seeds x batch sizes x configs, plus the
// thread-count sweep) must stay bit-exact: same FlipEvents, same
// DramStats including trr_refreshes / para_refreshes, same memory.
// ---------------------------------------------------------------------

/// Hammer `total` pairs in batches of `batch` pairs: tracker and RNG
/// state must carry over correctly from one batched call to the next.
void HammerPairBatches(DramDevice& d, std::uint64_t a, std::uint64_t b,
                       std::uint64_t total, std::uint64_t batch,
                       bool batched) {
  for (std::uint64_t done = 0; done < total;) {
    const std::uint64_t n = std::min(batch, total - done);
    HammerPairEither(d, a, b, n, batched);
    done += n;
  }
}

TrrConfig TestTrr(std::uint64_t threshold, std::uint32_t trackers = 4,
                  std::uint32_t distance = 1) {
  TrrConfig t;
  t.activation_threshold = threshold;
  t.trackers_per_bank = trackers;
  t.refresh_distance = distance;
  return t;
}

TEST(HammerParity, TrrMatrixSeedsAndBatchSizes) {
  // Firing TRR (threshold well inside the run) across seeds and batch
  // granularities; batch=1 degenerates to per-pair calls, the ragged
  // sizes exercise odd/even splits of the alternating sequence.
  for (std::uint64_t seed = 13; seed <= 16; ++seed) {
    for (const std::uint64_t batch : {1ull, 7ull, 257ull, 6000ull}) {
      DramConfig c = BaseConfig(seed);
      c.mitigations.trr = true;
      c.mitigations.trr_config = TestTrr(1500);
      RunParity(c, [batch](DramDevice& d, SimClock&, bool batched) {
        HammerPairBatches(d, 9, 11, 6000, batch, batched);
      });
    }
  }
}

TEST(HammerParity, TrrFiresAndStillFlips) {
  // Threshold high enough that victims cross their flip thresholds
  // before the first targeted refresh: flips and refreshes in one run,
  // so neither side of the replay is vacuous.
  DramConfig c = BaseConfig(13);
  c.mitigations.trr = true;
  c.mitigations.trr_config = TestTrr(4500);
  RunParity(c, [](DramDevice& d, SimClock&, bool batched) {
    d.poke(DramAddr(10 * 512), std::vector<std::uint8_t>(512, 0xFF));
    HammerPairBatches(d, 9, 11, 6000, 1024, batched);
  });

  SimClock clock;
  auto probe = MakeDevice(c, clock);
  probe->poke(DramAddr(10 * 512), std::vector<std::uint8_t>(512, 0xFF));
  probe->hammer_pair(9, 11, 6000);
  EXPECT_GT(probe->stats().bitflips, 0u);
  EXPECT_GT(probe->stats().trr_refreshes, 0u);

  // And the suppression regime: a tight threshold re-baselines victims
  // long before they can flip.
  DramConfig tight = BaseConfig(13);
  tight.mitigations.trr = true;
  tight.mitigations.trr_config = TestTrr(600);
  SimClock clock2;
  auto probe2 = MakeDevice(tight, clock2);
  probe2->hammer_pair(9, 11, 6000);
  EXPECT_EQ(probe2->stats().bitflips, 0u);
  EXPECT_GT(probe2->stats().trr_refreshes, 0u);
}

TEST(HammerParity, TrrSingleTrackerThrash) {
  // One tracker per bank, two aggressors: the Misra–Gries table evicts
  // on every other activation and never absorbs the pattern — the
  // TRRespass regime, exercised as a non-absorbing cycle in
  // TrrTracker::advance.  No refreshes fire; flips go through as if
  // unmitigated.
  DramConfig c = BaseConfig(14);
  c.mitigations.trr = true;
  c.mitigations.trr_config = TestTrr(800, /*trackers=*/1);
  RunParity(c, [](DramDevice& d, SimClock&, bool batched) {
    HammerPairBatches(d, 9, 11, 6000, 1024, batched);
  });

  SimClock clock;
  auto probe = MakeDevice(c, clock);
  probe->hammer_pair(9, 11, 6000);
  EXPECT_GT(probe->stats().bitflips, 0u);
  EXPECT_EQ(probe->stats().trr_refreshes, 0u);

  // One-location hammering against the same single tracker *does*
  // absorb and fire.
  RunParity(c, [](DramDevice& d, SimClock&, bool batched) {
    HammerRowEither(d, 20, 30000, batched);
  });
  SimClock clock2;
  auto probe2 = MakeDevice(c, clock2);
  probe2->hammer_row(20, 30000);
  EXPECT_GT(probe2->stats().trr_refreshes, 0u);
}

TEST(HammerParity, TrrRefreshDistanceTwo) {
  // The hardened distance-2 variant re-baselines rows two away from the
  // fired aggressor — including rows outside the victim check set when
  // Half-Double is off.
  DramConfig c = BaseConfig(15);
  c.mitigations.trr = true;
  c.mitigations.trr_config = TestTrr(1000, 4, /*distance=*/2);
  RunParity(c, [](DramDevice& d, SimClock&, bool batched) {
    HammerPairBatches(d, 9, 11, 6000, 512, batched);
  });

  // And combined with a Half-Double profile, where the distance-2 bases
  // actually feed the exposure term.
  DramConfig hd = c;
  hd.profile.half_double_weight = 0.1;
  RunParity(hd, [](DramDevice& d, SimClock&, bool batched) {
    HammerPairBatches(d, 9, 13, 6000, 512, batched);
  });
}

TEST(HammerParity, TrrAdjacentAndCrossBankAggressors) {
  // b = a+1: a fired aggressor's targeted refresh lands on the *other*
  // aggressor, whose re-baselined counts must be reconstructed from the
  // batch arithmetic, not read live.
  DramConfig c = BaseConfig(16);
  c.mitigations.trr = true;
  c.mitigations.trr_config = TestTrr(1200);
  RunParity(c, [](DramDevice& d, SimClock&, bool batched) {
    HammerPairBatches(d, 10, 11, 6000, 777, batched);
  });
  // Cross-bank pair: two independent single-row tracker subsequences.
  RunParity(c, [](DramDevice& d, SimClock&, bool batched) {
    HammerPairBatches(d, 10, 64 + 10, 6000, 777, batched);
  });
}

TEST(HammerParity, TrrWindowRoll) {
  DramConfig roll = BaseConfig(18);
  roll.mitigations.trr = true;
  roll.mitigations.trr_config = TestTrr(1500);
  RunParity(roll, [](DramDevice& d, SimClock& clock, bool batched) {
    HammerPairEither(d, 9, 11, 2000, batched);
    clock.advance_ns(d.refresh_window_ns());  // tracker + bases reset
    HammerPairEither(d, 9, 11, 2000, batched);
    clock.advance_ns(d.refresh_window_ns() / 2);
    HammerPairEither(d, 9, 11, 3000, batched);
  });
}

TEST(HammerParity, ParaMatrixSeedsAndBatchSizes) {
  // {total pairs, pairs per batch}.  The last case draws 120k PARA
  // decisions in one Rng::bernoulli_hits call.
  const std::pair<std::uint64_t, std::uint64_t> runs[] = {
      {6000, 1}, {6000, 64}, {6000, 6000}, {60000, 60000}};
  for (std::uint64_t seed = 19; seed <= 22; ++seed) {
    for (const auto& [total, batch] : runs) {
      DramConfig c = BaseConfig(seed);
      c.mitigations.para_probability = 0.01;
      RunParity(c, [total, batch](DramDevice& d, SimClock&, bool batched) {
        HammerPairBatches(d, 9, 11, total, batch, batched);
      });
    }
  }
  // Non-vacuity: the PARA stream must actually fire.
  DramConfig c = BaseConfig(19);
  c.mitigations.para_probability = 0.01;
  SimClock clock;
  auto probe = MakeDevice(c, clock);
  probe->hammer_pair(9, 11, 6000);
  EXPECT_GT(probe->stats().para_refreshes, 0u);
}

TEST(HammerParity, ParaRareEnoughToFlip) {
  // A low PARA probability leaves refresh gaps long enough to flip:
  // find a seed where one run yields both flips and PARA refreshes,
  // then require parity on it.
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 60 && !found; ++seed) {
    DramConfig c = BaseConfig(seed);
    c.mitigations.para_probability = 0.0004;
    SimClock clock;
    auto probe = MakeDevice(c, clock);
    probe->hammer_pair(9, 11, 6000);
    if (probe->stats().bitflips == 0 || probe->stats().para_refreshes == 0) {
      continue;
    }
    found = true;
    RunParity(c, [](DramDevice& d, SimClock&, bool batched) {
      HammerPairBatches(d, 9, 11, 6000, 919, batched);
    });
  }
  ASSERT_TRUE(found) << "no seed with both flips and PARA refreshes";
}

TEST(HammerParity, TrrPlusParaCombined) {
  // Both mitigations at once: TRR fires precede the PARA draw of the
  // same activation, and both feed the same RefreshBases map.
  for (const std::uint64_t batch : {311ull, 6000ull}) {
    DramConfig c = BaseConfig(23);
    c.mitigations.trr = true;
    c.mitigations.trr_config = TestTrr(1700);
    c.mitigations.para_probability = 0.005;
    RunParity(c, [batch](DramDevice& d, SimClock&, bool batched) {
      HammerPairBatches(d, 9, 11, 6000, batch, batched);
      HammerRowEither(d, 40, 5000, batched);
    });
  }
}

TEST(HammerParity, MitigatedParityAcrossThreadCounts) {
  // The thread-count axis of the matrix: each trial runs a batched and
  // a scalar device on a TRR+PARA config and fingerprints the outcome.
  // Per-trial the two fingerprints must match, and the whole results
  // vector must be identical no matter how many threads run the sweep.
  struct Fingerprint {
    std::uint64_t batched = 0;
    std::uint64_t scalar = 0;
  };
  auto fingerprint = [](const DramDevice& d) {
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
    auto mix = [&h](std::uint64_t v) {
      h = (h ^ v) * 0x100000001b3ull;
    };
    mix(d.stats().bitflips);
    mix(d.stats().activations);
    mix(d.stats().trr_refreshes);
    mix(d.stats().para_refreshes);
    for (const FlipEvent& f : d.flip_events()) {
      mix(f.global_row);
      mix(f.byte_offset);
      mix((static_cast<std::uint64_t>(f.bit) << 1) | f.new_value);
    }
    return h;
  };
  auto trial_fn = [&fingerprint](std::uint64_t /*trial*/,
                                 std::uint64_t seed) {
    DramConfig c;
    c.geometry = test::SmallDram();
    c.profile = test::EasyFlipProfile();
    c.seed = seed;
    c.mitigations.trr = true;
    c.mitigations.trr_config = TestTrr(1700);
    c.mitigations.para_probability = 0.005;
    Fingerprint fp;
    {
      SimClock clock;
      DramDevice d(c, MakeLinearMapper(c.geometry), clock);
      d.hammer_pair(9, 11, 6000);
      fp.batched = fingerprint(d);
    }
    {
      SimClock clock;
      DramDevice d(c, MakeLinearMapper(c.geometry), clock);
      d.hammer_pair_scalar(9, 11, 6000);
      fp.scalar = fingerprint(d);
    }
    return fp;
  };

  constexpr std::uint64_t kTrials = 8;
  constexpr std::uint64_t kBaseSeed = 77;
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool4(4);
  const auto one = exec::RunTrials(pool1, kTrials, kBaseSeed, trial_fn);
  const auto four = exec::RunTrials(pool4, kTrials, kBaseSeed, trial_fn);
  ASSERT_EQ(one.size(), kTrials);
  ASSERT_EQ(four.size(), kTrials);
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    EXPECT_EQ(one[t].batched, one[t].scalar) << "trial " << t;
    EXPECT_EQ(one[t].batched, four[t].batched) << "trial " << t;
    EXPECT_EQ(one[t].scalar, four[t].scalar) << "trial " << t;
  }
}

TEST(HammerParity, RefreshWindowRoll) {
  RunParity(BaseConfig(15), [](DramDevice& d, SimClock& clock, bool batched) {
    HammerPairEither(d, 9, 11, 2000, batched);
    clock.advance_ns(d.refresh_window_ns());  // new window: counts reset
    HammerPairEither(d, 9, 11, 2000, batched);
    clock.advance_ns(d.refresh_window_ns() / 2);
    HammerPairEither(d, 9, 11, 3000, batched);
  });
}

TEST(HammerParity, RepeatReadMatchesScalarReads) {
  RunParity(BaseConfig(16), [](DramDevice& d, SimClock&, bool batched) {
    const DramAddr addr(10 * 512 + 64);
    std::uint8_t buf[4] = {0, 0, 0, 0};
    // Aggressor row 10 hammers rows 9 and 11 via plain repeated reads.
    for (int round = 0; round < 1500; ++round) {
      if (batched) {
        ASSERT_TRUE(d.read(addr, buf, 10).ok());
      } else {
        for (int i = 0; i < 10; ++i) ASSERT_TRUE(d.read(addr, buf).ok());
      }
    }
  });
}

TEST(HammerParity, RepeatWriteMatchesScalarWrites) {
  RunParity(BaseConfig(17), [](DramDevice& d, SimClock&, bool batched) {
    const DramAddr addr(20 * 512 + 8);
    const std::uint8_t data[4] = {0xDE, 0xAD, 0xBE, 0xEF};
    for (int round = 0; round < 1500; ++round) {
      if (batched) {
        ASSERT_TRUE(d.write(addr, data, 10).ok());
      } else {
        for (int i = 0; i < 10; ++i) ASSERT_TRUE(d.write(addr, data).ok());
      }
    }
  });
}

TEST(HammerParity, CacheConfiguredDevice) {
  // A configured CPU cache sits in front of read()/write() only:
  // hammer_pair() and hammer_row() still replay raw activations through
  // the pattern core (which must not inherit hammer_pattern()'s no-cache
  // precondition), and read()/write() with a touch count run cached
  // spans' repeated touches as scalar ones.
  DramConfig c = BaseConfig(3);  // the seed FlipsActuallyHappen uses
  c.mitigations.cache = CacheConfig{64, 4, 16};
  const auto workload = [](DramDevice& d, bool batched) {
    d.poke(DramAddr(10 * 512), std::vector<std::uint8_t>(512, 0xFF));
    HammerPairEither(d, 9, 11, 5000, batched);
    HammerRowEither(d, 20, 30000, batched);
    const DramAddr raddr(30 * 512 + 64);
    const DramAddr waddr(40 * 512 + 8);
    std::uint8_t buf[4] = {0, 0, 0, 0};
    const std::uint8_t data[4] = {0xDE, 0xAD, 0xBE, 0xEF};
    for (int round = 0; round < 200; ++round) {
      if (batched) {
        ASSERT_TRUE(d.read(raddr, buf, 5).ok());
        ASSERT_TRUE(d.write(waddr, data, 5).ok());
      } else {
        for (int i = 0; i < 5; ++i) ASSERT_TRUE(d.read(raddr, buf).ok());
        for (int i = 0; i < 5; ++i) ASSERT_TRUE(d.write(waddr, data).ok());
      }
    }
  };
  RunParity(c, [&workload](DramDevice& d, SimClock&, bool batched) {
    workload(d, batched);
  });

  // Non-vacuity: the run flips bits and the cache absorbs reads.
  SimClock clock;
  auto probe = MakeDevice(c, clock);
  workload(*probe, /*batched=*/true);
  EXPECT_GT(probe->stats().bitflips, 0u);
  EXPECT_GT(probe->stats().cache_hits, 0u);
}

TEST(HammerParity, AliasedOppositeCellsFallBackExactly) {
  // Find a seed whose disturbance draw gives some row two cells on the
  // same (byte, bit) with opposite failure values — the pathological
  // case where the scalar path re-flips the bit on every check and the
  // closed form must fall back to per-event simulation.
  DramConfig c;
  c.geometry = DramGeometry{.channels = 1,
                            .dimms_per_channel = 1,
                            .ranks_per_dimm = 1,
                            .banks_per_rank = 1,
                            .rows_per_bank = 16,
                            .row_bytes = 8};
  c.profile = test::EasyFlipProfile();
  c.profile.max_cells_per_row = 8;   // 8 draws over 64 bit positions
  c.profile.threshold_spread = 0.1;  // all cells cross together
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 400 && !found; ++seed) {
    c.seed = seed;
    SimClock probe_clock;
    auto probe = MakeDevice(c, probe_clock);
    for (std::uint64_t row = 1; row + 1 < 16 && !found; ++row) {
      const auto& cells = probe->disturbance().cells(row);
      for (std::size_t i = 0; i < cells.size() && !found; ++i) {
        for (std::size_t j = i + 1; j < cells.size(); ++j) {
          if (cells[i].byte_offset == cells[j].byte_offset &&
              cells[i].bit == cells[j].bit &&
              cells[i].failure_value != cells[j].failure_value) {
            found = true;
            break;
          }
        }
      }
      if (found) {
        RunParity(c, [row](DramDevice& d, SimClock&, bool batched) {
          HammerPairEither(d, row - 1, row + 1, 8000, batched);
        });
      }
    }
  }
  ASSERT_TRUE(found) << "no aliasing seed found; widen the search";
}

// ---- Full-stack pattern replay parity (submit_pattern) ----
//
// Two identically configured SSDs: one pushes `rounds` whole pattern
// submissions down the stack in a single submit_pattern() call, the
// other loops single-round submit_pattern() calls round by round.  Everything
// observable must match: the returned status, the simulated clock, the
// DRAM stats / flip events / memory image, the FTL and NVMe stats, the
// read buffer, and the fault injector's per-class op counters and log.

void ExpectSameFtlStats(const FtlStats& a, const FtlStats& b) {
  EXPECT_EQ(a.host_reads, b.host_reads);
  EXPECT_EQ(a.host_writes, b.host_writes);
  EXPECT_EQ(a.host_trims, b.host_trims);
  EXPECT_EQ(a.unmapped_reads, b.unmapped_reads);
  EXPECT_EQ(a.flash_reads, b.flash_reads);
  EXPECT_EQ(a.flash_programs, b.flash_programs);
  EXPECT_EQ(a.l2p_dram_reads, b.l2p_dram_reads);
  EXPECT_EQ(a.l2p_dram_writes, b.l2p_dram_writes);
  EXPECT_EQ(a.l2p_corruption_errors, b.l2p_corruption_errors);
  EXPECT_EQ(a.scrub_runs, b.scrub_runs);
  EXPECT_EQ(a.scrub_repairs, b.scrub_repairs);
  EXPECT_EQ(a.scrub_aborts, b.scrub_aborts);
}

void ExpectSameNvmeStats(const NvmeStats& a, const NvmeStats& b) {
  EXPECT_EQ(a.read_cmds, b.read_cmds);
  EXPECT_EQ(a.write_cmds, b.write_cmds);
  EXPECT_EQ(a.trim_cmds, b.trim_cmds);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.busy_ns, b.busy_ns);
  EXPECT_EQ(a.transport_timeouts, b.transport_timeouts);
  EXPECT_EQ(a.transport_drops, b.transport_drops);
}

struct DriveResult {
  std::string status;
  std::vector<std::uint8_t> buf;
};

DriveResult DriveRounds(SsdDevice& ssd,
                        std::span<const std::uint64_t> pattern,
                        std::uint64_t rounds, bool batched) {
  std::vector<std::uint8_t> buf(kBlockSize);
  Status st = Status::Ok();
  if (batched) {
    st = ssd.controller().submit_pattern(
        1, {.slbas = pattern, .out = buf, .rounds = rounds});
  } else {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      st = ssd.controller().submit_pattern(
          1, {.slbas = pattern, .out = buf, .rounds = 1});
      if (!st.ok()) break;
    }
  }
  return DriveResult{st.to_string(), std::move(buf)};
}

void ExpectSameStack(SsdDevice& batched, SsdDevice& scalar,
                     const DriveResult& rb, const DriveResult& rs) {
  EXPECT_EQ(rb.status, rs.status);
  EXPECT_EQ(rb.buf, rs.buf);
  EXPECT_EQ(batched.clock().now_ns(), scalar.clock().now_ns());
  ExpectSameOutcome(batched.dram(), scalar.dram());
  ExpectSameFtlStats(batched.ftl().stats(), scalar.ftl().stats());
  ExpectSameNvmeStats(batched.controller().stats(),
                      scalar.controller().stats());
  FaultInjector* ib = batched.fault_injector();
  FaultInjector* is = scalar.fault_injector();
  ASSERT_EQ(ib == nullptr, is == nullptr);
  if (ib != nullptr) {
    for (std::size_t c = 0; c < kNumFaultClasses; ++c) {
      const auto cls = static_cast<FaultClass>(c);
      EXPECT_EQ(ib->ops(cls), is->ops(cls)) << to_string(cls);
    }
    ASSERT_EQ(ib->log().size(), is->log().size());
    for (std::size_t i = 0; i < ib->log().size(); ++i) {
      EXPECT_EQ(static_cast<int>(ib->log()[i].cls),
                static_cast<int>(is->log()[i].cls));
      EXPECT_EQ(ib->log()[i].op_index, is->log()[i].op_index);
      EXPECT_EQ(ib->log()[i].param, is->log()[i].param);
    }
  }
}

/// Map every pattern LBA (so trim has something to drop), then trim the
/// unique ones — the orchestrator's setup shape.  `keep_mapped` LBAs
/// are written but NOT trimmed, so their reads go to flash.
void PrepStack(SsdDevice& ssd, std::span<const std::uint64_t> pattern,
               std::span<const std::uint64_t> keep_mapped = {}) {
  const std::vector<std::uint8_t> data = test::MarkedBlock("prep-data!");
  std::vector<std::uint64_t> unique(pattern.begin(), pattern.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  for (const std::uint64_t slba : unique) {
    ASSERT_TRUE(ssd.controller().write(1, slba, data).ok());
  }
  for (const std::uint64_t slba : keep_mapped) {
    ASSERT_TRUE(ssd.controller().write(1, slba, data).ok());
  }
  for (const std::uint64_t slba : unique) {
    ASSERT_TRUE(ssd.controller().trim(1, slba, 1).ok());
  }
}

void RunStackParity(const SsdConfig& config,
                    std::span<const std::uint64_t> pattern,
                    std::uint64_t rounds,
                    std::span<const std::uint64_t> keep_mapped = {}) {
  SsdDevice batched(config);
  SsdDevice scalar(config);
  std::vector<std::uint64_t> trimmed;
  for (const std::uint64_t s : pattern) {
    if (std::find(keep_mapped.begin(), keep_mapped.end(), s) ==
        keep_mapped.end()) {
      trimmed.push_back(s);
    }
  }
  PrepStack(batched, trimmed, keep_mapped);
  PrepStack(scalar, trimmed, keep_mapped);
  const DriveResult rb = DriveRounds(batched, pattern, rounds, true);
  const DriveResult rs = DriveRounds(scalar, pattern, rounds, false);
  ExpectSameStack(batched, scalar, rb, rs);
}

TEST(PatternReplayParity, BaselineAcrossSeeds) {
  const std::vector<std::uint64_t> pattern = {100, 228};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SsdConfig c = test::SmallSsd();
    c.seed = seed;
    RunStackParity(c, pattern, 2500);
  }
}

TEST(PatternReplayParity, FlipsActuallyHappen) {
  // The parity matrix is vacuous if no run ever flips a bit: confirm
  // the baseline config actually disturbs the L2P table.
  SsdConfig c = test::SmallSsd();
  SsdDevice ssd(c);
  const std::vector<std::uint64_t> pattern = {100, 228};
  PrepStack(ssd, pattern);
  std::vector<std::uint8_t> buf(kBlockSize);
  ASSERT_TRUE(ssd.controller()
                  .submit_pattern(
                      1, {.slbas = pattern, .out = buf, .rounds = 4000})
                  .ok());
  EXPECT_GT(ssd.dram().stats().bitflips, 0u);
}

TEST(PatternReplayParity, ManySidedDuplicateLbas) {
  // Many-sided patterns repeat the aggressor pair between decoys, so
  // the same LBA appears several times per round.
  const std::vector<std::uint64_t> pattern = {100, 228, 356, 484, 612,
                                              100, 228, 740, 868, 996};
  SsdConfig c = test::SmallSsd();
  c.seed = 9;
  RunStackParity(c, pattern, 800);
}

TEST(PatternReplayParity, MappedLbaForcesScalarFallback) {
  // One pattern LBA stays mapped: its reads hit flash, the replay plan
  // is rejected, and the engine must degrade to the scalar path with
  // identical results.
  const std::vector<std::uint64_t> pattern = {100, 228, 356};
  const std::vector<std::uint64_t> keep = {228};
  SsdConfig c = test::SmallSsd();
  c.seed = 3;
  RunStackParity(c, pattern, 200, keep);
}

TEST(PatternReplayParity, TrrConfig) {
  const std::vector<std::uint64_t> pattern = {100, 228};
  for (std::uint64_t seed = 4; seed <= 6; ++seed) {
    SsdConfig c = test::SmallSsd();
    c.seed = seed;
    c.dram_mitigations.trr = true;
    c.dram_mitigations.trr_config = TestTrr(1700);
    RunStackParity(c, pattern, 2500);
  }
}

TEST(PatternReplayParity, ParaConfig) {
  const std::vector<std::uint64_t> pattern = {100, 228};
  for (std::uint64_t seed = 7; seed <= 9; ++seed) {
    SsdConfig c = test::SmallSsd();
    c.seed = seed;
    c.dram_mitigations.para_probability = 0.005;
    RunStackParity(c, pattern, 2500);
  }
  // §5's PARA scenario shape: a many-sided pattern at p = 1/1024.  With
  // refreshes that frequent nothing flips, so no hazard cuts the replay
  // and each chunk draws 25k commands x 5 hammers = 125k PARA decisions
  // in one Rng::bernoulli_hits call.
  const std::vector<std::uint64_t> many = {100, 228, 356, 484, 612,
                                           100, 228, 740, 868, 996};
  for (std::uint64_t seed = 7; seed <= 8; ++seed) {
    SsdConfig c = test::SmallSsd();
    c.seed = seed;
    c.dram_mitigations.para_probability = 1.0 / 1024;
    RunStackParity(c, many, 2500);
  }
}

TEST(PatternReplayParity, EccConfig) {
  const std::vector<std::uint64_t> pattern = {100, 228};
  SsdConfig c = test::SmallSsd();
  c.seed = 11;
  c.dram_mitigations.ecc = true;
  RunStackParity(c, pattern, 2500);
}

TEST(PatternReplayParity, CacheConfigSteadyState) {
  const std::vector<std::uint64_t> pattern = {100, 228};
  SsdConfig c = test::SmallSsd();
  c.seed = 12;
  c.dram_mitigations.cache = CacheConfig{64, 4, 16};
  RunStackParity(c, pattern, 2000);
}

TEST(PatternReplayParity, RateLimiterCharges) {
  const std::vector<std::uint64_t> pattern = {100, 228};
  SsdConfig c = test::SmallSsd();
  c.seed = 13;
  c.rate_limit = RateLimiterConfig{.max_iops = 100e3, .burst = 8};
  RunStackParity(c, pattern, 2000);
  // PARA under §5's token bucket (500K IOPS, burst 64): each chunk's
  // command times are an explicit head (the burst, then the commands
  // that find the stall steady) plus an arithmetic tail.
  c.dram_mitigations.para_probability = 1.0 / 1024;
  c.rate_limit = RateLimiterConfig{.max_iops = 500e3, .burst = 64};
  RunStackParity(c, pattern, 10000);
}

TEST(PatternReplayParity, ScrubTriggersMidStream) {
  const std::vector<std::uint64_t> pattern = {100, 228};
  SsdConfig c = test::SmallSsd();
  c.seed = 14;
  c.l2p_journal.enabled = true;
  c.scrub_interval_ios = 97;  // several scrubs inside the run
  RunStackParity(c, pattern, 1200);
}

TEST(PatternReplayParity, NvmeFaultsMidStream) {
  // Transport faults abort the round loop mid-stream; both paths must
  // stop at the same command with the same error and op alignment.
  const std::vector<std::uint64_t> pattern = {100, 228};
  const FaultClass classes[] = {FaultClass::kNvmeTimeout,
                                FaultClass::kNvmeDrop};
  // Prep issues 2 writes + 2 trims = 4 commands before the rounds.
  for (const FaultClass cls : classes) {
    for (const std::uint64_t at : {7ull, 44ull, 1203ull}) {
      SsdConfig c = test::SmallSsd();
      c.seed = 15;
      c.fault_plan.add(cls, at);
      RunStackParity(c, pattern, 900);
    }
  }
}

TEST(PatternReplayParity, DramBitErrorsMidStream) {
  // Injected DRAM bit errors do not abort the stream: the replay must
  // break around them, apply the same corruption, and carry on — with
  // and without ECC soaking the error up, and with and without a cache
  // (uncached, a command's touches tick the injector once; cached, every
  // touch is a scalar read that ticks it).
  const std::vector<std::uint64_t> pattern = {100, 228};
  for (const bool ecc : {false, true}) {
    for (const bool cache : {false, true}) {
      SsdConfig c = test::SmallSsd();
      c.seed = 16;
      c.dram_mitigations.ecc = ecc;
      if (cache) c.dram_mitigations.cache = CacheConfig{64, 4, 16};
      c.fault_plan.add(FaultClass::kDramBitError, 900, 1, 0x15);
      c.fault_plan.add(FaultClass::kDramBitError, 2400, 1, 0x2A);
      RunStackParity(c, pattern, 1500);
    }
  }
}

TEST(PatternReplayParity, PowerLossMidStream) {
  // A scheduled power loss kills the command stream at one host IO:
  // both paths must die at the same index with the same status.
  const std::vector<std::uint64_t> pattern = {100, 228};
  SsdConfig c = test::SmallSsd();
  c.seed = 17;
  c.l2p_journal.enabled = true;
  c.fault_plan.add(FaultClass::kPowerLoss, 800);
  RunStackParity(c, pattern, 1000);
}

TEST(PatternReplayParity, WindowCrossingChunksSplitInsideReplay) {
  // The round loop no longer flushes replay chunks at refresh-window
  // edges: one batched chunk may span several windows, and the DRAM
  // replay segments it internally (fresh windows restart activation
  // counts and refresh bases).  Shrink the window so a single call
  // crosses many boundaries and require bit-exact parity with the
  // scalar loop, whose per-command path rolls windows naturally.
  const std::vector<std::uint64_t> pattern = {100, 228};
  for (std::uint64_t seed = 19; seed <= 21; ++seed) {
    SsdConfig c = test::SmallSsd();
    c.seed = seed;
    c.dram_profile.refresh_interval_ms = 1.0;
    RunStackParity(c, pattern, 2500);
  }
  // Non-vacuity: the same drive really spans multiple windows (an
  // invulnerable part keeps every read clean so the run never aborts).
  SsdConfig c = test::SmallSsd();
  c.seed = 19;
  c.dram_profile = DramProfile::Invulnerable();
  c.dram_profile.refresh_interval_ms = 1.0;
  SsdDevice probe(c);
  PrepStack(probe, pattern);
  std::vector<std::uint8_t> buf(kBlockSize);
  ASSERT_TRUE(probe.controller()
                  .submit_pattern(
                      1, {.slbas = pattern, .out = buf, .rounds = 2500})
                  .ok());
  EXPECT_GT(probe.clock().now_ns(), 3 * probe.dram().refresh_window_ns());

  // A command landing exactly on a window edge opens the next window.
  // The 1 ms window is 1600 commands of 625 ns, so once the clock sits
  // on the 625 ns grid every 1600th command starts exactly on an edge.
  for (std::uint64_t seed = 22; seed <= 23; ++seed) {
    SsdConfig ce = test::SmallSsd();
    ce.seed = seed;
    ce.dram_profile.refresh_interval_ms = 1.0;
    SsdDevice batched(ce);
    SsdDevice scalar(ce);
    for (SsdDevice* ssd : {&batched, &scalar}) {
      PrepStack(*ssd, pattern);
      const std::uint64_t service_ns = 625;
      ASSERT_EQ(ssd->dram().refresh_window_ns(), 1600 * service_ns);
      ssd->clock().advance_ns((service_ns -
                               ssd->clock().now_ns() % service_ns) %
                              service_ns);
    }
    const DriveResult rb = DriveRounds(batched, pattern, 2500, true);
    const DriveResult rs = DriveRounds(scalar, pattern, 2500, false);
    ExpectSameStack(batched, scalar, rb, rs);
    EXPECT_EQ(batched.clock().now_ns() % 625, 0u);
    EXPECT_GT(batched.clock().now_ns(), 3 * batched.dram().refresh_window_ns());
  }
}

TEST(PatternReplayParity, RepeatAcrossThreadCounts) {
  // The thread-count axis: each trial fingerprints a batched and a
  // scalar full-stack run.  Per-trial fingerprints must match, and the
  // results vector must not depend on the pool width.
  struct Fingerprint {
    std::uint64_t batched = 0;
    std::uint64_t scalar = 0;
  };
  auto fingerprint = [](SsdDevice& ssd, const DriveResult& r) {
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
    auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
    mix(ssd.clock().now_ns());
    mix(ssd.dram().stats().bitflips);
    mix(ssd.dram().stats().activations);
    mix(ssd.dram().stats().trr_refreshes);
    mix(ssd.dram().stats().para_refreshes);
    mix(ssd.ftl().stats().unmapped_reads);
    mix(ssd.ftl().stats().l2p_dram_reads);
    mix(ssd.controller().stats().read_cmds);
    mix(ssd.controller().stats().busy_ns);
    for (const FlipEvent& f : ssd.dram().flip_events()) {
      mix(f.time_ns);
      mix(f.global_row);
      mix(f.byte_offset);
      mix((static_cast<std::uint64_t>(f.bit) << 1) | f.new_value);
    }
    for (const std::uint8_t byte : r.buf) mix(byte);
    return h;
  };
  auto trial_fn = [&fingerprint](std::uint64_t /*trial*/,
                                 std::uint64_t seed) {
    const std::vector<std::uint64_t> pattern = {100, 228};
    SsdConfig c = test::SmallSsd();
    c.seed = seed;
    c.dram_mitigations.trr = true;
    c.dram_mitigations.trr_config = TestTrr(1700);
    Fingerprint fp;
    {
      SsdDevice ssd(c);
      PrepStack(ssd, pattern);
      const DriveResult r = DriveRounds(ssd, pattern, 1200, true);
      fp.batched = fingerprint(ssd, r);
    }
    {
      SsdDevice ssd(c);
      PrepStack(ssd, pattern);
      const DriveResult r = DriveRounds(ssd, pattern, 1200, false);
      fp.scalar = fingerprint(ssd, r);
    }
    return fp;
  };

  constexpr std::uint64_t kTrials = 8;
  constexpr std::uint64_t kBaseSeed = 77;
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool4(4);
  const auto one = exec::RunTrials(pool1, kTrials, kBaseSeed, trial_fn);
  const auto four = exec::RunTrials(pool4, kTrials, kBaseSeed, trial_fn);
  ASSERT_EQ(one.size(), kTrials);
  ASSERT_EQ(four.size(), kTrials);
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    EXPECT_EQ(one[t].batched, one[t].scalar) << "trial " << t;
    EXPECT_EQ(one[t].batched, four[t].batched) << "trial " << t;
    EXPECT_EQ(one[t].scalar, four[t].scalar) << "trial " << t;
  }
}

TEST(PatternReplayParity, UntilMatchesScalarDeadlineLoop) {
  // A deadline-bound submit_pattern() == "while (now < deadline)
  // submit_pattern(rounds = 1)".
  const std::vector<std::uint64_t> pattern = {100, 228};
  SsdConfig c = test::SmallSsd();
  c.seed = 18;
  SsdDevice batched(c);
  SsdDevice scalar(c);
  PrepStack(batched, pattern);
  PrepStack(scalar, pattern);
  const std::uint64_t deadline_b =
      batched.clock().now_ns() + 3'000'000;  // 3 ms of simulated time
  const std::uint64_t deadline_s = scalar.clock().now_ns() + 3'000'000;
  ASSERT_EQ(deadline_b, deadline_s);

  std::vector<std::uint8_t> bb(kBlockSize);
  std::uint64_t rounds_done = 0;
  ASSERT_TRUE(batched.controller()
                  .submit_pattern(1, {.slbas = pattern,
                                      .out = bb,
                                      .deadline_ns = deadline_b,
                                      .rounds_done = &rounds_done})
                  .ok());
  std::vector<std::uint8_t> bs(kBlockSize);
  std::uint64_t scalar_rounds = 0;
  while (scalar.clock().now_ns() < deadline_s) {
    ASSERT_TRUE(scalar.controller()
                    .submit_pattern(
                        1, {.slbas = pattern, .out = bs, .rounds = 1})
                    .ok());
    ++scalar_rounds;
  }
  EXPECT_EQ(rounds_done, scalar_rounds);
  ExpectSameStack(batched, scalar, DriveResult{"OK", bb},
                  DriveResult{"OK", bs});
}

}  // namespace
}  // namespace rhsd
