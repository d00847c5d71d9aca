// Firmware reactions to injected physical faults: NAND read-retry,
// program-failure block retirement, erase-failure bad-block growth with
// graceful degradation to read-only, DRAM soft errors (raw and under
// SECDED), and the journal-backed integrity scrub.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "fault/fault_injector.hpp"
#include "ftl/ftl.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

struct FaultRig {
  explicit FaultRig(FaultPlan plan, FtlConfig config = DefaultConfig(),
                    std::uint32_t blocks = 16)
      : injector(std::move(plan)) {
    DramConfig dc;
    dc.geometry = test::SmallDram();
    dc.profile = DramProfile::Invulnerable();
    dram = std::make_unique<DramDevice>(
        dc, MakeLinearMapper(dc.geometry), clock);
    nand = std::make_unique<NandDevice>(
        NandGeometry{.channels = 1,
                     .dies_per_channel = 1,
                     .planes_per_die = 1,
                     .blocks_per_plane = blocks,
                     .pages_per_block = 16,
                     .page_bytes = kBlockSize});
    dram->set_fault_injector(&injector);
    nand->set_fault_injector(&injector);
    ftl = std::make_unique<Ftl>(config, *nand, *dram);
    ftl->set_fault_injector(&injector);
  }

  static FtlConfig DefaultConfig() {
    FtlConfig c;
    c.num_lbas = 64;
    c.hammers_per_io = 1;
    return c;
  }

  static FtlConfig JournalConfig() {
    FtlConfig c = DefaultConfig();
    c.journal.enabled = true;
    return c;
  }

  SimClock clock;
  FaultInjector injector;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<NandDevice> nand;
  std::unique_ptr<Ftl> ftl;
};

std::vector<std::uint8_t> Block(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kBlockSize, fill);
}

TEST(FaultRecovery, ReadRetryRecoversTransientMediaError) {
  FaultPlan plan;
  plan.add(FaultClass::kNandRead, /*op_index=*/0, /*count=*/1);
  FaultRig rig(plan);
  ASSERT_TRUE(rig.ftl->write(Lba(7), Block(0x7A)).ok());

  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(rig.ftl->read(Lba(7), out).ok());
  EXPECT_EQ(out, Block(0x7A));
  EXPECT_EQ(rig.ftl->stats().read_retries, 1u);
  EXPECT_EQ(rig.ftl->stats().read_retry_successes, 1u);
  EXPECT_EQ(rig.nand->stats().injected_read_faults, 1u);
}

TEST(FaultRecovery, PersistentReadFaultSurfacesCorruption) {
  FaultPlan plan;
  // Initial attempt + the FTL's 2 read retries, all faulted.
  plan.add(FaultClass::kNandRead, 0, /*count=*/3);
  FaultRig rig(plan);
  ASSERT_TRUE(rig.ftl->write(Lba(7), Block(0x7A)).ok());

  std::vector<std::uint8_t> out(kBlockSize);
  EXPECT_EQ(rig.ftl->read(Lba(7), out).code(), StatusCode::kCorruption);
  EXPECT_EQ(rig.ftl->stats().read_retries, 2u);
  EXPECT_EQ(rig.ftl->stats().read_retry_successes, 0u);
}

TEST(FaultRecovery, ProgramFaultRetiresBlockAndWriteSucceeds) {
  FaultPlan plan;
  plan.add(FaultClass::kNandProgram, /*op_index=*/0, /*count=*/1);
  FaultRig rig(plan);  // 16 blocks: plenty of spares

  ASSERT_TRUE(rig.ftl->write(Lba(1), Block(0xC3)).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(rig.ftl->read(Lba(1), out).ok());
  EXPECT_EQ(out, Block(0xC3));

  EXPECT_EQ(rig.nand->stats().injected_program_faults, 1u);
  EXPECT_EQ(rig.nand->stats().grown_bad_blocks, 1u);
  EXPECT_EQ(rig.ftl->stats().retired_blocks, 1u);
  EXPECT_FALSE(rig.ftl->read_only());  // spares absorbed the loss
}

TEST(FaultRecovery, RetirementRelocatesLiveData) {
  // Fault the program of LBA 9's overwrite: the victim block already
  // holds earlier live pages, which retirement must carry over.
  FaultPlan plan;
  plan.add(FaultClass::kNandProgram, /*op_index=*/3, /*count=*/1);
  FaultRig rig(plan);
  ASSERT_TRUE(rig.ftl->write(Lba(1), Block(0x11)).ok());
  ASSERT_TRUE(rig.ftl->write(Lba(2), Block(0x22)).ok());
  ASSERT_TRUE(rig.ftl->write(Lba(3), Block(0x33)).ok());
  ASSERT_TRUE(rig.ftl->write(Lba(9), Block(0x99)).ok());  // faulted program

  EXPECT_EQ(rig.ftl->stats().retired_blocks, 1u);
  std::vector<std::uint8_t> out(kBlockSize);
  const std::pair<std::uint64_t, std::uint8_t> expected[] = {
      {1, 0x11}, {2, 0x22}, {3, 0x33}, {9, 0x99}};
  for (const auto& [lba, fill] : expected) {
    ASSERT_TRUE(rig.ftl->read(Lba(lba), out).ok()) << lba;
    EXPECT_EQ(out, Block(fill)) << lba;
  }
}

TEST(FaultRecovery, EraseFaultDegradesToReadOnlyAtTheSpareFloor) {
  // 8 data blocks is exactly the floor (4 capacity + 3 GC watermark +
  // 1): the first grown bad block tips the device into read-only.
  FaultPlan plan;
  plan.add(FaultClass::kNandErase, /*op_index=*/0, /*count=*/1);
  FaultRig rig(plan, FaultRig::DefaultConfig(), /*blocks=*/8);

  // Fill the device, then overwrite until GC needs to erase a victim.
  Status ws = Status::Ok();
  for (int round = 0; ws.ok() && round < 64; ++round) {
    for (std::uint64_t lba = 0; lba < 64 && ws.ok(); ++lba) {
      ws = rig.ftl->write(Lba(lba), Block(static_cast<std::uint8_t>(lba)));
    }
  }
  ASSERT_EQ(rig.nand->stats().injected_erase_faults, 1u);
  ASSERT_TRUE(rig.ftl->read_only());
  EXPECT_EQ(rig.ftl->spare_data_blocks(), 0u);

  // Mutations now fail fast; reads keep working.
  EXPECT_EQ(rig.ftl->write(Lba(0), Block(1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rig.ftl->trim(Lba(0)).code(),
            StatusCode::kFailedPrecondition);
  std::vector<std::uint8_t> out(kBlockSize);
  for (std::uint64_t lba = 0; lba < 64; ++lba) {
    ASSERT_TRUE(rig.ftl->read(Lba(lba), out).ok()) << lba;
    EXPECT_EQ(out, Block(static_cast<std::uint8_t>(lba))) << lba;
  }
}

TEST(FaultRecovery, DramBitErrorFlipsExactlyTheChosenBit) {
  SimClock clock;
  DramConfig dc;
  dc.geometry = test::SmallDram();
  dc.profile = DramProfile::Invulnerable();
  DramDevice dram(dc, MakeLinearMapper(dc.geometry), clock);
  FaultPlan plan;
  plan.add(FaultClass::kDramBitError, /*op_index=*/1, /*count=*/1,
           /*param=*/(5u << 3) | 2u);  // byte 5, bit 2
  FaultInjector injector(plan);
  dram.set_fault_injector(&injector);

  std::vector<std::uint8_t> data(16, 0x00);
  ASSERT_TRUE(dram.write(DramAddr(0), data).ok());
  std::vector<std::uint8_t> out(16);
  ASSERT_TRUE(dram.read(DramAddr(0), out).ok());  // op 0: clean
  EXPECT_EQ(out, data);
  ASSERT_TRUE(dram.read(DramAddr(0), out).ok());  // op 1: faulted
  EXPECT_EQ(out[5], 0x04);
  out[5] = 0;
  EXPECT_EQ(out, data);
  EXPECT_EQ(dram.stats().injected_bit_errors, 1u);
}

TEST(FaultRecovery, SecdedCorrectsInjectedSoftError) {
  SimClock clock;
  DramConfig dc;
  dc.geometry = test::SmallDram();
  dc.profile = DramProfile::Invulnerable();
  dc.mitigations.ecc = true;
  DramDevice dram(dc, MakeLinearMapper(dc.geometry), clock);
  FaultPlan plan;
  plan.add(FaultClass::kDramBitError, 1, 1, (3u << 3) | 7u);
  FaultInjector injector(plan);
  dram.set_fault_injector(&injector);

  std::vector<std::uint8_t> data(16, 0xA5);
  ASSERT_TRUE(dram.write(DramAddr(0), data).ok());
  std::vector<std::uint8_t> out(16);
  ASSERT_TRUE(dram.read(DramAddr(0), out).ok());
  const std::uint64_t corrected_before = dram.stats().ecc_corrected;
  ASSERT_TRUE(dram.read(DramAddr(0), out).ok());  // faulted, corrected
  EXPECT_EQ(out, data);
  EXPECT_EQ(dram.stats().injected_bit_errors, 1u);
  EXPECT_GT(dram.stats().ecc_corrected, corrected_before);
}

TEST(FaultRecovery, ScrubRepairsCorruptedMapping) {
  FaultRig rig(FaultPlan{}, FaultRig::JournalConfig());
  for (std::uint64_t lba = 0; lba < 10; ++lba) {
    ASSERT_TRUE(
        rig.ftl->write(Lba(lba), Block(static_cast<std::uint8_t>(lba + 1)))
            .ok());
  }
  // Simulate a hammer flip landing in the L2P entry of LBA 3.
  const std::uint32_t good = rig.ftl->debug_lookup(Lba(3));
  rig.ftl->debug_store(Lba(3), good ^ 0x40);

  std::uint64_t repaired = 0;
  ASSERT_TRUE(rig.ftl->scrub(&repaired).ok());
  EXPECT_EQ(repaired, 1u);
  EXPECT_EQ(rig.ftl->debug_lookup(Lba(3)), good);
  EXPECT_EQ(rig.ftl->stats().scrub_repairs, 1u);

  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(rig.ftl->read(Lba(3), out).ok());
  EXPECT_EQ(out, Block(4));

  // A clean table scrubs to zero repairs.
  ASSERT_TRUE(rig.ftl->scrub(&repaired).ok());
  EXPECT_EQ(repaired, 0u);
}

TEST(FaultRecovery, PeriodicScrubRunsAndRepairsAutomatically) {
  FtlConfig config = FaultRig::JournalConfig();
  config.scrub_interval_ios = 4;
  FaultRig rig(FaultPlan{}, config);
  for (std::uint64_t lba = 0; lba < 3; ++lba) {
    ASSERT_TRUE(rig.ftl->write(Lba(lba), Block(0x55)).ok());
  }
  const std::uint32_t good = rig.ftl->debug_lookup(Lba(1));
  rig.ftl->debug_store(Lba(1), good ^ 1);

  std::vector<std::uint8_t> out(kBlockSize);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rig.ftl->read(Lba(2), out).ok());
  }
  EXPECT_GE(rig.ftl->stats().scrub_runs, 1u);
  EXPECT_EQ(rig.ftl->stats().scrub_repairs, 1u);
  EXPECT_EQ(rig.ftl->debug_lookup(Lba(1)), good);
}

TEST(FaultRecovery, ScrubWithoutJournalIsRejected) {
  FaultRig rig(FaultPlan{});  // journal disabled
  EXPECT_EQ(rig.ftl->scrub().code(), StatusCode::kFailedPrecondition);
}

// The scrub verifies only the entries in rows named by new FlipEvents
// while disturbance flips are the only DRAM change since its last clean
// walk, and every entry otherwise.  A journal + scrub device is hammered
// into flips before every scrub; the rounds mix in each change that must
// force the full walk, aimed at rows the round's flips did not touch.
// After every scrub each entry must equal the journaled mapping, and
// scrub_repairs must grow by exactly the drift counted before the call.
enum class ScrubRound {
  kFlipsOnly,
  kPoke,              // debug_store
  kInjectedBitError,  // FaultClass::kDramBitError on a host read
  kReadAll,           // host reads of every LBA: ECC corrections if on
  kHostWrite,
  kClearFlipEvents,
};

struct ScrubWalkTotals {
  std::uint64_t flips_only_scrubs = 0;   // cached truth, flips only
  std::uint64_t flips_only_repairs = 0;
  std::uint64_t injected_bit_errors = 0;
  std::uint64_t ecc_corrected = 0;
};

ScrubWalkTotals RunScrubRounds(bool ecc) {
  constexpr std::uint64_t kLbas = 1024;  // 4 KiB table: 8 row chunks
  ScrubWalkTotals totals;
  SimClock clock;
  DramConfig dc;
  dc.geometry = test::SmallDram();
  dc.profile = test::EasyFlipProfile();
  dc.mitigations.ecc = ecc;
  DramDevice dram(dc, MakeLinearMapper(dc.geometry), clock);
  NandDevice nand(NandGeometry{.channels = 1,
                               .dies_per_channel = 1,
                               .planes_per_die = 1,
                               .blocks_per_plane = 128,
                               .pages_per_block = 16,
                               .page_bytes = kBlockSize});
  FtlConfig config;
  config.num_lbas = kLbas;
  config.journal.enabled = true;
  Ftl ftl(config, nand, dram);

  std::vector<std::uint32_t> truth(kLbas);
  for (std::uint64_t lba = 0; lba < kLbas; ++lba) {
    EXPECT_TRUE(
        ftl.write(Lba(lba), Block(static_cast<std::uint8_t>(lba))).ok());
    truth[lba] = ftl.debug_lookup(Lba(lba));
  }
  EXPECT_TRUE(ftl.scrub().ok());

  // Each entry's DRAM row, and the table rows whose neighbors on both
  // sides sit in the same bank: double-sided victims.
  const DramGeometry& geo = dc.geometry;
  std::vector<std::uint64_t> row_of(kLbas);
  std::vector<std::uint64_t> victims;
  for (std::uint64_t lba = 0; lba < kLbas; ++lba) {
    row_of[lba] = dram.mapper()
                      .decode(ftl.layout().entry_addr(lba))
                      .global_row(geo);
    const std::uint64_t in_bank = row_of[lba] % geo.rows_per_bank;
    if (in_bank > 0 && in_bank + 1 < geo.rows_per_bank &&
        std::find(victims.begin(), victims.end(), row_of[lba]) ==
            victims.end()) {
      victims.push_back(row_of[lba]);
    }
  }
  EXPECT_GE(victims.size(), 2u);

  constexpr ScrubRound kSchedule[] = {
      ScrubRound::kFlipsOnly, ScrubRound::kPoke,
      ScrubRound::kFlipsOnly, ScrubRound::kInjectedBitError,
      ScrubRound::kFlipsOnly, ScrubRound::kReadAll,
      ScrubRound::kFlipsOnly, ScrubRound::kHostWrite,
      ScrubRound::kFlipsOnly, ScrubRound::kClearFlipEvents};
  std::vector<std::uint8_t> out(kBlockSize);
  std::uint64_t mark_epoch = dram.content_epoch();
  std::uint64_t mark_flips = dram.stats().bitflips;
  for (std::uint64_t round = 0; round < 30; ++round) {
    const ScrubRound kind = kSchedule[round % std::size(kSchedule)];
    const std::uint64_t victim = victims[round % victims.size()];
    const std::size_t events_before = dram.flip_events().size();
    clock.advance_ns(dram.refresh_window_ns());
    dram.hammer_pair(victim - 1, victim + 1, 20000);

    // An LBA whose row this round's flips did not touch: a change aimed
    // there is missed by a walk of the flipped rows alone.
    std::vector<std::uint64_t> flipped_rows;
    for (std::size_t i = events_before; i < dram.flip_events().size(); ++i) {
      flipped_rows.push_back(dram.flip_events()[i].global_row);
    }
    std::uint64_t quiet = 0;
    while (std::find(flipped_rows.begin(), flipped_rows.end(),
                     row_of[quiet]) != flipped_rows.end()) {
      ++quiet;
    }
    EXPECT_LT(quiet, kLbas);
    switch (kind) {
      case ScrubRound::kFlipsOnly:
        break;
      case ScrubRound::kPoke:
        ftl.debug_store(Lba(quiet), truth[quiet] ^ 0x10);
        break;
      case ScrubRound::kInjectedBitError: {
        FaultPlan plan;
        plan.add(FaultClass::kDramBitError, /*op_index=*/0, /*count=*/1,
                 /*param=*/(1u << 3) | 5u);  // entry byte 1, bit 5
        FaultInjector injector(plan);
        const std::uint64_t injected = dram.stats().injected_bit_errors;
        dram.set_fault_injector(&injector);
        (void)ftl.read(Lba(quiet), out);  // reads the corrupted mapping
        dram.set_fault_injector(nullptr);
        totals.injected_bit_errors +=
            dram.stats().injected_bit_errors - injected;
        break;
      }
      case ScrubRound::kReadAll:
        for (std::uint64_t lba = 0; lba < kLbas; ++lba) {
          (void)ftl.read(Lba(lba), out);
        }
        break;
      case ScrubRound::kHostWrite:
        EXPECT_TRUE(ftl.write(Lba(quiet), Block(0xEE)).ok());
        truth[quiet] = ftl.debug_lookup(Lba(quiet));
        break;
      case ScrubRound::kClearFlipEvents:
        dram.clear_flip_events();
        break;
    }

    std::uint64_t drift = 0;
    for (std::uint64_t lba = 0; lba < kLbas; ++lba) {
      drift += ftl.debug_lookup(Lba(lba)) != truth[lba];
    }
    const std::uint64_t flips = dram.stats().bitflips - mark_flips;
    const bool flips_only = kind == ScrubRound::kFlipsOnly && flips > 0 &&
                            dram.content_epoch() - mark_epoch == flips;
    const std::uint64_t repairs_before = ftl.stats().scrub_repairs;
    EXPECT_TRUE(ftl.scrub().ok()) << "round " << round;
    EXPECT_EQ(ftl.stats().scrub_repairs - repairs_before, drift)
        << "round " << round;
    for (std::uint64_t lba = 0; lba < kLbas; ++lba) {
      EXPECT_EQ(ftl.debug_lookup(Lba(lba)), truth[lba])
          << "round " << round << " lba " << lba;
    }
    if (flips_only) {
      ++totals.flips_only_scrubs;
      totals.flips_only_repairs += drift;
    }
    mark_epoch = dram.content_epoch();
    mark_flips = dram.stats().bitflips;
  }
  // The test's truth assumes no GC moved a mapping behind it.
  EXPECT_EQ(ftl.stats().gc_runs, 0u);
  totals.ecc_corrected = dram.stats().ecc_corrected;
  return totals;
}

TEST(FaultRecovery, ScrubFlipDrivenWalkMatchesJournal) {
  const ScrubWalkTotals t = RunScrubRounds(/*ecc=*/false);
  // Non-vacuity: scrubs ran on the cached truth with disturbance flips
  // as the only change, and repaired entries there.
  EXPECT_GT(t.flips_only_scrubs, 0u);
  EXPECT_GT(t.flips_only_repairs, 0u);
  EXPECT_GT(t.injected_bit_errors, 0u);
}

TEST(FaultRecovery, ScrubFlipDrivenWalkMatchesJournalUnderEcc) {
  const ScrubWalkTotals t = RunScrubRounds(/*ecc=*/true);
  EXPECT_GT(t.flips_only_scrubs, 0u);
  EXPECT_GT(t.flips_only_repairs, 0u);
  EXPECT_GT(t.ecc_corrected, 0u);
}

}  // namespace
}  // namespace rhsd
