// Firmware reactions to injected physical faults: NAND read-retry,
// program-failure block retirement, erase-failure bad-block growth with
// graceful degradation to read-only, DRAM soft errors (raw and under
// SECDED), and the journal-backed integrity scrub.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "ftl/ftl.hpp"
#include "ftl/l2p_journal.hpp"
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
    const std::uint64_t aggressors[2] = {victim - 1, victim + 1};
    EXPECT_TRUE(dram.hammer_pattern(aggressors, 40000, 1,
                                    {clock.now_ns(), 0, 40000}, {}));

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

// ---------------------------------------------------------------------
// L2pJournal::load() decodes both halves into storage the journal keeps
// across loads.  A long-lived journal that loads after every step —
// appends, flushes, epoch rolls, a roll torn by an injected NAND
// program fault, injected NAND read faults — must load exactly what a
// fresh journal over the same NAND loads, and sit at the same writer
// position afterwards.
// ---------------------------------------------------------------------

void ExpectSameLoad(const JournalLoadResult& reused,
                    const JournalLoadResult& fresh) {
  EXPECT_EQ(reused.snapshot_found, fresh.snapshot_found);
  EXPECT_EQ(reused.epoch, fresh.epoch);
  EXPECT_EQ(reused.snapshot_write_seq, fresh.snapshot_write_seq);
  EXPECT_EQ(reused.table, fresh.table);
  ASSERT_EQ(reused.records.size(), fresh.records.size());
  for (std::size_t i = 0; i < reused.records.size(); ++i) {
    EXPECT_EQ(reused.records[i].lpn, fresh.records[i].lpn) << "record " << i;
    EXPECT_EQ(reused.records[i].pba32, fresh.records[i].pba32)
        << "record " << i;
    EXPECT_EQ(reused.records[i].seq, fresh.records[i].seq) << "record " << i;
  }
  EXPECT_EQ(reused.corrupt_pages, fresh.corrupt_pages);
}

TEST(L2pJournal, ReplayAppliesRecordsInSequenceOrder) {
  // Records out of sequence order: replay() sorts them before applying.
  // Unsorted, the table would come out the same (only records newer
  // than their LPN's last apply), but the older records of LPNs 1 and 2
  // would be skipped as stale instead of applied.
  JournalLoadResult r;
  r.snapshot_found = true;
  r.snapshot_write_seq = 2;
  r.table = {7, 7, 7, 7};
  r.records = {{1, 10, 5}, {2, 20, 9}, {1, 11, 3}, {2, 21, 4}, {9, 90, 6}};
  const JournalLoadResult::Replay out = r.replay(4);
  EXPECT_EQ(out.table, (std::vector<std::uint32_t>{7, 10, 20, 7}));
  EXPECT_EQ(out.last_seq, (std::vector<std::uint64_t>{2, 5, 9, 2}));
  EXPECT_EQ(out.applied, 4u);  // 3, 4, 5 and 9; the LPN-9 record is invalid
  EXPECT_EQ(out.invalid, 1u);
  EXPECT_EQ(out.max_seq, 9u);
}

TEST(L2pJournal, ReusedScratchLoadsMatchFreshJournal) {
  constexpr std::uint64_t kLbas = 2048;  // 3 snapshot data pages
  NandDevice nand(NandGeometry{.channels = 1,
                               .dies_per_channel = 1,
                               .planes_per_die = 1,
                               .blocks_per_plane = 8,
                               .pages_per_block = 16,
                               .page_bytes = kBlockSize});
  L2pJournalConfig config;
  config.enabled = true;
  config.blocks = 4;  // two 32-page halves
  L2pJournal journal(config, nand, kLbas);

  Rng rng(0x10AD);
  std::uint64_t seq = 0;
  std::vector<std::uint32_t> table(kLbas, kUnmappedPba32);
  const auto append = [&](int n, int sync_every) {
    for (int i = 1; i <= n; ++i) {
      const std::uint64_t lpn = rng.next_below(kLbas);
      const auto pba = static_cast<std::uint32_t>(rng.next_below(1u << 20));
      table[lpn] = pba;
      ASSERT_TRUE(journal
                      .append(JournalRecord{lpn, pba, ++seq},
                              sync_every > 0 && i % sync_every == 0)
                      .ok());
    }
    ASSERT_TRUE(journal.flush().ok());
  };
  // The long-lived journal loads, then a fresh one, each behind its own
  // copy of `reads` (so a read fault lands on the same page of both).
  std::vector<JournalLoadResult> seen;
  const auto check = [&](const std::string& step, const FaultPlan& reads) {
    SCOPED_TRACE(step);
    FaultInjector reused_faults(reads);
    nand.set_fault_injector(&reused_faults);
    StatusOr<JournalLoadResult> reused = journal.load();
    FaultInjector fresh_faults(reads);
    nand.set_fault_injector(&fresh_faults);
    L2pJournal fresh(config, nand, kLbas);
    StatusOr<JournalLoadResult> loaded = fresh.load();
    nand.set_fault_injector(nullptr);
    ASSERT_TRUE(reused.ok());
    ASSERT_TRUE(loaded.ok());
    ExpectSameLoad(*reused, *loaded);
    if (loaded->snapshot_found) {  // else load() leaves the writer alone
      EXPECT_EQ(journal.epoch(), fresh.epoch());
      EXPECT_EQ(journal.next_page(), fresh.next_page());
    }
    seen.push_back(std::move(reused).value());
  };
  // Read faults at a spread of page-read indices (headers, snapshot data
  // and record pages of either half), then a clean load that puts the
  // writer back on the newest epoch.
  const auto check_read_faults = [&](const std::string& step) {
    for (const std::uint64_t at :
         {0ull, 2ull, 4ull, 9ull, 26ull, 28ull, 30ull}) {
      check(step + ", read fault at page read " + std::to_string(at),
            FaultPlan{}.add(FaultClass::kNandRead, at));
    }
    check(step + ", clean", FaultPlan{});
  };

  ASSERT_TRUE(journal.format(table, 0).ok());
  check("format", FaultPlan{});
  append(150, 0);
  check("one record page", FaultPlan{});
  append(700, 37);
  check("sync flushes", FaultPlan{});
  ASSERT_TRUE(journal.snapshot(table, seq).ok());
  check("roll to epoch 1", FaultPlan{});
  append(500, 0);
  check("records in both halves", FaultPlan{});
  check_read_faults("records in both halves");

  // A roll whose third program (the second snapshot data page) fails:
  // epoch 2's half is torn, and loads fall back to epoch 1.
  {
    FaultInjector program_fault(FaultPlan{}.add(FaultClass::kNandProgram, 2));
    nand.set_fault_injector(&program_fault);
    EXPECT_FALSE(journal.snapshot(table, seq).ok());
    nand.set_fault_injector(nullptr);
  }
  check("torn roll", FaultPlan{});
  EXPECT_EQ(seen.back().epoch, 1u);
  EXPECT_EQ(seen.back().records.size(), 500u);
  append(300, 0);
  check("appends after the torn roll", FaultPlan{});
  check_read_faults("appends after the torn roll");
  ASSERT_TRUE(journal.snapshot(table, seq).ok());
  append(90, 0);
  check("roll to epoch 2", FaultPlan{});
  EXPECT_EQ(seen.back().epoch, 2u);

  // Non-vacuity: read faults cost some load a record page, another its
  // only complete snapshot, and made one fall back to epoch 0 while
  // epoch 1 was newest.
  bool corrupt = false;
  bool none = false;
  bool older = false;
  for (const JournalLoadResult& r : seen) {
    corrupt |= r.corrupt_pages > 0;
    none |= !r.snapshot_found;
    older |= r.snapshot_found && r.epoch == 0 && r.records.size() == 850;
  }
  EXPECT_TRUE(corrupt);
  EXPECT_TRUE(none);
  EXPECT_TRUE(older);
}

}  // namespace
}  // namespace rhsd
