// FTL behaviour under realistic workloads: write amplification, garbage
// collection, and wear spread.
//
// Not a paper table — this is the substrate-health bench every SSD
// simulator ships.  It validates that the FTL the attack runs on behaves
// like a real log-structured FTL: WAF ~1 for sequential overwrites,
// rising under random/skewed writes as GC relocates live pages, with
// wear spread bounded by the FIFO free-block rotation.
#include <chrono>
#include <cstdio>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "sim/workload.hpp"
#include "ssd/ssd_device.hpp"

using namespace rhsd;

namespace {

struct FtlBehaviour {
  double waf = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t relocations = 0;
  std::uint32_t min_erase = 0;
  std::uint32_t max_erase = 0;
  double measured_iops = 0;
};

FtlBehaviour Run(AccessPattern pattern, double write_fraction) {
  SsdConfig config = SsdConfig::DemoSetup(16 * kMiB);
  config.dram_profile = DramProfile::Invulnerable();
  config.partition_blocks.clear();  // single namespace
  SsdDevice ssd(config);

  const std::uint64_t ws = config.num_lbas() * 9 / 10;
  WorkloadConfig workload;
  workload.pattern = pattern;
  workload.working_set = ws;
  workload.write_fraction = write_fraction;
  workload.seed = 99;
  WorkloadGenerator generator(workload);

  // Fill once so steady state has live data everywhere.
  std::vector<std::uint8_t> block(kBlockSize, 0x33);
  for (std::uint64_t slba = 0; slba < ws; ++slba) {
    RHSD_CHECK(ssd.controller().write(1, slba, block).ok());
  }
  const FtlStats fill_stats = ssd.ftl().stats();

  // Steady-state phase.
  std::vector<std::uint8_t> out(kBlockSize);
  for (int op = 0; op < 60000; ++op) {
    const WorkloadOp o = generator.next();
    if (o.is_write) {
      RHSD_CHECK(ssd.controller().write(1, o.slba, block).ok());
    } else {
      RHSD_CHECK(ssd.controller().read(1, o.slba, out).ok());
    }
  }

  const FtlStats& stats = ssd.ftl().stats();
  FtlBehaviour result;
  const double host_writes =
      static_cast<double>(stats.host_writes - fill_stats.host_writes);
  const double programs =
      static_cast<double>(stats.flash_programs - fill_stats.flash_programs);
  result.waf = host_writes > 0 ? programs / host_writes : 0.0;
  result.gc_runs = stats.gc_runs - fill_stats.gc_runs;
  result.relocations = stats.gc_relocations - fill_stats.gc_relocations;
  result.measured_iops = ssd.controller().measured_iops();

  const NandGeometry& geometry = ssd.nand().geometry();
  result.min_erase = ~0u;
  for (std::uint32_t b = 0; b < geometry.total_blocks(); ++b) {
    result.min_erase = std::min(result.min_erase, ssd.nand().erase_count(b));
    result.max_erase = std::max(result.max_erase, ssd.nand().erase_count(b));
  }
  return result;
}

// ---- L2P journal: recovery time vs proactive epoch cadence ----

struct RecoverySample {
  std::uint64_t records_applied = 0;
  std::uint64_t oob_adopted = 0;
  std::uint64_t lost = 0;
  double micros = 0;
};

/// Sustained random writes, power loss, reboot, timed Ftl::recover().
/// `cadence` is L2pJournalConfig::snapshot_every_records (0 = roll only
/// when the journal half fills).
RecoverySample RunRecovery(std::uint64_t cadence) {
  constexpr std::uint64_t kLbas = 2048;
  constexpr std::uint64_t kWrites = 6000;
  SimClock clock;
  NandDevice nand(NandGeometry{.channels = 1,
                               .dies_per_channel = 1,
                               .planes_per_die = 1,
                               .blocks_per_plane = 128,
                               .pages_per_block = 32,
                               .page_bytes = kBlockSize});
  FtlConfig fc;
  fc.num_lbas = kLbas;
  fc.hammers_per_io = 1;
  fc.journal.enabled = true;
  fc.journal.blocks = 16;
  fc.journal.snapshot_every_records = cadence;
  const auto make_dram = [&clock] {
    DramConfig dc;
    dc.geometry = DramGeometry{.channels = 1,
                               .dimms_per_channel = 1,
                               .ranks_per_dimm = 1,
                               .banks_per_rank = 4,
                               .rows_per_bank = 64,
                               .row_bytes = 512};
    dc.profile = DramProfile::Invulnerable();
    return std::make_unique<DramDevice>(dc, MakeLinearMapper(dc.geometry),
                                        clock);
  };

  FaultPlan plan;
  plan.add(FaultClass::kPowerLoss, kWrites);
  FaultInjector injector(std::move(plan));
  auto dram = make_dram();
  auto ftl = std::make_unique<Ftl>(fc, nand, *dram);
  ftl->set_fault_injector(&injector);
  Rng rng(7);
  std::vector<std::uint8_t> block(kBlockSize, 0x44);
  for (std::uint64_t i = 0; i <= kWrites; ++i) {
    const Status s = ftl->write(Lba(rng.next_below(kLbas)), block);
    RHSD_CHECK(i < kWrites ? s.ok() : !s.ok());
  }
  RHSD_CHECK(ftl->powered_off());

  // Reboot: volatile state gone, flash survives; time the recovery.
  ftl.reset();
  dram = make_dram();
  ftl = std::make_unique<Ftl>(fc, nand, *dram);
  RHSD_CHECK(ftl->needs_recovery());
  FtlRecoveryReport report;
  const auto t0 = std::chrono::steady_clock::now();
  RHSD_CHECK(ftl->recover(&report).ok());
  const auto t1 = std::chrono::steady_clock::now();
  RecoverySample sample;
  sample.records_applied = report.records_applied;
  sample.oob_adopted = report.oob_adopted;
  sample.lost = report.lost_lbas.size();
  sample.micros =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
      1e3;
  return sample;
}

}  // namespace

int main() {
  std::printf("== FTL behaviour: write amplification / GC / wear ==\n");
  std::printf("(16 MiB device, 90%% utilized, 60K steady-state ops)\n\n");
  std::printf("%-12s %7s | %6s %8s %8s %12s %10s\n", "pattern", "writes",
              "WAF", "gc runs", "relocs", "erase min/max", "IOPS");
  std::printf("%.*s\n", 78,
              "----------------------------------------------------------"
              "--------------------");
  struct Row {
    AccessPattern pattern;
    double write_fraction;
  };
  const Row rows[] = {
      {AccessPattern::kSequential, 1.0},
      {AccessPattern::kRandom, 1.0},
      {AccessPattern::kZipfLike, 1.0},
      {AccessPattern::kHotCold, 1.0},
      {AccessPattern::kRandom, 0.3},
  };
  for (const Row& row : rows) {
    const FtlBehaviour r = Run(row.pattern, row.write_fraction);
    std::printf("%-12s %6.0f%% | %6.2f %8llu %8llu %8u/%-5u %10.0f\n",
                to_string(row.pattern), row.write_fraction * 100, r.waf,
                static_cast<unsigned long long>(r.gc_runs),
                static_cast<unsigned long long>(r.relocations),
                r.min_erase, r.max_erase, r.measured_iops);
  }
  std::printf(
      "\nshape check: sequential overwrites invalidate whole blocks\n"
      "(WAF ~1, zero relocations); random/skewed writes at 90%%\n"
      "utilization force GC to move live pages (WAF ~3); skew widens\n"
      "the wear spread (hot/cold erase min/max); read-heavy mixes\n"
      "relieve GC pressure.\n");

  // ---- L2P journal: recovery time vs proactive epoch cadence ----
  std::printf("\n== L2P journal: recovery time vs snapshot cadence ==\n");
  std::printf("(6000 random writes over 2048 LBAs, power loss, timed "
              "recover())\n\n");
  std::printf("%-14s %10s %10s %6s %12s\n", "cadence (recs)", "replayed",
              "oob adopt", "lost", "recover us");
  for (const std::uint64_t cadence : {0ull, 2048ull, 512ull, 128ull}) {
    const RecoverySample s = RunRecovery(cadence);
    std::printf("%-14llu %10llu %10llu %6llu %12.1f\n",
                static_cast<unsigned long long>(cadence),
                static_cast<unsigned long long>(s.records_applied),
                static_cast<unsigned long long>(s.oob_adopted),
                static_cast<unsigned long long>(s.lost), s.micros);
  }
  std::printf(
      "\nshape check: the record tail recover() must replay is bounded\n"
      "by the snapshot cadence, so recovery time falls as the cadence\n"
      "tightens (at the cost of extra snapshot write amplification\n"
      "during normal operation); acknowledged data is never lost at\n"
      "any cadence.\n");

  // ---- Flash media reliability sweep ----
  std::printf("\n== flash media: wear vs raw errors vs page ECC ==\n");
  std::printf("(RBER model: base 1e-6 + 2e-7/PE; page ECC corrects up "
              "to %u bits)\n\n",
              Ftl::kPageEccCorrectableBits);
  std::printf("%-10s %14s %14s %12s\n", "P/E cycles", "raw errs/read",
              "reads failed", "of 2000");
  for (const int pe : {0, 1000, 5000, 10000, 20000}) {
    NandReliability reliability;
    reliability.base_rber = 1e-6;
    reliability.wear_rber_per_pe = 2e-7;
    NandDevice nand(NandGeometry{1, 1, 1, 8, 16, kBlockSize}, reliability,
                    2026);
    for (int i = 0; i < pe; ++i) RHSD_CHECK(nand.erase(0).ok());
    std::vector<std::uint8_t> page(kBlockSize, 0x11);
    RHSD_CHECK(nand.program(0, 0, page, PageOob{0, 1}).ok());
    std::vector<std::uint8_t> out(kBlockSize);
    std::uint64_t raw = 0;
    int failed = 0;
    for (int i = 0; i < 2000; ++i) {
      std::uint32_t errors = 0;
      RHSD_CHECK(nand.read(0, 0, out, nullptr, &errors).ok());
      raw += errors;
      if (errors > Ftl::kPageEccCorrectableBits) ++failed;
    }
    std::printf("%-10d %14.2f %14d %12s\n", pe, raw / 2000.0, failed,
                failed == 0 ? "(ECC holds)" : "(data loss)");
  }
  std::printf(
      "\nshape check: raw error rates grow linearly with wear; the\n"
      "page ECC absorbs them until the budget is crossed — the flash-\n"
      "side failure mode the paper contrasts with its DRAM-side attack\n"
      "([8, 28] attack these cells directly).\n");
  return 0;
}
