// Microbenchmarks (google-benchmark): hot paths of the simulator.
//
// These measure *host* performance of the simulation itself — useful
// when scaling experiments up — as opposed to the experiment benches,
// which report *simulated-device* behaviour.
#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "bench_report.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "dram/dram_device.hpp"
#include "dram/ecc.hpp"
#include "ftl/ftl.hpp"
#include "ssd/ssd_device.hpp"

namespace rhsd {
namespace {

void BM_Crc32c4K(benchmark::State& state) {
  std::vector<std::uint8_t> data(kBlockSize, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBlockSize);
}
BENCHMARK(BM_Crc32c4K);

void BM_SecdedEncode(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t word = rng.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SecdedEncode(word));
    ++word;
  }
}
BENCHMARK(BM_SecdedEncode);

void BM_SecdedDecodeClean(benchmark::State& state) {
  const std::uint64_t word = 0xDEADBEEFCAFEF00Dull;
  const std::uint8_t check = SecdedEncode(word);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SecdedDecode(word, check));
  }
}
BENCHMARK(BM_SecdedDecodeClean);

void BM_Xoshiro(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_DramRead(benchmark::State& state) {
  SimClock clock;
  DramConfig config;
  config.geometry = DramGeometry::Tiny();
  config.profile = DramProfile::Invulnerable();
  DramDevice dram(config, MakeLinearMapper(config.geometry), clock);
  std::uint8_t buf[4];
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dram.read(DramAddr(addr % 2048), buf));
    addr += 4;
  }
}
BENCHMARK(BM_DramRead);

void BM_DramHammerActivation(benchmark::State& state) {
  // The disturbance-check cost per activation with vulnerable rows.
  SimClock clock;
  DramConfig config;
  config.geometry = DramGeometry::Tiny();
  config.profile = DramProfile::Testbed();
  config.profile.vulnerable_row_fraction = 1.0;
  DramDevice dram(config, MakeLinearMapper(config.geometry), clock);
  std::uint8_t byte;
  bool left = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dram.read(DramAddr(left ? 128 : 3 * 128), {&byte, 1}));
    left = !left;
  }
}
BENCHMARK(BM_DramHammerActivation);

/// Device used by the scalar-vs-batched hammer comparison: every row
/// vulnerable (worst case for the early-out logic) but with testbed-level
/// thresholds, i.e. the common regime where aggressors are hammered hard
/// without crossing a threshold on every window.
std::unique_ptr<DramDevice> MakeHammerDevice(
    SimClock& clock, bool trr = false, std::uint32_t rows_per_bank = 256) {
  DramConfig config;
  config.geometry = DramGeometry{.channels = 1,
                                 .dimms_per_channel = 1,
                                 .ranks_per_dimm = 1,
                                 .banks_per_rank = 2,
                                 .rows_per_bank = rows_per_bank,
                                 .row_bytes = 1024};
  config.profile = DramProfile::Testbed();
  config.profile.vulnerable_row_fraction = 1.0;
  config.seed = 99;
  if (trr) {
    // Threshold low enough that the tracker fires repeatedly over the
    // bench workload: the batched path must replay real emissions, not
    // coast through an emission-free run.
    config.mitigations.trr = true;
    config.mitigations.trr_config.activation_threshold = 5000;
  }
  return std::make_unique<DramDevice>(config, MakeLinearMapper(config.geometry),
                                      clock);
}

/// cloud_read's DRAM (2 banks x 256 rows, 10 K accesses/s, every row
/// vulnerable), bare or with the mitigated cloud sweep's TRR (fires at
/// 1000 activations) + PARA (p = 1/512).
std::unique_ptr<DramDevice> MakeCloudDram(SimClock& clock, bool mitigated) {
  DramConfig config;
  config.geometry = DramGeometry{.channels = 1,
                                 .dimms_per_channel = 1,
                                 .ranks_per_dimm = 1,
                                 .banks_per_rank = 2,
                                 .rows_per_bank = 256,
                                 .row_bytes = 512};
  config.profile.min_rate_kaccess_s = 10.0;
  config.profile.vulnerable_row_fraction = 1.0;
  config.profile.max_cells_per_row = 2;
  config.profile.threshold_spread = 0.5;
  config.seed = 42;
  if (mitigated) {
    config.mitigations.trr = true;
    config.mitigations.trr_config.activation_threshold = 1000;
    config.mitigations.para_probability = 1.0 / 512;
  }
  return std::make_unique<DramDevice>(config, MakeLinearMapper(config.geometry),
                                      clock);
}

void BM_HammerPairScalar(benchmark::State& state) {
  SimClock clock;
  auto dram = MakeHammerDevice(clock);
  for (auto _ : state) {
    dram->hammer_pair_scalar(9, 11, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_HammerPairScalar);

void BM_HammerPairBatched(benchmark::State& state) {
  SimClock clock;
  auto dram = MakeHammerDevice(clock);
  for (auto _ : state) {
    dram->hammer_pair(9, 11, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_HammerPairBatched);

void BM_XorMapperDecode(benchmark::State& state) {
  const DramGeometry g = DramGeometry::PaperTestbed();
  XorMapper mapper(g, {});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.decode(DramAddr(addr)));
    addr = (addr + 8192) % g.total_bytes();
  }
}
BENCHMARK(BM_XorMapperDecode);

void BM_HashedLayoutLookup(benchmark::State& state) {
  HashedL2pLayout layout(DramAddr(0), 1 << 18, 0xC0FFEE);
  std::uint64_t lpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.entry_addr(lpn));
    lpn = (lpn + 1) % (1 << 18);
  }
}
BENCHMARK(BM_HashedLayoutLookup);

struct FtlFixtureState {
  FtlFixtureState() {
    DramConfig dc;
    dc.geometry = DramGeometry{.channels = 1,
                               .dimms_per_channel = 1,
                               .ranks_per_dimm = 1,
                               .banks_per_rank = 2,
                               .rows_per_bank = 64,
                               .row_bytes = 512};
    dc.profile = DramProfile::Invulnerable();
    dram = std::make_unique<DramDevice>(dc, MakeLinearMapper(dc.geometry),
                                        clock);
    nand = std::make_unique<NandDevice>(NandGeometry::ForCapacity(16 * kMiB));
    FtlConfig fc;
    fc.num_lbas = 4096;
    fc.hammers_per_io = 5;
    ftl = std::make_unique<Ftl>(fc, *nand, *dram);
    std::vector<std::uint8_t> block(kBlockSize, 1);
    for (std::uint64_t lba = 0; lba < 1024; ++lba) {
      (void)ftl->write(Lba(lba), block);
    }
  }
  SimClock clock;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<NandDevice> nand;
  std::unique_ptr<Ftl> ftl;
};

void BM_FtlMappedRead(benchmark::State& state) {
  FtlFixtureState fixture;
  std::vector<std::uint8_t> out(kBlockSize);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.ftl->read(Lba(lba % 1024), out));
    ++lba;
  }
}
BENCHMARK(BM_FtlMappedRead);

void BM_FtlUnmappedRead(benchmark::State& state) {
  // The attack's fast path: trimmed reads skip flash.
  FtlFixtureState fixture;
  std::vector<std::uint8_t> out(kBlockSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.ftl->read(Lba(2048), out));
  }
}
BENCHMARK(BM_FtlUnmappedRead);

void BM_FtlWrite(benchmark::State& state) {
  FtlFixtureState fixture;
  std::vector<std::uint8_t> block(kBlockSize, 2);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.ftl->write(Lba(lba % 1024), block));
    ++lba;
  }
}
BENCHMARK(BM_FtlWrite);

void BM_SsdNvmeReadCommand(benchmark::State& state) {
  SsdConfig config = SsdConfig::DemoSetup(16 * kMiB);
  config.dram_profile = DramProfile::Invulnerable();
  SsdDevice ssd(config);
  std::vector<std::uint8_t> block(kBlockSize, 1);
  (void)ssd.controller().write(1, 0, block);
  std::vector<std::uint8_t> out(kBlockSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssd.controller().read(1, 0, out));
  }
}
BENCHMARK(BM_SsdNvmeReadCommand);

/// The PARA draw loop that Rng::bernoulli_hits replaced, as DramDevice
/// ran it: the generator is a member, so every draw loads and stores its
/// state (the push_back may alias it).  Out of line, like the member
/// function it stands in for.
struct MemberParaLoop {
  Rng rng{0x9A7A};
  std::uint64_t refreshes = 0;

  [[gnu::noinline]] void scan(std::uint64_t threshold, std::uint64_t n,
                              std::vector<std::uint64_t>& hits) {
    for (std::uint64_t e = 1; e <= n; ++e) {
      if (!rng.next_bool_at(threshold)) continue;
      hits.push_back(e);
      ++refreshes;
    }
  }
};

/// The integrity scrub's device for the verify-walk A/B: the perfbench
/// `mitigations` table shape (4096 LBAs, a 16 KiB L2P table over 128
/// rows of 128 bytes) with the L2P journal on and every DRAM row
/// vulnerable at 10 K accesses/s (cell thresholds 640-1920 activations
/// per window).  hammer() flips cells of one table row per call.
struct ScrubRig {
  static constexpr std::uint64_t kLbas = 4096;

  explicit ScrubRig(bool extra_poke) : poke(extra_poke) {
    DramConfig dc;
    dc.geometry = DramGeometry{.channels = 1,
                               .dimms_per_channel = 1,
                               .ranks_per_dimm = 1,
                               .banks_per_rank = 2,
                               .rows_per_bank = 128,
                               .row_bytes = 128};
    dc.profile.min_rate_kaccess_s = 10.0;
    dc.profile.vulnerable_row_fraction = 1.0;
    dc.profile.max_cells_per_row = 2;
    dc.profile.threshold_spread = 0.5;
    dc.seed = 7;
    dram = std::make_unique<DramDevice>(dc, MakeLinearMapper(dc.geometry),
                                        clock);
    nand = std::make_unique<NandDevice>(NandGeometry{.channels = 1,
                                                     .dies_per_channel = 1,
                                                     .planes_per_die = 1,
                                                     .blocks_per_plane = 80,
                                                     .pages_per_block = 64,
                                                     .page_bytes = kBlockSize});
    FtlConfig fc;
    fc.num_lbas = kLbas;
    fc.journal.enabled = true;
    ftl = std::make_unique<Ftl>(fc, *nand, *dram);
    // 64 mapped entries spread over the table; the rest stay unmapped.
    const std::vector<std::uint8_t> block(kBlockSize, 0x5A);
    for (std::uint64_t lba = 0; lba < 64; ++lba) {
      RHSD_CHECK(ftl->write(Lba(lba * 61), block).ok());
    }
    RHSD_CHECK(ftl->scrub().ok());
    // Double-sided victims: table rows with both neighbors in the bank.
    const DramGeometry& geo = dc.geometry;
    for (std::uint64_t lba = 0; lba < kLbas; ++lba) {
      const std::uint64_t row =
          dram->mapper().decode(ftl->layout().entry_addr(lba)).global_row(geo);
      const std::uint64_t in_bank = row % geo.rows_per_bank;
      if (in_bank > 0 && in_bank + 1 < geo.rows_per_bank &&
          (victims.empty() || victims.back() != row)) {
        victims.push_back(row);
      }
    }
  }

  ScrubRig(const ScrubRig&) = delete;
  ScrubRig& operator=(const ScrubRig&) = delete;

  /// Double-sided hammering of the next victim in a fresh refresh
  /// window: 630 pairs expose it to 1260 activations (flipping about
  /// half its cells) and its other neighbors to 630 (none).  Then, with
  /// `poke`, the extra poke: LBA 1's entry rewritten with its own value.
  void hammer() {
    clock.advance_ns(dram->refresh_window_ns());
    const std::uint64_t v = victims[next++ % victims.size()];
    dram->hammer_pair(v - 1, v + 1, 630);
    if (poke) ftl->debug_store(Lba(1), ftl->debug_lookup(Lba(1)));
  }

  bool poke;
  SimClock clock;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<NandDevice> nand;
  std::unique_ptr<Ftl> ftl;
  std::vector<std::uint64_t> victims;
  std::uint64_t next = 0;
};

/// A host-time quantity: the minimum of its runs, the standard stable
/// estimator for a fixed workload.
struct BestOf {
  std::function<double()> run;
  double best = std::numeric_limits<double>::infinity();

  void sample() { best = std::min(best, run()); }
};

/// Chrono-timed scalar-vs-batched comparison feeding BENCH_hotpath.json:
/// the acceptance metric for the batched fast path.  Uses fresh devices
/// so both sides pay the same cold-cache costs.
void ReportHammerHotPath() {
  constexpr std::uint64_t kBatches = 10000;
  constexpr std::uint64_t kPairs = 64;  // per batch

  // Run every comparison on the CPU this one started on: a migration
  // between the two sides of a ratio costs one side its caches and
  // branch history, and the CI trajectory gate sees that as regression.
  if (const int cpu = sched_getcpu(); cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }

  // hammer_pair (the 2-row pattern replay) against hammer_pair_scalar,
  // with and without TRR: the replay advances the tracker analytically
  // instead of falling back to scalar, and must stay comfortably faster
  // than per-event simulation.  One run on a fresh device, in seconds.
  const auto time_hammer = [&](bool trr, bool batched,
                               DramStats* stats_out) {
    SimClock clock;
    auto dram = MakeHammerDevice(clock, trr);
    const double t0 = bench::HostSeconds();
    for (std::uint64_t i = 0; i < kBatches; ++i) {
      if (batched) {
        dram->hammer_pair(9, 11, kPairs);
      } else {
        dram->hammer_pair_scalar(9, 11, kPairs);
      }
    }
    const double elapsed = bench::HostSeconds() - t0;
    if (stats_out != nullptr) *stats_out = dram->stats();
    return elapsed;
  };
  DramStats batched_stats;
  DramStats trr_scalar_stats;
  DramStats trr_batched_stats;
  BestOf hammer_scalar{[&] { return time_hammer(false, false, nullptr); }};
  BestOf hammer_batched{
      [&] { return time_hammer(false, true, &batched_stats); }};
  BestOf trr_scalar{
      [&] { return time_hammer(true, false, &trr_scalar_stats); }};
  BestOf trr_batched{
      [&] { return time_hammer(true, true, &trr_batched_stats); }};

  // The call production makes most: the FTL's per-I/O repeat,
  // hammer_row(r, 4) (hammers_per_io = 5, the first touch being the
  // real read), against hammer_row_scalar, bare and under TRR + PARA.
  // Rows rotate over a 128-row L2P table interleaved across both banks,
  // the clock advancing one simulated I/O (625 ns) per call, so victims
  // cross their thresholds and flip partway through a run.  In ns per
  // call; both sides must leave the same stats.
  const auto time_amplify = [&](bool mitigated, bool batched,
                                DramStats* stats_out) {
    constexpr std::uint64_t kCalls = 40000;
    SimClock clock;
    auto dram = MakeCloudDram(clock, mitigated);
    const double t0 = bench::HostSeconds();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      const std::uint64_t k = (i * 37) % 128;
      const std::uint64_t row = (k % 2) * 256 + k / 2;
      if (batched) {
        dram->hammer_row(row, 4);
      } else {
        dram->hammer_row_scalar(row, 4);
      }
      clock.advance_ns(625);
    }
    const double elapsed = bench::HostSeconds() - t0;
    *stats_out = dram->stats();
    return elapsed / kCalls * 1e9;
  };
  DramStats amp_stats[2][2];  // [mitigated][batched]
  BestOf amp_scalar{
      [&] { return time_amplify(false, false, &amp_stats[0][0]); }};
  BestOf amp_batched{
      [&] { return time_amplify(false, true, &amp_stats[0][1]); }};
  BestOf amp_mit_scalar{
      [&] { return time_amplify(true, false, &amp_stats[1][0]); }};
  BestOf amp_mit_batched{
      [&] { return time_amplify(true, true, &amp_stats[1][1]); }};

  // hammer_pattern() costs a fixed amount per distinct row per call,
  // whatever the command count, so its unit is ns per row-call.  Each
  // call replays max(512, r) commands (5 activations each) of an r-row
  // pattern in one bank; the clock advances with the commands, so
  // windows roll as they do in a replayed attack.  The 1024-row cost
  // over the 64-row one is the CI guard against per-row side tables
  // that scan every row (O(P^2) per call): at both widths per-row work
  // dominates the per-call constant, so the ratio reads ~1.7 with the
  // indexed lookup and ~11 with a linear one.
  const auto time_pattern = [&](std::uint64_t n_rows) {
    const std::uint64_t n_cmds = std::max<std::uint64_t>(512, n_rows);
    constexpr std::uint64_t kRepeat = 5;
    constexpr std::uint64_t kServiceNs = 100;
    const std::uint64_t calls = std::max<std::uint64_t>(4, 10000 / n_rows);
    std::vector<std::uint64_t> rows;
    for (std::uint64_t r = 0; r < n_rows; ++r) rows.push_back(r * 4);
    SimClock clock;
    auto dram = MakeHammerDevice(clock, false, 4096);
    const double t0 = bench::HostSeconds();
    for (std::uint64_t i = 0; i < calls; ++i) {
      const CmdTimes times{{}, clock.now_ns(), kServiceNs, n_cmds};
      const bool ok = dram->hammer_pattern(rows, n_cmds, kRepeat, times, {});
      RHSD_CHECK_MSG(ok, "hazard-free pattern aborted");
      clock.advance_ns(n_cmds * kServiceNs);
    }
    const double elapsed = bench::HostSeconds() - t0;
    return elapsed / static_cast<double>(calls * n_rows) * 1e9;
  };
  BestOf pattern_2{[&] { return time_pattern(2); }};
  BestOf pattern_8{[&] { return time_pattern(8); }};
  BestOf pattern_64{[&] { return time_pattern(64); }};
  BestOf pattern_1024{[&] { return time_pattern(1024); }};

  // The PARA Bernoulli scan: Rng::bernoulli_hits against the loop it
  // replaced (MemberParaLoop), at PARA's p = 1/1024 and the ~314k draws
  // of a §5 PARA replay chunk, in ns per draw.  Both sides must find the
  // same hits.
  constexpr std::uint64_t kScanDraws = 314092;
  constexpr int kScanCalls = 2;
  const std::uint64_t para_thr = Rng::bool_threshold(1.0 / 1024);
  std::vector<std::uint64_t> scan_member_hits;
  std::vector<std::uint64_t> scan_batched_hits;
  const auto time_scan = [&](bool batched) {
    MemberParaLoop para;
    std::vector<std::uint64_t> hits;
    const double t0 = bench::HostSeconds();
    for (int c = 0; c < kScanCalls; ++c) {
      hits.clear();
      if (batched) {
        para.rng.bernoulli_hits(para_thr, kScanDraws, hits);
      } else {
        para.scan(para_thr, kScanDraws, hits);
      }
      benchmark::DoNotOptimize(hits.data());
    }
    const double elapsed = bench::HostSeconds() - t0;
    hits.push_back(para.rng.next());  // the stream position, compared too
    (batched ? scan_batched_hits : scan_member_hits) = std::move(hits);
    return elapsed / (kScanCalls * kScanDraws) * 1e9;
  };
  BestOf scan_member{[&] { return time_scan(false); }};
  BestOf scan_batched{[&] { return time_scan(true); }};

  // The integrity scrub after one hammered table row, on the cached
  // journal truth: with disturbance flips as the only DRAM change since
  // its last clean walk it verifies the flipped rows' entries only; one
  // extra poke of an unrelated entry (rewriting its own value) makes it
  // verify all 4096.  Only the scrub() calls are timed, in ns per scrub;
  // both sides must repair the same entries.
  ScrubRig scrub_flipped(false);
  ScrubRig scrub_poked(true);
  const auto time_scrub = [&](ScrubRig& rig) {
    constexpr int kScrubs = 64;
    double elapsed = 0;
    for (int i = 0; i < kScrubs; ++i) {
      rig.hammer();
      const double t0 = bench::HostSeconds();
      RHSD_CHECK(rig.ftl->scrub().ok());
      elapsed += bench::HostSeconds() - t0;
    }
    return elapsed / kScrubs * 1e9;
  };
  BestOf scrub_rows{[&] { return time_scrub(scrub_flipped); }};
  BestOf scrub_full{[&] { return time_scrub(scrub_poked); }};

  // The runs of every quantity interleave round-robin across the whole
  // report (~5 s).  Host speed here flips between a fast and a slow
  // state, per CPU, every 0.1-2 s, and the slow state slows some loops
  // more than others, so a ratio is stable only between fast-state
  // minima: each side needs short runs spread over more time than a
  // slow spell lasts, not a burst of its own.
  constexpr int kRounds = 25;
  std::vector<BestOf*> round = {&hammer_scalar,  &hammer_batched,
                                &trr_scalar,     &trr_batched,
                                &amp_scalar,     &amp_batched,
                                &amp_mit_scalar, &amp_mit_batched,
                                &pattern_2,      &pattern_8,
                                &pattern_64,     &pattern_1024,
                                &scrub_rows,     &scrub_full};
  for (int i = 0; i < 8; ++i) {
    round.push_back(&scan_member);
    round.push_back(&scan_batched);
  }
  for (int r = 0; r < kRounds; ++r) {
    for (BestOf* q : round) q->sample();
  }

  const double scalar_s = hammer_scalar.best;
  const double batched_s = hammer_batched.best;
  const double trr_scalar_s = trr_scalar.best;
  const double trr_batched_s = trr_batched.best;
  const double pattern_2_ns = pattern_2.best;
  const double pattern_8_ns = pattern_8.best;
  const double pattern_64_ns = pattern_64.best;
  const double pattern_1024_ns = pattern_1024.best;
  const double scan_member_ns = scan_member.best;
  const double scan_batched_ns = scan_batched.best;
  const std::uint64_t activations = batched_stats.activations;
  RHSD_CHECK_MSG(
      trr_batched_stats.trr_refreshes == trr_scalar_stats.trr_refreshes,
      "batched TRR replay diverged from scalar in the bench");
  RHSD_CHECK_MSG(trr_scalar_stats.trr_refreshes > 0,
                 "TRR bench config never fired a target refresh");
  RHSD_CHECK_MSG(scan_batched_hits == scan_member_hits,
                 "bernoulli_hits diverged from the scalar loop in the bench");
  RHSD_CHECK_MSG(scan_member_hits.size() > 1, "PARA scan bench never hit");
  RHSD_CHECK_MSG(scrub_flipped.ftl->stats().scrub_repairs ==
                     scrub_poked.ftl->stats().scrub_repairs,
                 "flip-driven scrub walk repaired differently from the full "
                 "walk in the bench");
  RHSD_CHECK_MSG(scrub_flipped.ftl->stats().scrub_repairs > 0,
                 "scrub bench never repaired an entry");
  for (const auto& sides : amp_stats) {
    RHSD_CHECK_MSG(sides[0].bitflips == sides[1].bitflips &&
                       sides[0].activations == sides[1].activations &&
                       sides[0].trr_refreshes == sides[1].trr_refreshes &&
                       sides[0].para_refreshes == sides[1].para_refreshes,
                   "batched FTL repeat diverged from scalar in the bench");
  }
  RHSD_CHECK_MSG(amp_stats[0][1].bitflips > 0,
                 "FTL repeat bench never flipped a bit");
  RHSD_CHECK_MSG(amp_stats[1][1].para_refreshes > 0,
                 "mitigated FTL repeat bench never refreshed");

  const double scalar_ns = scalar_s / (kBatches * kPairs) * 1e9;
  const double batched_ns = batched_s / (kBatches * kPairs) * 1e9;
  const double trr_scalar_ns = trr_scalar_s / (kBatches * kPairs) * 1e9;
  const double trr_batched_ns = trr_batched_s / (kBatches * kPairs) * 1e9;
  bench::BenchReport report;
  report.set("hammer_scalar_ns_per_pair", scalar_ns);
  report.set("hammer_batched_ns_per_pair", batched_ns);
  report.set("hammer_batched_speedup", scalar_ns / batched_ns);
  report.set("hammer_batched_activations_per_s",
             static_cast<double>(activations) / batched_s);
  report.set("hammer_trr_scalar_ns_per_pair", trr_scalar_ns);
  report.set("hammer_trr_batched_ns_per_pair", trr_batched_ns);
  report.set("hammer_batched_trr_speedup", trr_scalar_ns / trr_batched_ns);
  report.set("hammer_amplify_ns_per_call_scalar", amp_scalar.best);
  report.set("hammer_amplify_ns_per_call", amp_batched.best);
  report.set("hammer_amplify_speedup", amp_scalar.best / amp_batched.best);
  report.set("hammer_amplify_mitigated_ns_per_call_scalar",
             amp_mit_scalar.best);
  report.set("hammer_amplify_mitigated_ns_per_call", amp_mit_batched.best);
  report.set("hammer_amplify_mitigated_speedup",
             amp_mit_scalar.best / amp_mit_batched.best);
  report.set("hammer_pattern_ns_per_row_call_2rows", pattern_2_ns);
  report.set("hammer_pattern_ns_per_row_call_8rows", pattern_8_ns);
  report.set("hammer_pattern_ns_per_row_call_64rows", pattern_64_ns);
  report.set("hammer_pattern_ns_per_row_call_1024rows", pattern_1024_ns);
  report.set("hammer_pattern_row_cost_ratio_1024_to_64",
             pattern_1024_ns / pattern_64_ns);
  report.set("para_scan_ns_per_draw_scalar", scan_member_ns);
  report.set("para_scan_ns_per_draw", scan_batched_ns);
  report.set("para_scan_speedup", scan_member_ns / scan_batched_ns);
  report.set("scrub_walk_ns_flipped_rows", scrub_rows.best);
  report.set("scrub_walk_ns_full", scrub_full.best);
  report.set("scrub_walk_speedup", scrub_full.best / scrub_rows.best);
  report.write();
  std::printf(
      "\nhot path: scalar %.1f ns/pair, batched %.1f ns/pair "
      "(%.1fx), %.0f activations/s; with TRR %.1f -> %.1f ns/pair "
      "(%.1fx); FTL repeat %.0f -> %.0f ns/call (%.2fx), with TRR + PARA "
      "%.0f -> %.0f ns/call (%.2fx); hammer_pattern %.0f / %.0f / %.0f / "
      "%.0f ns per row-call at 2 / 8 / 64 / 1024 rows; PARA scan %.2f -> "
      "%.2f ns/draw (%.2fx); scrub %.0f -> %.0f ns (%.1fx) -> "
      "BENCH_hotpath.json\n",
      scalar_ns, batched_ns, scalar_ns / batched_ns,
      static_cast<double>(activations) / batched_s, trr_scalar_ns,
      trr_batched_ns, trr_scalar_ns / trr_batched_ns, amp_scalar.best,
      amp_batched.best, amp_scalar.best / amp_batched.best,
      amp_mit_scalar.best, amp_mit_batched.best,
      amp_mit_scalar.best / amp_mit_batched.best, pattern_2_ns, pattern_8_ns,
      pattern_64_ns, pattern_1024_ns, scan_member_ns, scan_batched_ns,
      scan_member_ns / scan_batched_ns, scrub_full.best, scrub_rows.best,
      scrub_full.best / scrub_rows.best);
}

}  // namespace
}  // namespace rhsd

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rhsd::ReportHammerHotPath();
  return 0;
}
