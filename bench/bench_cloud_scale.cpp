// N-tenant cloud scale: attacker flip probability and victim read
// latency vs background load, across tenant counts.
//
// One shared SSD hosts the paper's victim/attacker pair plus N-2
// background tenants.  All of them push traffic through the async NVMe
// event loop (deterministic round-robin arbitration): the victim
// issues hot/cold reads whose p50/p99 completion latency we measure in
// simulated time, the attacker hammers a fixed set of aggressor L2P
// rows in its own partition, and the background tenants generate
// Zipfian / bursty mixed traffic.  As the tenant count grows, the
// arbiter multiplexes more queues, background IOPS climb and victim
// tail latency stretches — while the attacker keeps flipping its
// target rows, because namespace isolation partitions the flash, not
// the shared DRAM holding the L2P table (§4.1's cloud setting measured
// end to end).
//
// Host-perf trajectory: `cloud_tenant_iops` = simulated commands
// retired per host second across the whole sweep (the event loop is
// the hot path being sized).  `loop_idle_stream_overhead` = loop host
// time per command of the victim + attacker script
// with 1022 idle queue pairs attached, over the same script without
// them: what idle streams cost arbitration.  `--quick` runs a reduced
// sweep for CI and times each sweep as the best of 10 alternating
// repeats.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "cloud/cloud_host.hpp"
#include "nvme/event_loop.hpp"
#include "sim/workload.hpp"

using namespace rhsd;

namespace {

/// 64 MiB SSD (16384 LBAs): victim and attacker keep the paper's
/// 2048-block partitions, the rest is split across background tenants.
SsdConfig ScaleConfig(std::uint32_t tenants) {
  SsdConfig c;
  c.capacity_bytes = 64 * kMiB;
  c.dram_geometry = DramGeometry{.channels = 1,
                                 .dimms_per_channel = 1,
                                 .ranks_per_dimm = 1,
                                 .banks_per_rank = 2,
                                 .rows_per_bank = 256,
                                 .row_bytes = 512};
  // Weak part so the attacker's budget per refresh window matters:
  // threshold = 2 * 10e3 * 0.064 = 1280 effective activations.
  c.dram_profile.min_rate_kaccess_s = 10.0;
  c.dram_profile.vulnerable_row_fraction = 1.0;
  c.dram_profile.max_cells_per_row = 2;
  c.dram_profile.threshold_spread = 0.5;
  c.xor_config.interleaved_bank_bits = 1;
  c.xor_config.row_remap_bits = 4;
  c.hammers_per_io = 5;
  c.host_interface = HostInterface::kTestbedVmDirect;
  c.partition_blocks = {2048, 2048};
  std::uint64_t spare = c.num_lbas() - 4096;
  if (tenants > 2) {
    const std::uint64_t per = spare / (tenants - 2);
    c.partition_blocks.insert(c.partition_blocks.end(), tenants - 2, per);
  } else {
    c.partition_blocks[1] += spare;  // attacker absorbs the spare space
  }
  c.seed = 42;
  return c;
}

struct ScaleResult {
  std::uint64_t commands = 0;
  double sim_seconds = 0.0;
  double sim_iops = 0.0;
  double victim_p50_us = 0.0;
  double victim_p99_us = 0.0;
  std::uint64_t flips = 0;
  double flip_probability = 0.0;  // flipped rows / hammered victim rows
  // Mitigation engagement counters (zero when mitigations are off).
  std::uint64_t trr_refreshes = 0;
  std::uint64_t para_refreshes = 0;

  bool operator==(const ScaleResult&) const = default;
};

/// The attacker's aggressor set: 8 slbas, one per 128-entry L2P row
/// chunk, so 8 distinct DRAM rows get hammered (16 victim neighbours).
constexpr std::uint64_t kAggressors = 8;

/// The rate-limited point's §5 token bucket: sustained cap and depth.
constexpr double kRateCapIops = 50e3;
constexpr double kRateBurst = 16;

/// Victim script: read-only hot/cold over its partition.
std::vector<WorkloadOp> VictimScript(const CloudHost& host, bool quick) {
  WorkloadConfig wc;
  wc.pattern = AccessPattern::kHotCold;
  wc.working_set = host.tenant(CloudHost::kVictimId).blocks();
  wc.write_fraction = 0.0;
  wc.seed = 1;
  return WorkloadGenerator(wc).generate(quick ? 1500 : 4000);
}

/// Attacker script: round-robin reads of the aggressor set.
std::vector<WorkloadOp> AttackerScript(bool quick) {
  std::vector<WorkloadOp> script;
  for (std::uint64_t i = 0; i < (quick ? 4000 : 20000); ++i) {
    script.push_back({false, (i % kAggressors) * 128});
  }
  return script;
}

ScaleResult RunScale(std::uint32_t tenants, bool quick,
                     bool mitigated = false, bool limited = false) {
  SsdConfig cfg = ScaleConfig(tenants);
  if (limited) {
    // §5's IO rate cap, low enough that the token bucket actually
    // stalls commands.
    cfg.rate_limit = RateLimiterConfig{kRateCapIops, kRateBurst};
  }
  if (mitigated) {
    // Production-like mitigated profile: TRR trips below the flip
    // threshold (1280 effective activations) so the attack is actually
    // blunted, PARA adds its probabilistic refreshes on top.
    cfg.dram_mitigations.trr = true;
    cfg.dram_mitigations.trr_config.activation_threshold = 1000;
    cfg.dram_mitigations.para_probability = 1.0 / 512;
  }
  CloudHost host(cfg);
  for (std::uint32_t t = 2; t < tenants; ++t) {
    auto id = host.add_tenant(
        TenantConfig{.name = "bg-" + std::to_string(t)});
    RHSD_CHECK_MSG(id.ok(), "tenant " << t << ": " << id.status());
  }
  SsdDevice& ssd = host.ssd();
  NvmeController& ctrl = ssd.controller();

  EventLoopConfig lc;
  lc.seed = 7;
  NvmeEventLoop loop(ctrl, lc);

  // The attacker's victim rows: physical same-bank neighbours of the
  // DRAM rows holding the aggressor L2P entries.  Flip probability is
  // measured against this set only — background tenants' own hot
  // traffic also disturbs rows, but that is their problem, not the
  // attacker's success rate.
  const DramGeometry& geom = ssd.dram().mapper().geometry();
  const std::uint64_t attacker_base =
      host.partition_range(CloudHost::kAttackerId).first.value();
  std::set<std::uint64_t> victim_rows;
  for (std::uint64_t a = 0; a < kAggressors; ++a) {
    const DramCoord c = ssd.dram().mapper().decode(
        ssd.ftl().layout().entry_addr(attacker_base + a * 128));
    const std::uint64_t row = c.global_row(geom);
    if (row % geom.rows_per_bank > 0) victim_rows.insert(row - 1);
    if (row % geom.rows_per_bank + 1 < geom.rows_per_bank) {
      victim_rows.insert(row + 1);
    }
  }

  constexpr std::uint32_t kDepth = 16;
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ctrl, static_cast<std::uint16_t>(t + 1), kDepth));
    loop.attach(*qps[t]);
  }

  // Scripts: the victim and attacker scripts above, plus Zipfian /
  // bursty background mixes with 10% writes.
  const std::uint64_t bg_ops = quick ? 256 : 512;
  std::vector<std::vector<WorkloadOp>> scripts(tenants);
  scripts[0] = VictimScript(host, quick);
  scripts[1] = AttackerScript(quick);
  for (std::uint32_t t = 2; t < tenants; ++t) {
    WorkloadConfig wc;
    wc.pattern = t % 2 == 0 ? AccessPattern::kZipfLike
                            : AccessPattern::kBursty;
    wc.working_set = host.tenant(t).blocks();
    wc.write_fraction = 0.1;
    wc.seed = 1000 + t;
    scripts[t] = WorkloadGenerator(wc).generate(bg_ops);
  }

  // Drive everything to completion in waves; victim read latency =
  // completion stamp minus the clock when its wave was submitted.
  std::vector<std::vector<std::uint8_t>> bufs(
      tenants, std::vector<std::uint8_t>(kBlockSize));
  std::vector<std::size_t> next(tenants, 0);
  std::vector<std::uint16_t> cid(tenants, 0);
  std::vector<std::uint64_t> victim_submit_ns(kDepth, 0);
  std::vector<std::uint64_t> latencies;
  latencies.reserve(scripts[0].size());
  ScaleResult res;
  for (;;) {
    bool pending = false;
    const std::uint64_t wave_ns = ssd.clock().now_ns();
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(
                      cid[t], t + 1, op.slba,
                      std::vector<std::uint8_t>(kBlockSize,
                                                std::uint8_t(cid[t])))
                : NvmeCommand::Read(cid[t], t + 1, op.slba, bufs[t]);
        if (!qps[t]->submit(std::move(cmd)).ok()) break;
        if (t == 0) victim_submit_ns[cid[t] % kDepth] = wave_ns;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    res.commands += loop.run_until_idle();
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (auto cqe = qps[t]->poll()) {
        RHSD_CHECK(cqe->status.ok());
        if (t == 0) {
          latencies.push_back(cqe->completed_ns -
                              victim_submit_ns[cqe->cid % kDepth]);
        }
      }
    }
  }

  std::sort(latencies.begin(), latencies.end());
  RHSD_CHECK(!latencies.empty());
  res.victim_p50_us = latencies[latencies.size() / 2] / 1e3;
  res.victim_p99_us = latencies[latencies.size() * 99 / 100] / 1e3;
  res.trr_refreshes = ssd.dram().stats().trr_refreshes;
  res.para_refreshes = ssd.dram().stats().para_refreshes;
  res.sim_seconds = ssd.clock().now_ns() * 1e-9;
  res.sim_iops = res.commands / res.sim_seconds;
  std::set<std::uint64_t> flipped_victims;
  for (const FlipEvent& f : ssd.dram().flip_events()) {
    if (victim_rows.count(f.global_row) > 0) {
      flipped_victims.insert(f.global_row);
      ++res.flips;
    }
  }
  res.flip_probability = static_cast<double>(flipped_victims.size()) /
                         static_cast<double>(victim_rows.size());
  return res;
}

// ---- mixed read/write sweep: write throughput under load ----

struct MixedResult {
  std::uint64_t commands = 0;
  std::uint64_t writes = 0;  // device-level write commands
  double sim_seconds = 0.0;

  bool operator==(const MixedResult&) const = default;
};

/// Every tenant pushes a heavy mixed workload (40% writes) through the
/// event loop: flash programs and garbage collection interleave with
/// the reads of every other tenant.
MixedResult RunMixed(std::uint32_t tenants, bool quick) {
  SsdConfig cfg = ScaleConfig(tenants);
  // Throughput sweep, not a flip experiment: a flip landing in an L2P
  // entry would turn a background read into an error.
  cfg.dram_profile = DramProfile::Invulnerable();
  CloudHost host(cfg);
  for (std::uint32_t t = 2; t < tenants; ++t) {
    auto id = host.add_tenant(
        TenantConfig{.name = "mix-" + std::to_string(t)});
    RHSD_CHECK_MSG(id.ok(), "tenant " << t << ": " << id.status());
  }
  SsdDevice& ssd = host.ssd();
  NvmeController& ctrl = ssd.controller();

  EventLoopConfig lc;
  lc.seed = 7;
  NvmeEventLoop loop(ctrl, lc);

  constexpr std::uint32_t kDepth = 16;
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ctrl, static_cast<std::uint16_t>(t + 1), kDepth));
    loop.attach(*qps[t]);
  }

  const std::uint64_t ops = quick ? 600 : 2000;
  std::vector<std::vector<WorkloadOp>> scripts(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    WorkloadConfig wc;
    constexpr AccessPattern kMixes[] = {
        AccessPattern::kRandom, AccessPattern::kZipfLike,
        AccessPattern::kHotCold, AccessPattern::kBursty};
    wc.pattern = kMixes[t % 4];
    wc.working_set = host.tenant(t).blocks();
    wc.write_fraction = 0.4;
    wc.seed = 9000 + t;
    scripts[t] = WorkloadGenerator(wc).generate(ops);
  }

  MixedResult res;
  std::vector<std::vector<std::uint8_t>> bufs(
      tenants, std::vector<std::uint8_t>(kBlockSize));
  std::vector<std::size_t> next(tenants, 0);
  std::vector<std::uint16_t> cid(tenants, 0);
  for (;;) {
    bool pending = false;
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(
                      cid[t], t + 1, op.slba,
                      std::vector<std::uint8_t>(kBlockSize,
                                                std::uint8_t(cid[t])))
                : NvmeCommand::Read(cid[t], t + 1, op.slba, bufs[t]);
        if (!qps[t]->submit(std::move(cmd)).ok()) break;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    res.commands += loop.run_until_idle();
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (auto cqe = qps[t]->poll()) {
        RHSD_CHECK(cqe->status.ok());
      }
    }
  }
  res.writes = ctrl.stats().write_cmds;
  res.sim_seconds = ssd.clock().now_ns() * 1e-9;
  return res;
}

// ---- failure domains under a seeded transport/media storm ----

struct FaultDomainResult {
  EventLoopStats loop;
  std::uint64_t injected = 0;
  std::uint64_t commands = 0;
  std::uint64_t errors = 0;
};

/// Eight tenants ride a seeded drop/timeout/NAND storm through the
/// loop; the counters show the fault-domain machinery working:
/// exhausted retries quarantining only the unlucky tenant, and
/// penalties draining again.
FaultDomainResult RunFaultDomains() {
  constexpr std::uint32_t kStormTenants = 8;
  constexpr std::uint32_t kDepth = 8;
  constexpr std::uint64_t kCmds = 1500;
  SsdConfig cfg = SsdConfig::DemoSetup(16 * kMiB);
  cfg.dram_profile = DramProfile::Invulnerable();
  cfg.partition_blocks.assign(kStormTenants,
                              cfg.num_lbas() / kStormTenants);
  FaultRates rates;
  rates.nvme_drop = 0.01;
  rates.nvme_timeout = 0.005;
  rates.nand_read = 0.002;
  cfg.fault_plan =
      FaultPlan::Random(/*seed=*/42, rates, /*horizon=*/20000);
  SsdDevice ssd(cfg);

  EventLoopConfig lc;
  lc.seed = 7;
  NvmeEventLoop loop(ssd.controller(), lc);
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < kStormTenants; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ssd.controller(), static_cast<std::uint16_t>(t + 1), kDepth));
    loop.attach(*qps[t]);
  }
  std::vector<std::vector<WorkloadOp>> scripts(kStormTenants);
  for (std::uint32_t t = 0; t < kStormTenants; ++t) {
    WorkloadConfig wc;
    wc.pattern =
        t % 2 == 0 ? AccessPattern::kZipfLike : AccessPattern::kBursty;
    wc.working_set = cfg.num_lbas() / kStormTenants;
    wc.write_fraction = 0.2;
    wc.seed = 4000 + t;
    scripts[t] = WorkloadGenerator(wc).generate(kCmds);
  }

  FaultDomainResult res;
  std::vector<std::vector<std::uint8_t>> bufs(
      kStormTenants, std::vector<std::uint8_t>(kBlockSize));
  std::vector<std::size_t> next(kStormTenants, 0);
  std::vector<std::uint16_t> cid(kStormTenants, 0);
  for (;;) {
    bool pending = false;
    for (std::uint32_t t = 0; t < kStormTenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(
                      cid[t], t + 1, op.slba,
                      std::vector<std::uint8_t>(kBlockSize,
                                                std::uint8_t(cid[t])))
                : NvmeCommand::Read(cid[t], t + 1, op.slba, bufs[t]);
        if (!qps[t]->submit(std::move(cmd)).ok()) break;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    res.commands += loop.run_until_idle();
    for (std::uint32_t t = 0; t < kStormTenants; ++t) {
      while (auto cqe = qps[t]->poll()) {
        if (!cqe->status.ok()) ++res.errors;
      }
    }
  }
  res.loop = loop.stats();
  res.injected = ssd.fault_injector()->log().size();
  return res;
}

// ---- arbitration cost of idle streams: loop-time A/B ----

struct IdleStreamResult {
  std::uint64_t commands = 0;
  double loop_s = 0.0;       // host time inside run_until_idle only
  std::uint64_t digest = 0;  // every completion, in poll order
};

/// The victim + attacker scripts on a 2-tenant host through the
/// event loop, with `idle` extra queue pairs attached that never
/// submit.  The simulated outputs cannot depend on `idle`; the host
/// time per command shows what idle streams cost arbitration.
IdleStreamResult RunIdleStreams(std::uint32_t idle, bool quick) {
  CloudHost host(ScaleConfig(2));
  NvmeController& ctrl = host.ssd().controller();
  EventLoopConfig lc;
  lc.seed = 7;
  NvmeEventLoop loop(ctrl, lc);
  constexpr std::uint32_t kDepth = 16;
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < 2 + idle; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ctrl, static_cast<std::uint16_t>(t + 1), kDepth));
    loop.attach(*qps[t]);
  }
  const std::vector<std::vector<WorkloadOp>> scripts = {
      VictimScript(host, quick), AttackerScript(quick)};
  std::vector<std::vector<std::uint8_t>> bufs(
      2, std::vector<std::uint8_t>(kBlockSize));
  std::size_t next[2] = {0, 0};
  IdleStreamResult res;
  for (;;) {
    bool pending = false;
    for (std::uint32_t t = 0; t < 2; ++t) {
      while (next[t] < scripts[t].size() &&
             qps[t]
                 ->submit(NvmeCommand::Read(
                     static_cast<std::uint16_t>(next[t]), t + 1,
                     scripts[t][next[t]].slba, bufs[t]))
                 .ok()) {
        ++next[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    const double t0 = bench::HostSeconds();
    res.commands += loop.run_until_idle();
    res.loop_s += bench::HostSeconds() - t0;
    for (std::uint32_t t = 0; t < 2; ++t) {
      while (auto cqe = qps[t]->poll()) {
        res.digest = Mix64(res.digest ^ (std::uint64_t{t} << 16 | cqe->cid) ^
                           Mix64(cqe->completed_ns) ^
                           static_cast<std::uint64_t>(cqe->status.code()));
      }
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::vector<std::uint32_t> counts =
      quick ? std::vector<std::uint32_t>{2, 8, 32}
            : std::vector<std::uint32_t>{2, 4, 16, 64, 256, 1024};

  const std::vector<std::uint32_t> mixed_counts =
      quick ? std::vector<std::uint32_t>{4, 16}
            : std::vector<std::uint32_t>{4, 16, 64};

  // The three throughput sweeps: read-heavy, the same with TRR + PARA,
  // and mixed read/write.  --quick (CI) times each one several times,
  // alternating between them, and keeps each one's fastest: a quick
  // sweep lasts ~0.02 s, so one timing tracks the host's speed state
  // more than the loop's.  Every repeat must simulate the same results.
  const int reps = quick ? 10 : 1;
  std::vector<ScaleResult> scale;
  std::vector<ScaleResult> mitigated;
  std::vector<MixedResult> mixed;
  double elapsed_s = 0.0;
  double mit_elapsed_s = 0.0;
  double mixed_elapsed_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto timed = [rep](double& best_s, auto&& sweep) {
      const double t0 = bench::HostSeconds();
      auto results = sweep();
      const double s = bench::HostSeconds() - t0;
      if (rep == 0 || s < best_s) best_s = s;
      return results;
    };
    const auto scale_sweep = [&](bool with_mitigations) {
      std::vector<ScaleResult> results;
      for (const std::uint32_t tenants : counts) {
        results.push_back(RunScale(tenants, quick, with_mitigations));
      }
      return results;
    };
    const auto s = timed(elapsed_s, [&] { return scale_sweep(false); });
    const auto m = timed(mit_elapsed_s, [&] { return scale_sweep(true); });
    const auto x = timed(mixed_elapsed_s, [&] {
      std::vector<MixedResult> results;
      for (const std::uint32_t tenants : mixed_counts) {
        results.push_back(RunMixed(tenants, quick));
      }
      return results;
    });
    if (rep == 0) {
      scale = s;
      mitigated = m;
      mixed = x;
    }
    RHSD_CHECK_MSG(s == scale && m == mitigated && x == mixed,
                   "a repeated sweep simulated different results");
  }

  std::printf("== N-tenant cloud host: flips + victim latency vs "
              "background load ==\n");
  std::printf("(async event loop, round-robin arbitration%s)\n\n",
              quick ? ", --quick" : "");
  std::printf("%7s | %8s | %9s | %9s %9s | %5s %9s\n", "tenants", "cmds",
              "sim-kIOPS", "p50-us", "p99-us", "flips", "flip-prob");
  std::printf("%.*s\n", 75,
              "----------------------------------------------------------"
              "--------------------------");

  std::uint64_t total_commands = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const ScaleResult& r = scale[i];
    total_commands += r.commands;
    std::printf("%7u | %8llu | %9.1f | %9.2f %9.2f | %5llu %9.2f\n",
                counts[i], static_cast<unsigned long long>(r.commands),
                r.sim_iops / 1e3, r.victim_p50_us, r.victim_p99_us,
                static_cast<unsigned long long>(r.flips),
                r.flip_probability);
  }

  std::printf(
      "\nshape check: background load grows with the tenant count and "
      "the\nvictim's p99 stretches (noisy neighbours in the completion "
      "stream),\nyet the attacker keeps flipping its target rows — "
      "namespace\nisolation partitions the flash, not the DRAM holding "
      "the L2P table.\n");
  std::printf("\nhost throughput: %.0f simulated cmds/s (%llu cmds in "
              "%.2f s, best of %d)\n",
              total_commands / elapsed_s,
              static_cast<unsigned long long>(total_commands), elapsed_s,
              reps);

  // Mitigated sweep: the same hosts with TRR + PARA enabled; the
  // refresh counters show both mitigations engaged.
  std::printf("\n== mitigated hosts (TRR @1000 acts + PARA 1/512) ==\n\n");
  std::printf("%7s | %8s | %9s | %8s %8s | %5s\n", "tenants", "cmds",
              "sim-kIOPS", "trr-ref", "para-ref", "flips");
  std::printf("%.*s\n", 63,
              "----------------------------------------------------------"
              "--------------------------");
  const std::uint32_t limited_tenants = quick ? 8u : 16u;
  double unlimited_sim_iops = 0.0;  // the mitigated host at that count
  std::uint64_t mit_commands = 0;
  std::uint64_t mit_trr_refreshes = 0;
  std::uint64_t mit_para_refreshes = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const ScaleResult& r = mitigated[i];
    mit_commands += r.commands;
    mit_trr_refreshes += r.trr_refreshes;
    mit_para_refreshes += r.para_refreshes;
    if (counts[i] == limited_tenants) unlimited_sim_iops = r.sim_iops;
    std::printf("%7u | %8llu | %9.1f | %8llu %8llu | %5llu\n", counts[i],
                static_cast<unsigned long long>(r.commands),
                r.sim_iops / 1e3,
                static_cast<unsigned long long>(r.trr_refreshes),
                static_cast<unsigned long long>(r.para_refreshes),
                static_cast<unsigned long long>(r.flips));
  }
  RHSD_CHECK_MSG(mit_trr_refreshes > 0 && mit_para_refreshes > 0,
                 "mitigated sweep never engaged TRR/PARA");
  std::printf("\nmitigated throughput: %.0f simulated cmds/s (%llu cmds "
              "in %.2f s, best of %d)\n",
              mit_commands / mit_elapsed_s,
              static_cast<unsigned long long>(mit_commands),
              mit_elapsed_s, reps);

  // One rate-limited point on top: the token bucket must hold the
  // mitigated host at that tenant count under its cap — never more than
  // a full bucket plus the sustained rate over the simulated run.
  {
    const ScaleResult rl = RunScale(limited_tenants, quick,
                                    /*mitigated=*/true, /*limited=*/true);
    RHSD_CHECK_MSG(unlimited_sim_iops > kRateCapIops,
                   "the unlimited host never exceeds the rate cap");
    RHSD_CHECK_MSG(static_cast<double>(rl.commands) <=
                       kRateBurst + kRateCapIops * rl.sim_seconds,
                   "rate-limited point exceeded its token bucket");
    std::printf("rate-limited point (%u tenants, %.0fk IOPS cap): %.1f "
                "sim-kIOPS (%.1f uncapped)\n",
                limited_tenants, kRateCapIops / 1e3, rl.sim_iops / 1e3,
                unlimited_sim_iops / 1e3);
  }

  // Mixed read/write sweep: writes under multi-tenant load.
  std::printf("\n== mixed read/write (40%% writes) ==\n\n");
  std::printf("%7s | %8s %8s\n", "tenants", "cmds", "writes");
  std::printf("%.*s\n", 27,
              "----------------------------------------------------------"
              "--------------------------");
  std::uint64_t mixed_writes = 0;
  for (std::size_t i = 0; i < mixed_counts.size(); ++i) {
    const MixedResult& m = mixed[i];
    mixed_writes += m.writes;
    std::printf("%7u | %8llu %8llu\n", mixed_counts[i],
                static_cast<unsigned long long>(m.commands),
                static_cast<unsigned long long>(m.writes));
  }
  std::printf("\nwrite throughput: %.0f simulated writes/s of host time "
              "(%llu writes in %.2f s, best of %d)\n",
              mixed_writes / mixed_elapsed_s,
              static_cast<unsigned long long>(mixed_writes),
              mixed_elapsed_s, reps);

  // Failure domains: the same loop under a seeded fault storm.
  const FaultDomainResult fd = RunFaultDomains();
  std::printf("\n== failure domains: 8 tenants under a seeded "
              "drop/timeout/NAND storm ==\n\n");
  std::printf("  commands retired     %10llu  (%llu completion errors)\n",
              static_cast<unsigned long long>(fd.commands),
              static_cast<unsigned long long>(fd.errors));
  std::printf("  faults injected      %10llu\n",
              static_cast<unsigned long long>(fd.injected));
  std::printf("  quarantines          %10llu  (+%llu penalty releases)\n",
              static_cast<unsigned long long>(fd.loop.quarantines),
              static_cast<unsigned long long>(fd.loop.quarantine_releases));
  std::printf("  degraded rejections  %10llu\n",
              static_cast<unsigned long long>(fd.loop.degraded_rejections));
  std::printf("  device transitions   %10llu\n",
              static_cast<unsigned long long>(fd.loop.device_transitions));

  // Idle streams: what 1022 attached-but-idle queue pairs cost the
  // loop per command of a 2-tenant workload.  Runs alternate
  // and each side keeps its fastest, which filters host noise.
  constexpr std::uint32_t kIdle = 1022;
  constexpr int kReps = 5;
  IdleStreamResult lean;
  IdleStreamResult crowded;
  for (int rep = 0; rep < kReps; ++rep) {
    const IdleStreamResult a = RunIdleStreams(0, quick);
    const IdleStreamResult b = RunIdleStreams(kIdle, quick);
    RHSD_CHECK_MSG(a.digest == b.digest && a.commands == b.commands,
                   "idle streams changed the simulated outputs");
    if (rep == 0 || a.loop_s < lean.loop_s) lean = a;
    if (rep == 0 || b.loop_s < crowded.loop_s) crowded = b;
  }
  const double lean_ns = lean.loop_s * 1e9 / lean.commands;
  const double crowded_ns = crowded.loop_s * 1e9 / crowded.commands;
  std::printf("\n== idle streams: event loop, victim + attacker "
              "script (%llu cmds) ==\n\n",
              static_cast<unsigned long long>(lean.commands));
  std::printf("  loop ns/cmd, 2 streams              %8.1f\n", lean_ns);
  std::printf("  loop ns/cmd, 2 + %u idle streams  %8.1f\n", kIdle,
              crowded_ns);
  std::printf("  idle-stream overhead                %8.2fx  (best of %d "
              "alternating runs, outputs identical)\n",
              crowded_ns / lean_ns, kReps);

  bench::BenchReport report;
  report.set("loop_ns_per_cmd_2", lean_ns);
  report.set("loop_ns_per_cmd_2_plus_1022_idle", crowded_ns);
  report.set("loop_idle_stream_overhead", crowded_ns / lean_ns);
  report.set("cloud_tenant_iops", total_commands / elapsed_s);
  report.set("cloud_mitigated_iops", mit_commands / mit_elapsed_s);
  report.set("cloud_write_iops", mixed_writes / mixed_elapsed_s);
  report.set("cloud_fault_quarantines",
             static_cast<double>(fd.loop.quarantines));
  report.set("cloud_fault_injected", static_cast<double>(fd.injected));
  report.write();
  return 0;
}
