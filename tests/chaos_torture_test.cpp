// Multi-tenant chaos torture for the event loop's fault domains: eight
// tenants of mixed bursty/sequential traffic ride through seeded
// FaultPlan::Random storms (NAND faults, DRAM bit errors, NVMe
// timeouts/drops, power losses with reboot + journal recovery) while
// the harness checks the failure-domain invariants:
//
//   1. No cross-tenant corruption: every read a tenant completes
//      returns its own data (or zeros for never-written blocks, or an
//      explicit error) — never another tenant's bytes.
//   2. Acknowledged writes survive power loss intact, or the recovery
//      explicitly names their LBA in lost_lbas.
//   3. The whole run — statuses, completion times, recovered state —
//      is a pure function of the seed.
//
// Each storm prints a CHAOS_DIGEST line (an order-sensitive FNV-1a hash
// of every completion and the final device view); ci.sh runs the binary
// twice and diffs those lines to check invariant 3 across processes.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nvme/event_loop.hpp"
#include "sim/workload.hpp"
#include "ssd/ssd_device.hpp"
#include "test_util.hpp"

// Fixed storm seed; ci.sh pins it explicitly via -DRHSD_CHAOS_SEED to
// make the back-to-back determinism diff meaningful.
#ifndef RHSD_CHAOS_SEED
#define RHSD_CHAOS_SEED 2026ull
#endif

namespace rhsd {
namespace {

constexpr std::uint32_t kTenants = 8;
constexpr std::uint32_t kDepth = 8;
constexpr std::uint64_t kCmdsPerTenant = 150;

/// Order-sensitive FNV-1a over everything observable.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void add_bytes(const std::vector<std::uint8_t>& bytes) {
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
};

/// Tenant `t`'s marker block for (slba, cid): tenant-unique bytes, so a
/// cross-tenant misdirection can never reproduce the expected pattern.
std::vector<std::uint8_t> TenantBlock(std::uint32_t t, std::uint64_t slba,
                                      std::uint16_t cid) {
  std::vector<std::uint8_t> block(kBlockSize);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] =
        static_cast<std::uint8_t>(0x11 + t * 53 + slba * 17 + cid * 7 + i);
  }
  return block;
}

/// Mixed per-tenant scripts: bursty and sequential tenants alternate
/// with random/hot-cold/zipf ones, all deterministic per seed.
std::vector<std::vector<WorkloadOp>> ChaosScripts(std::uint64_t per_tenant,
                                                  std::uint64_t working_set,
                                                  std::uint64_t seed) {
  constexpr AccessPattern kPatterns[] = {
      AccessPattern::kBursty,   AccessPattern::kSequential,
      AccessPattern::kRandom,   AccessPattern::kBursty,
      AccessPattern::kHotCold,  AccessPattern::kSequential,
      AccessPattern::kZipfLike, AccessPattern::kBursty};
  std::vector<std::vector<WorkloadOp>> scripts(kTenants);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    WorkloadConfig wc;
    wc.pattern = kPatterns[t % 8];
    wc.working_set = working_set;
    wc.write_fraction = 0.4;
    wc.seed = seed * 997 + t;
    WorkloadGenerator gen(wc);
    scripts[t].reserve(per_tenant);
    for (std::uint64_t i = 0; i < per_tenant; ++i) {
      scripts[t].push_back(gen.next());
    }
  }
  return scripts;
}

/// Per-tenant content model: the cid of the last acknowledged write per
/// slba; kUnknown after a failed/ambiguous write until the next OK one.
constexpr std::uint32_t kUnknown = ~0u;
using TenantModel = std::map<std::uint64_t, std::uint32_t>;

struct StormResult {
  std::vector<std::string> violations;  // invariant failures (empty = ok)
  std::uint64_t digest = 0;
  EventLoopStats loop;
  std::uint64_t injected = 0;       // faults actually fired
  std::uint64_t trr_refreshes = 0;  // device-total TRR refreshes
  std::uint64_t para_refreshes = 0;
};

/// Drive the 8-tenant chaos scripts through one SsdDevice under the
/// given storm, checking invariant 1 on every completion.  `check_data`
/// off for storms whose faults can legitimately misdirect reads (DRAM
/// bit errors in the L2P are the paper's own attack, not a harness
/// bug).
StormResult RunStorm(const FaultPlan& plan, std::uint64_t seed,
                     bool check_data,
                     std::uint32_t retry_attempts = 1,
                     bool mitigated = false) {
  SsdConfig cfg = test::SmallSsd();
  cfg.partition_blocks.assign(kTenants, cfg.num_lbas() / kTenants);
  cfg.dram_profile = DramProfile::Invulnerable();
  cfg.fault_plan = plan;
  if (mitigated) {
    // TRR + PARA live through the storm: their refresh counts join the
    // digest.
    cfg.dram_mitigations.trr = true;
    cfg.dram_mitigations.trr_config.activation_threshold = 100;
    cfg.dram_mitigations.para_probability = 1.0 / 64;
  }
  const std::uint64_t per = cfg.num_lbas() / kTenants;

  SsdDevice ssd(cfg);
  EventLoopConfig lc;
  lc.seed = seed;
  NvmeEventLoop loop(ssd.controller(), lc);

  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ssd.controller(), static_cast<std::uint16_t>(t + 1), kDepth));
    NvmeRetryPolicy rp;
    rp.max_attempts = retry_attempts;
    qps[t]->set_retry_policy(rp);
    loop.attach(*qps[t]);
  }

  const auto scripts = ChaosScripts(kCmdsPerTenant, per, seed);
  StormResult res;
  Digest dig;
  std::vector<TenantModel> model(kTenants);
  std::vector<std::size_t> next(kTenants, 0);
  std::vector<std::uint16_t> cid(kTenants, 0);
  // One read buffer per in-flight slot (slot = cid % depth; a slot is
  // only reused after its completion was polled).
  std::vector<std::vector<std::vector<std::uint8_t>>> bufs(kTenants);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    bufs[t].assign(kDepth, std::vector<std::uint8_t>(kBlockSize));
  }
  for (;;) {
    bool pending = false;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(cid[t], t + 1, op.slba,
                                     TenantBlock(t, op.slba, cid[t]))
                : NvmeCommand::Read(cid[t], t + 1, op.slba,
                                    bufs[t][cid[t] % kDepth]);
        if (!qps[t]->submit(std::move(cmd)).ok()) break;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    loop.run_until_idle();
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      while (auto cqe = qps[t]->poll()) {
        // Completions arrive in submission order, so the cid indexes
        // the tenant's script directly.
        const WorkloadOp& op = scripts[t][cqe->cid];
        dig.add(t);
        dig.add(cqe->cid);
        dig.add(static_cast<std::uint64_t>(cqe->status.code()));
        dig.add(cqe->completed_ns);
        if (op.is_write) {
          model[t][op.slba] = cqe->status.ok() ? cqe->cid : kUnknown;
          continue;
        }
        if (!cqe->status.ok()) continue;  // faulted read: no data claim
        if (!check_data) continue;
        const auto it = model[t].find(op.slba);
        const std::vector<std::uint8_t>& got = bufs[t][cqe->cid % kDepth];
        if (it == model[t].end()) {
          // Never written by this tenant: must read as zeros, not as
          // any tenant's marker bytes.
          for (const std::uint8_t b : got) {
            if (b != 0) {
              res.violations.push_back(
                  "tenant " + std::to_string(t) + " slba " +
                  std::to_string(op.slba) + ": unwritten block not zero");
              break;
            }
          }
        } else if (it->second != kUnknown &&
                   got != TenantBlock(t, op.slba,
                                      static_cast<std::uint16_t>(
                                          it->second))) {
          res.violations.push_back("tenant " + std::to_string(t) +
                                   " slba " + std::to_string(op.slba) +
                                   ": read returned foreign/stale bytes");
        }
      }
    }
  }
  // Fold the final authoritative device view into the digest (detached
  // from the injector so verification cannot consume plan ops).
  ssd.controller().set_fault_injector(nullptr);
  ssd.ftl().set_fault_injector(nullptr);
  ssd.dram().set_fault_injector(nullptr);
  ssd.nand().set_fault_injector(nullptr);
  std::vector<std::uint8_t> out(kBlockSize);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    for (const auto& [slba, last] : model[t]) {
      const Status s = ssd.controller().read(t + 1, slba, out);
      dig.add(static_cast<std::uint64_t>(s.code()));
      if (s.ok()) dig.add_bytes(out);
    }
  }
  if (ssd.fault_injector() != nullptr) {
    for (const InjectionRecord& r : ssd.fault_injector()->log()) {
      dig.add(static_cast<std::uint64_t>(r.cls));
      dig.add(r.op_index);
    }
    res.injected = ssd.fault_injector()->log().size();
  }
  // Mitigation machinery state is part of the determinism contract.
  res.trr_refreshes = ssd.dram().stats().trr_refreshes;
  res.para_refreshes = ssd.dram().stats().para_refreshes;
  dig.add(res.trr_refreshes);
  dig.add(res.para_refreshes);
  res.digest = dig.h;
  res.loop = loop.stats();
  return res;
}

void PrintDigest(const std::string& storm, std::uint64_t seed,
                 std::uint64_t digest) {
  std::cout << "CHAOS_DIGEST storm=" << storm << " seed=" << seed
            << " digest=" << std::hex << digest << std::dec << "\n";
}

// Storm 1: NAND faults (read/program/erase) plus a transport storm,
// with data checking on — media and transport faults surface as error
// statuses or retries, never as wrong bytes, and never cross tenants.
TEST(ChaosTorture, MediaAndTransportStormKeepsTenantsIsolated) {
  const std::uint64_t seed = RHSD_CHAOS_SEED;
  FaultRates rates;
  rates.nand_read = 0.01;
  rates.nand_program = 0.01;
  rates.nand_erase = 0.003;
  rates.nvme_timeout = 0.008;
  rates.nvme_drop = 0.008;
  const FaultPlan plan = FaultPlan::Random(seed, rates, /*horizon=*/1500);
  const StormResult storm = RunStorm(plan, seed, /*check_data=*/true,
                                     /*retry_attempts=*/2);
  EXPECT_GT(storm.injected, 0u) << "storm never fired";
  for (const std::string& v : storm.violations) ADD_FAILURE() << v;
  PrintDigest("media_transport", seed, storm.digest);
}

// Storm 2: a dense retry-defeating transport storm drives tenants into
// quarantine; the loop must keep every other tenant flowing.
TEST(ChaosTorture, TransportStormQuarantinesWithoutCollateral) {
  const std::uint64_t seed = RHSD_CHAOS_SEED + 1;
  FaultRates rates;
  rates.nvme_drop = 0.04;
  rates.nvme_timeout = 0.02;
  const FaultPlan plan = FaultPlan::Random(seed, rates, /*horizon=*/1500);
  const StormResult storm = RunStorm(plan, seed, /*check_data=*/true);
  EXPECT_GT(storm.loop.quarantines, 0u) << "storm never exhausted a retry";
  for (const std::string& v : storm.violations) ADD_FAILURE() << v;
  PrintDigest("transport_quarantine", seed, storm.digest);
}

// Storm 3: DRAM bit errors in the L2P region — the physical analogue
// of the paper's hammer attack.  Misdirected reads are the *expected*
// device behaviour here, so the invariant is pure determinism: the
// corruption cascade's digest must repeat run after run.
TEST(ChaosTorture, DramErrorCascadeIsDeterministic) {
  const std::uint64_t seed = RHSD_CHAOS_SEED + 2;
  FaultRates rates;
  rates.dram_bit_error = 0.01;
  rates.nand_read = 0.005;
  rates.nvme_drop = 0.005;
  const FaultPlan plan = FaultPlan::Random(seed, rates, /*horizon=*/1500);
  const StormResult storm = RunStorm(plan, seed, /*check_data=*/false);
  EXPECT_GT(storm.injected, 0u);
  PrintDigest("dram_cascade", seed, storm.digest);
}

// Storm 4: the media/transport mix with TRR + PARA live, with the
// refresh counts folded into the digest.
TEST(ChaosTorture, MitigatedStormStaysDeterministic) {
  const std::uint64_t seed = RHSD_CHAOS_SEED + 4;
  FaultRates rates;
  rates.nand_read = 0.01;
  rates.nvme_timeout = 0.008;
  rates.nvme_drop = 0.008;
  const FaultPlan plan = FaultPlan::Random(seed, rates, /*horizon=*/1500);
  const StormResult storm = RunStorm(plan, seed, /*check_data=*/true,
                                     /*retry_attempts=*/2,
                                     /*mitigated=*/true);
  EXPECT_GT(storm.injected, 0u) << "storm never fired";
  EXPECT_GT(storm.trr_refreshes, 0u) << "TRR never engaged";
  EXPECT_GT(storm.para_refreshes, 0u) << "PARA never engaged";
  for (const std::string& v : storm.violations) ADD_FAILURE() << v;
  PrintDigest("mitigated_mix", seed, storm.digest);
}

// ---------------------------------------------------------------------
// Storm 5: power losses mid-chaos.  Needs a component-level rig (the
// NAND must survive the reboot), a journal, and a recovery loop.

constexpr std::uint64_t kPlTenants = 8;
constexpr std::uint64_t kLbasPerTenant = 48;
constexpr std::uint64_t kPlLbas = kPlTenants * kLbasPerTenant;

struct ChaosRig {
  explicit ChaosRig(FaultPlan plan) : injector(std::move(plan)) {
    reboot(/*first_boot=*/true);
  }

  void reboot(bool first_boot = false) {
    qps.clear();
    ctrl.reset();
    ftl.reset();
    DramConfig dc;
    dc.geometry = test::SmallDram();
    dc.profile = DramProfile::Invulnerable();
    dram = std::make_unique<DramDevice>(dc, MakeLinearMapper(dc.geometry),
                                        clock);
    if (first_boot) {
      nand = std::make_unique<NandDevice>(
          NandGeometry{.channels = 1,
                       .dies_per_channel = 1,
                       .planes_per_die = 1,
                       .blocks_per_plane = 64,
                       .pages_per_block = 16,
                       .page_bytes = kBlockSize});
    }
    FtlConfig fc;
    fc.num_lbas = kPlLbas;
    fc.hammers_per_io = 1;
    fc.journal.enabled = true;
    // Exercise the proactive epoch cadence under the storm too.
    fc.journal.snapshot_every_records = 64;
    ftl = std::make_unique<Ftl>(fc, *nand, *dram);
    ftl->set_fault_injector(&injector);
    NvmeConfig nc;
    for (std::uint64_t t = 0; t < kPlTenants; ++t) {
      nc.namespaces.push_back(NvmeNamespaceConfig{
          Lba(t * kLbasPerTenant), kLbasPerTenant});
    }
    nc.iops = IopsModel(1e6);
    ctrl = std::make_unique<NvmeController>(nc, *ftl, clock);
    for (std::uint64_t t = 0; t < kPlTenants; ++t) {
      qps.push_back(std::make_unique<NvmeQueuePair>(
          *ctrl, static_cast<std::uint16_t>(t + 1), kDepth));
    }
  }

  SimClock clock;
  FaultInjector injector;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<NandDevice> nand;
  std::unique_ptr<Ftl> ftl;
  std::unique_ptr<NvmeController> ctrl;
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
};

/// Run the chaos scripts through lives separated by power losses:
/// submit, run, and whenever the device dies, reboot + recover and
/// verify every acknowledged write is intact or named in lost_lbas.
StormResult RunPowerLossStorm(const FaultPlan& plan, std::uint64_t seed) {
  ChaosRig rig(plan);
  const auto scripts =
      ChaosScripts(/*per_tenant=*/80, kLbasPerTenant, seed);
  StormResult res;
  Digest dig;
  std::vector<TenantModel> model(kPlTenants);
  std::vector<std::size_t> next(kPlTenants, 0);
  std::vector<std::uint16_t> cid(kPlTenants, 0);
  std::vector<std::vector<std::vector<std::uint8_t>>> bufs(kPlTenants);
  for (std::uint64_t t = 0; t < kPlTenants; ++t) {
    bufs[t].assign(kDepth, std::vector<std::uint8_t>(kBlockSize));
  }

  int lives = 0;
  // The loop object is rebuilt each life: queue pairs (and the
  // controller they reference) are recreated on reboot.
  for (;;) {
    EventLoopConfig lc;
    lc.seed = seed;
    NvmeEventLoop loop(*rig.ctrl, lc);
    for (std::uint64_t t = 0; t < kPlTenants; ++t) {
      loop.attach(*rig.qps[t]);
    }
    bool all_done = false;
    for (;;) {
      bool pending = false;
      for (std::uint64_t t = 0; t < kPlTenants; ++t) {
        while (next[t] < scripts[t].size()) {
          const WorkloadOp& op = scripts[t][next[t]];
          NvmeCommand cmd =
              op.is_write
                  ? NvmeCommand::Write(
                        cid[t], static_cast<std::uint32_t>(t + 1), op.slba,
                        TenantBlock(static_cast<std::uint32_t>(t), op.slba,
                                    cid[t]))
                  : NvmeCommand::Read(cid[t],
                                      static_cast<std::uint32_t>(t + 1),
                                      op.slba, bufs[t][cid[t] % kDepth]);
          if (!rig.qps[t]->submit(std::move(cmd)).ok()) break;
          ++next[t];
          ++cid[t];
        }
        pending = pending || next[t] < scripts[t].size() ||
                  rig.qps[t]->sq_inflight() > 0;
      }
      if (!pending) {
        all_done = true;
        break;
      }
      loop.run_until_idle();
      for (std::uint64_t t = 0; t < kPlTenants; ++t) {
        while (auto cqe = rig.qps[t]->poll()) {
          const WorkloadOp& op = scripts[t][cqe->cid];
          dig.add(t);
          dig.add(cqe->cid);
          dig.add(static_cast<std::uint64_t>(cqe->status.code()));
          if (op.is_write) {
            model[t][op.slba] = cqe->status.ok() ? cqe->cid : kUnknown;
          }
        }
      }
      if (rig.ftl->powered_off()) break;
    }
    if (all_done && !rig.ftl->powered_off()) break;

    // Power loss: reboot, recover, and audit every acknowledged write.
    ++lives;
    dig.add(0xDEADull);
    rig.reboot();
    FtlRecoveryReport report;
    const Status rs = rig.ftl->recover(&report);
    if (!rs.ok()) {
      res.violations.push_back("life " + std::to_string(lives) +
                               ": recover failed: " + rs.to_string());
      break;
    }
    dig.add(report.lost_lbas.size());
    std::vector<bool> lost(kPlLbas, false);
    for (const std::uint64_t lba : report.lost_lbas) lost[lba] = true;
    rig.ftl->set_fault_injector(nullptr);  // audit reads consume no ops
    std::vector<std::uint8_t> out(kBlockSize);
    for (std::uint64_t t = 0; t < kPlTenants; ++t) {
      for (auto& [slba, last] : model[t]) {
        if (last == kUnknown) continue;
        if (lost[t * kLbasPerTenant + slba]) {
          last = kUnknown;  // explicitly reported; stop tracking
          continue;
        }
        const Status s = rig.ctrl->read(
            static_cast<std::uint32_t>(t + 1), slba, out);
        if (!s.ok() ||
            out != TenantBlock(static_cast<std::uint32_t>(t), slba,
                               static_cast<std::uint16_t>(last))) {
          res.violations.push_back(
              "life " + std::to_string(lives) + ": tenant " +
              std::to_string(t) + " slba " + std::to_string(slba) +
              ": acknowledged write neither intact nor in lost_lbas");
        }
      }
    }
    rig.ftl->set_fault_injector(&rig.injector);
    if (lives > 16) {
      res.violations.push_back("reboot livelock");
      break;
    }
  }
  dig.add(static_cast<std::uint64_t>(lives));
  for (std::uint64_t t = 0; t < kPlTenants; ++t) {
    for (const auto& [slba, last] : model[t]) {
      dig.add(slba);
      dig.add(last);
    }
  }
  res.digest = dig.h;
  res.injected = rig.injector.log().size();
  return res;
}

TEST(ChaosTorture, PowerLossRebootLoopPreservesAcknowledgedWrites) {
  const std::uint64_t seed = RHSD_CHAOS_SEED + 3;
  FaultRates rates;
  rates.power_losses = 3.0;
  const FaultPlan plan = FaultPlan::Random(seed, rates, /*horizon=*/600);
  const StormResult storm = RunPowerLossStorm(plan, seed);
  EXPECT_GT(storm.injected, 0u) << "no power loss fired";
  for (const std::string& v : storm.violations) ADD_FAILURE() << v;
  PrintDigest("power_loss", seed, storm.digest);
}

}  // namespace
}  // namespace rhsd
