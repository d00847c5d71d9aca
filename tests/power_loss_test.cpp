// Power-loss torture: crash the firmware at *every* host IO index of a
// deterministic trace and prove Ftl::recover() reconstructs exactly the
// L2P state the no-crash reference had at that prefix (or names the
// lost LBAs explicitly).  Crash indices run through exec::RunTrials, so
// the sweep also pins thread-count invariance of the recovery path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exec/experiment_engine.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_injector.hpp"
#include "fs/fsck.hpp"
#include "ftl/ftl.hpp"
#include "nvme/event_loop.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

constexpr std::uint64_t kNumLbas = 64;
constexpr std::uint64_t kTraceLen = 512;
constexpr std::uint64_t kTraceSeed = 0x70CC;

// One host operation of the torture trace.
struct TraceOp {
  enum class Kind { kWrite, kTrim, kRead };
  Kind kind = Kind::kWrite;
  std::uint64_t lba = 0;
  std::uint8_t fill = 0;
};

// The trace is a pure function of the seed: mostly writes (so the
// journal and GC stay busy on the small geometry), some trims (the
// no-flash-artifact case) and reads (which also tick the power-loss
// stream).
std::vector<TraceOp> MakeTrace() {
  std::vector<TraceOp> trace(kTraceLen);
  Rng rng(kTraceSeed);
  for (std::uint64_t i = 0; i < kTraceLen; ++i) {
    TraceOp& op = trace[i];
    const std::uint64_t dice = rng.next_below(10);
    op.kind = dice < 7   ? TraceOp::Kind::kWrite
              : dice < 8 ? TraceOp::Kind::kTrim
                         : TraceOp::Kind::kRead;
    op.lba = rng.next_below(kNumLbas);
    op.fill = static_cast<std::uint8_t>(rng.next_below(255) + 1);
  }
  return trace;
}

struct PlRig {
  explicit PlRig(FaultPlan plan = {}) : injector(std::move(plan)) {
    reboot(/*first_boot=*/true);
  }

  /// (Re)create DRAM + FTL over the (possibly surviving) NAND.  A fresh
  /// DRAM models the power loss wiping the volatile table.
  void reboot(bool first_boot = false) {
    FtlConfig config;
    config.num_lbas = kNumLbas;
    config.hammers_per_io = 1;
    config.journal.enabled = true;
    ftl.reset();
    DramConfig dc;
    dc.geometry = test::SmallDram();
    dc.profile = DramProfile::Invulnerable();
    dram = std::make_unique<DramDevice>(
        dc, MakeLinearMapper(dc.geometry), clock);
    if (first_boot) {
      // 16 blocks x 16 pages: 12 data blocks + 4 journal blocks.
      nand = std::make_unique<NandDevice>(
          NandGeometry{.channels = 1,
                       .dies_per_channel = 1,
                       .planes_per_die = 1,
                       .blocks_per_plane = 16,
                       .pages_per_block = 16,
                       .page_bytes = kBlockSize});
      nand->set_fault_injector(nullptr);
    }
    ftl = std::make_unique<Ftl>(config, *nand, *dram);
  }

  Status apply(const TraceOp& op) {
    std::vector<std::uint8_t> buf(kBlockSize, op.fill);
    switch (op.kind) {
      case TraceOp::Kind::kWrite: return ftl->write(Lba(op.lba), buf);
      case TraceOp::Kind::kTrim: return ftl->trim(Lba(op.lba));
      case TraceOp::Kind::kRead: return ftl->read(Lba(op.lba), buf);
    }
    return InvalidArgument("bad trace op");
  }

  [[nodiscard]] std::vector<std::uint32_t> table() const {
    std::vector<std::uint32_t> t(kNumLbas);
    for (std::uint64_t lba = 0; lba < kNumLbas; ++lba) {
      t[lba] = ftl->debug_lookup(Lba(lba));
    }
    return t;
  }

  SimClock clock;
  FaultInjector injector;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<NandDevice> nand;
  std::unique_ptr<Ftl> ftl;
};

/// Reference run: tables[k] is the L2P table after the first k trace
/// ops; contents[k][lba] the expected fill (nullopt = unmapped).
struct Reference {
  std::vector<std::vector<std::uint32_t>> tables;
  std::vector<std::vector<std::optional<std::uint8_t>>> contents;
};

const Reference& GoldenReference() {
  static const Reference ref = [] {
    Reference r;
    const std::vector<TraceOp> trace = MakeTrace();
    PlRig rig;
    std::vector<std::optional<std::uint8_t>> model(kNumLbas);
    r.tables.push_back(rig.table());
    r.contents.push_back(model);
    for (const TraceOp& op : trace) {
      EXPECT_TRUE(rig.apply(op).ok());
      if (op.kind == TraceOp::Kind::kWrite) {
        model[op.lba] = op.fill;
      } else if (op.kind == TraceOp::Kind::kTrim) {
        model[op.lba] = std::nullopt;
      }
      r.tables.push_back(rig.table());
      r.contents.push_back(model);
    }
    return r;
  }();
  return ref;
}

/// Crash the trace at host-op `crash_index`, reboot, recover, and
/// compare against the reference prefix.  Returns a failure description
/// or the empty string.
std::string RunCrashTrial(std::uint64_t crash_index) {
  const Reference& ref = GoldenReference();
  const std::vector<TraceOp> trace = MakeTrace();

  FaultPlan plan;
  plan.add(FaultClass::kPowerLoss, crash_index);
  PlRig rig(plan);
  rig.ftl->set_fault_injector(&rig.injector);

  for (std::uint64_t i = 0; i < kTraceLen; ++i) {
    const Status s = rig.apply(trace[i]);
    if (i < crash_index) {
      if (!s.ok()) return "op " + std::to_string(i) + ": " + s.to_string();
    } else {
      if (s.code() != StatusCode::kAborted) {
        return "crash op did not abort: " + s.to_string();
      }
      break;
    }
  }
  if (!rig.ftl->powered_off()) return "device still powered on";

  // Reboot: volatile state is gone; flash survives.
  rig.reboot();
  if (!rig.ftl->needs_recovery()) return "journal history not detected";
  std::vector<std::uint8_t> buf(kBlockSize);
  if (rig.ftl->read(Lba(0), buf).code() != StatusCode::kFailedPrecondition) {
    return "IO allowed before recovery";
  }

  FtlRecoveryReport report;
  const Status rs = rig.ftl->recover(&report);
  if (!rs.ok()) return "recover: " + rs.to_string();
  if (!report.snapshot_found) return "no snapshot found";

  // The mapping must match the reference prefix exactly, except for
  // LBAs the recovery explicitly reported as lost (quarantined to
  // unmapped).  On this fault-free-media trace nothing should be lost.
  if (!report.lost_lbas.empty()) {
    return "lost " + std::to_string(report.lost_lbas.size()) + " LBAs";
  }
  const std::vector<std::uint32_t> recovered = rig.table();
  const std::vector<std::uint32_t>& expected = ref.tables[crash_index];
  for (std::uint64_t lba = 0; lba < kNumLbas; ++lba) {
    if (recovered[lba] != expected[lba]) {
      return "LBA " + std::to_string(lba) + ": recovered " +
             std::to_string(recovered[lba]) + " != reference " +
             std::to_string(expected[lba]);
    }
  }

  // And the data behind the mapping must be the reference content.
  for (std::uint64_t lba = 0; lba < kNumLbas; ++lba) {
    const Status s = rig.ftl->read(Lba(lba), buf);
    if (!s.ok()) return "post-recovery read: " + s.to_string();
    const std::optional<std::uint8_t> want =
        ref.contents[crash_index][lba];
    const std::uint8_t fill = want.value_or(0);
    for (const std::uint8_t byte : buf) {
      if (byte != fill) {
        return "LBA " + std::to_string(lba) + " content mismatch";
      }
    }
  }

  // The recovered device must be fully writable again.
  const Status ws =
      rig.ftl->write(Lba(0), std::vector<std::uint8_t>(kBlockSize, 0xEE));
  if (!ws.ok()) return "post-recovery write: " + ws.to_string();
  return {};
}

TEST(PowerLoss, TortureEveryIoIndexRecoversExactly) {
  exec::ThreadPool pool;  // RHSD_THREADS-sized
  const std::vector<std::string> failures = exec::RunTrials(
      pool, kTraceLen, /*base_seed=*/0,
      [](std::uint64_t crash_index, std::uint64_t) {
        return RunCrashTrial(crash_index);
      });
  for (std::uint64_t k = 0; k < failures.size(); ++k) {
    EXPECT_EQ(failures[k], "") << "crash index " << k;
  }
}

TEST(PowerLoss, CrashBeforeFirstIoRecoversEmptyDevice) {
  EXPECT_EQ(RunCrashTrial(0), "");
}

TEST(PowerLoss, RecoverOnFreshDeviceIsANoOp) {
  PlRig rig;
  EXPECT_FALSE(rig.ftl->needs_recovery());
  FtlRecoveryReport report;
  ASSERT_TRUE(rig.ftl->recover(&report).ok());
  EXPECT_TRUE(report.lost_lbas.empty());
  ASSERT_TRUE(
      rig.ftl->write(Lba(1), std::vector<std::uint8_t>(kBlockSize, 1)).ok());
}

TEST(PowerLoss, SecondPowerLossDuringRecoveredLifeAlsoRecovers) {
  FaultPlan plan;
  plan.add(FaultClass::kPowerLoss, 10);
  plan.add(FaultClass::kPowerLoss, 25);
  PlRig rig(plan);
  rig.ftl->set_fault_injector(&rig.injector);
  const std::vector<TraceOp> trace = MakeTrace();

  std::uint64_t i = 0;
  for (int life = 0; life < 2; ++life) {
    for (; i < kTraceLen; ++i) {
      if (rig.apply(trace[i]).code() == StatusCode::kAborted) break;
    }
    rig.reboot();
    // The op counter keeps running across reboots (same injector), so
    // the second event fires mid-second-life.
    rig.ftl->set_fault_injector(&rig.injector);
    ASSERT_TRUE(rig.ftl->recover().ok());
  }
  // Both crashes consumed; the remainder of the trace completes.
  for (; i < kTraceLen; ++i) {
    ASSERT_TRUE(rig.apply(trace[i]).ok()) << i;
  }
}

// Filesystem-level convergence: a power loss between filesystem
// operations must leave a mountable, fsck-clean filesystem after
// Ftl::recover(), with earlier files intact.
TEST(PowerLoss, FsckCleanAfterCrashAtOperationBoundary) {
  PlRig rig;
  auto controller = [&] {
    NvmeConfig nc;
    nc.namespaces = {NvmeNamespaceConfig{Lba(0), kNumLbas}};
    nc.iops = IopsModel(1e6);
    return std::make_unique<NvmeController>(nc, *rig.ftl, rig.clock);
  };
  auto ctrl = controller();
  fs::NvmeBlockDevice bdev(*ctrl, 1);
  auto fs_or = fs::FileSystem::Format(bdev);
  ASSERT_TRUE(fs_or.ok());
  std::unique_ptr<fs::FileSystem> filesystem = std::move(fs_or).value();

  const fs::Credentials root{0};
  const std::vector<std::uint8_t> payload = test::MarkedBlock("alpha!");
  auto ino = filesystem->create(root, "/a.dat", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(filesystem->write(root, *ino, 0, payload).ok());

  // Arm the power loss to hit the very next host IO: the crash lands on
  // the first device access of the *next* filesystem operation, i.e. at
  // a filesystem-consistent boundary.
  FaultPlan plan;
  plan.add(FaultClass::kPowerLoss, 0);
  FaultInjector late(plan);
  rig.ftl->set_fault_injector(&late);
  EXPECT_FALSE(filesystem->create(root, "/b.dat", 0644).ok());
  EXPECT_TRUE(rig.ftl->powered_off());
  filesystem.reset();

  rig.reboot();
  ASSERT_TRUE(rig.ftl->needs_recovery());
  FtlRecoveryReport report;
  ASSERT_TRUE(rig.ftl->recover(&report).ok());
  EXPECT_TRUE(report.lost_lbas.empty());

  ctrl = controller();
  fs::NvmeBlockDevice bdev2(*ctrl, 1);
  auto mounted = fs::FileSystem::Mount(bdev2);
  ASSERT_TRUE(mounted.ok()) << mounted.status();
  const fs::FsckReport fsck = fs::Fsck::Check(**mounted);
  EXPECT_TRUE(fsck.clean()) << (fsck.errors.empty() ? "" : fsck.errors[0]);

  auto found = (*mounted)->lookup(root, "/a.dat");
  ASSERT_TRUE(found.ok());
  std::vector<std::uint8_t> out(payload.size());
  auto got = (*mounted)->read(root, *found, 0, out);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(*got, payload.size());
  EXPECT_EQ(out, payload);
}

// ---------------------------------------------------------------------
// Event-loop crash torture: the same crash-at-every-op-index
// discipline, but with the power loss landing inside NvmeEventLoop
// arbitration over a two-tenant trace.  After every crash the device
// reboots and recovers, and every acknowledged write must read back
// intact or be named in the recovery's lost LBAs.

constexpr std::uint64_t kEvTenants = 2;
constexpr std::uint64_t kEvLbasPerTenant = kNumLbas / kEvTenants;
constexpr std::uint64_t kEvCmdsPerTenant = 48;
constexpr std::uint64_t kEvTraceOps = kEvTenants * kEvCmdsPerTenant;
constexpr std::uint32_t kEvDepth = 4;

/// Tenant `t`'s marker fill for (slba, cid): unique per acknowledged
/// write, so a stale or misdirected block cannot match.
std::uint8_t EvFill(std::uint64_t t, std::uint64_t slba, std::uint16_t cid) {
  return static_cast<std::uint8_t>(0x21 + t * 89 + slba * 13 + cid * 5);
}

struct EvOp {
  bool is_write = false;
  std::uint64_t slba = 0;
};

std::vector<std::vector<EvOp>> EvScripts() {
  std::vector<std::vector<EvOp>> scripts(kEvTenants);
  for (std::uint64_t t = 0; t < kEvTenants; ++t) {
    Rng rng(0xE7'0000 + t);
    scripts[t].resize(kEvCmdsPerTenant);
    for (EvOp& op : scripts[t]) {
      op.is_write = rng.next_below(10) < 6;
      op.slba = rng.next_below(kEvLbasPerTenant);
    }
  }
  return scripts;
}

/// PlRig plus the NVMe stack: controller with one namespace per tenant
/// and per-tenant queue pairs, all rebuilt on reboot (NAND survives).
struct EvRig {
  explicit EvRig(FaultPlan plan) : injector(std::move(plan)) {
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
                       .blocks_per_plane = 16,
                       .pages_per_block = 16,
                       .page_bytes = kBlockSize});
    }
    FtlConfig config;
    config.num_lbas = kNumLbas;
    config.hammers_per_io = 1;
    config.journal.enabled = true;
    ftl = std::make_unique<Ftl>(config, *nand, *dram);
    ftl->set_fault_injector(&injector);
    NvmeConfig nc;
    for (std::uint64_t t = 0; t < kEvTenants; ++t) {
      nc.namespaces.push_back(
          NvmeNamespaceConfig{Lba(t * kEvLbasPerTenant), kEvLbasPerTenant});
    }
    nc.iops = IopsModel(1e6);
    ctrl = std::make_unique<NvmeController>(nc, *ftl, clock);
    for (std::uint64_t t = 0; t < kEvTenants; ++t) {
      qps.push_back(std::make_unique<NvmeQueuePair>(
          *ctrl, static_cast<std::uint16_t>(t + 1), kEvDepth));
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

/// Crash the two-tenant event-loop trace at FTL op `crash_index`,
/// reboot + recover, and audit acknowledged writes.  Returns the first
/// invariant violation, or an empty string.
std::string RunEvCrashTrial(std::uint64_t crash_index) {
  FaultPlan plan;
  plan.add(FaultClass::kPowerLoss, crash_index);
  EvRig rig(plan);
  const auto scripts = EvScripts();

  EventLoopConfig lc;
  lc.seed = 0x5EED;
  NvmeEventLoop loop(*rig.ctrl, lc);
  for (std::uint64_t t = 0; t < kEvTenants; ++t) {
    loop.attach(*rig.qps[t]);
  }

  // last acknowledged write cid per (tenant, slba); ~0u = none tracked.
  std::vector<std::vector<std::uint32_t>> acked(
      kEvTenants, std::vector<std::uint32_t>(kEvLbasPerTenant, ~0u));
  std::vector<std::size_t> next(kEvTenants, 0);
  std::vector<std::uint16_t> cid(kEvTenants, 0);
  std::vector<std::vector<std::uint8_t>> rbuf(
      kEvDepth, std::vector<std::uint8_t>(kBlockSize));
  for (;;) {
    bool pending = false;
    for (std::uint64_t t = 0; t < kEvTenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const EvOp& op = scripts[t][next[t]];
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(
                      cid[t], static_cast<std::uint32_t>(t + 1), op.slba,
                      std::vector<std::uint8_t>(
                          kBlockSize, EvFill(t, op.slba, cid[t])))
                : NvmeCommand::Read(cid[t], static_cast<std::uint32_t>(t + 1),
                                    op.slba, rbuf[cid[t] % kEvDepth]);
        if (!rig.qps[t]->submit(std::move(cmd)).ok()) break;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                rig.qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    loop.run_until_idle();
    for (std::uint64_t t = 0; t < kEvTenants; ++t) {
      while (auto cqe = rig.qps[t]->poll()) {
        const EvOp& op = scripts[t][cqe->cid];
        if (op.is_write && cqe->status.ok()) acked[t][op.slba] = cqe->cid;
      }
    }
    if (rig.ftl->powered_off()) break;
  }
  std::vector<bool> lost(kNumLbas, false);
  if (rig.ftl->powered_off()) {
    // Commands still in flight at the crash were never acknowledged;
    // dropping them with the queue pairs is the correct semantics.
    rig.reboot();
    FtlRecoveryReport report;
    const Status rs = rig.ftl->recover(&report);
    if (!rs.ok()) return "recover: " + rs.to_string();
    for (const std::uint64_t lba : report.lost_lbas) lost[lba] = true;
  }
  // Durability audit: every acknowledged write is intact or named.
  rig.ftl->set_fault_injector(nullptr);
  std::vector<std::uint8_t> out(kBlockSize);
  for (std::uint64_t t = 0; t < kEvTenants; ++t) {
    for (std::uint64_t slba = 0; slba < kEvLbasPerTenant; ++slba) {
      if (acked[t][slba] == ~0u) continue;
      if (lost[t * kEvLbasPerTenant + slba]) continue;
      const Status s =
          rig.ctrl->read(static_cast<std::uint32_t>(t + 1), slba, out);
      const std::uint8_t want =
          EvFill(t, slba, static_cast<std::uint16_t>(acked[t][slba]));
      bool intact = s.ok();
      for (const std::uint8_t b : out) intact = intact && b == want;
      if (!intact) {
        return "tenant " + std::to_string(t) + " slba " +
               std::to_string(slba) +
               ": acknowledged write neither intact nor lost";
      }
    }
  }
  return {};
}

TEST(PowerLoss, EventLoopTortureRecoversAcknowledgedWrites) {
  exec::ThreadPool pool;  // RHSD_THREADS-sized
  // A few indices past the trace length cover the no-crash path too.
  const std::vector<std::string> failures = exec::RunTrials(
      pool, kEvTraceOps + 4, /*base_seed=*/0,
      [](std::uint64_t crash_index, std::uint64_t) {
        return RunEvCrashTrial(crash_index);
      });
  for (std::uint64_t k = 0; k < failures.size(); ++k) {
    EXPECT_EQ(failures[k], "") << "crash index " << k;
  }
}

}  // namespace
}  // namespace rhsd
