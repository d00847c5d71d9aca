// Workloads `cloud_read` and `cloud_rw`: many tenants of one shared SSD
// driving closed-loop traffic (depth 16 per tenant) through the NVMe
// event loop with round-robin arbitration and its default config — no
// worker pool, so every command takes the sequential path.
//
// cloud_read: 1024 tenants — victim hot/cold reads, the attacker
// round-robin over 8 aggressor LBAs, background Zipf/bursty tenants with
// 10 % writes.  Arbitration scans every stream per pick, so this is the
// tenant-count stress.
// cloud_rw: 64 tenants of random/Zipf/hot-cold/bursty traffic with 40 %
// writes on invulnerable DRAM: the FTL write path (page programs, GC,
// NAND programs) under the same loop.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cloud/cloud_host.hpp"
#include "nvme/event_loop.hpp"
#include "sim/workload.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace rhsd;

namespace {

constexpr std::uint32_t kDepth = 16;
/// The attacker's aggressor set: one slba per 128-entry L2P row chunk.
constexpr std::uint64_t kAggressors = 8;

/// 64 MiB SSD (16384 LBAs): victim and attacker keep 2048-block
/// partitions, the rest is split across background tenants.
SsdConfig ScaleConfig(std::uint32_t tenants, std::uint64_t device_seed) {
  SsdConfig c;
  c.capacity_bytes = 64 * kMiB;
  c.dram_geometry = DramGeometry{.channels = 1,
                                 .dimms_per_channel = 1,
                                 .ranks_per_dimm = 1,
                                 .banks_per_rank = 2,
                                 .rows_per_bank = 256,
                                 .row_bytes = 512};
  c.dram_profile.min_rate_kaccess_s = 10.0;
  c.dram_profile.vulnerable_row_fraction = 1.0;
  c.dram_profile.max_cells_per_row = 2;
  c.dram_profile.threshold_spread = 0.5;
  c.xor_config.interleaved_bank_bits = 1;
  c.xor_config.row_remap_bits = 4;
  c.hammers_per_io = 5;
  c.host_interface = HostInterface::kTestbedVmDirect;
  c.partition_blocks = {2048, 2048};
  const std::uint64_t per = (c.num_lbas() - 4096) / (tenants - 2);
  c.partition_blocks.insert(c.partition_blocks.end(), tenants - 2, per);
  c.seed = device_seed;
  return c;
}

class Cloud : public Workload {
 public:
  Cloud(const Inputs& in, bool rw) : in_(in), rw_(rw) {}

  void setup() override {
    const std::uint32_t tenants = rw_ ? 64 : 1024;
    SsdConfig cfg = ScaleConfig(tenants, in_.device_seed);
    // The write mix is a throughput workload, not a flip experiment: a
    // flip in an L2P entry would turn a background read into an error.
    if (rw_) cfg.dram_profile = DramProfile::Invulnerable();
    {
      Span span("cloud.host_ctor");
      host_ = std::make_unique<CloudHost>(cfg);
    }
    for (std::uint32_t t = 2; t < tenants; ++t) {
      Span span("cloud.add_tenant");
      auto id = host_->add_tenant(TenantConfig{.name = "bg-" +
                                                       std::to_string(t)});
      RHSD_CHECK_MSG(id.ok(), "tenant " << t << ": " << id.status());
    }
    NvmeController& ctrl = host_->ssd().controller();
    EventLoopConfig lc;
    lc.seed = in_.arbitration_seed;
    loop_ = std::make_unique<NvmeEventLoop>(ctrl, lc);
    for (std::uint32_t t = 0; t < tenants; ++t) {
      qps_.push_back(std::make_unique<NvmeQueuePair>(
          ctrl, static_cast<std::uint16_t>(t + 1), kDepth));
      loop_->attach(*qps_[t]);
    }

    Span span("sim.generate");
    scripts_.resize(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
      WorkloadConfig wc;
      wc.working_set = host_->tenant(t).blocks();
      wc.seed = SubSeed(in_.workload_seed, t);
      std::uint64_t ops = 2000;
      if (rw_) {
        constexpr AccessPattern kMixes[] = {
            AccessPattern::kRandom, AccessPattern::kZipfLike,
            AccessPattern::kHotCold, AccessPattern::kBursty};
        wc.pattern = kMixes[t % 4];
        wc.write_fraction = 0.4;
      } else if (t == CloudHost::kVictimId) {
        wc.pattern = AccessPattern::kHotCold;
        wc.write_fraction = 0.0;
        ops = 4000;
      } else if (t == CloudHost::kAttackerId) {
        for (std::uint64_t i = 0; i < 20000; ++i) {
          scripts_[t].push_back({false, (i % kAggressors) * 128});
        }
        continue;
      } else {
        wc.pattern = t % 2 == 0 ? AccessPattern::kZipfLike
                                : AccessPattern::kBursty;
        wc.write_fraction = 0.1;
        ops = 512;
      }
      scripts_[t] = WorkloadGenerator(wc).generate(ops);
    }
    bufs_.assign(tenants, std::vector<std::uint8_t>(kBlockSize));
    before_ = Snapshot(host_->ssd());
  }

  double run(PassResult& out) override {
    const std::size_t tenants = qps_.size();
    SimClock& clock = host_->ssd().clock();
    std::vector<std::size_t> next(tenants, 0);
    std::vector<std::uint16_t> cid(tenants, 0);
    // Tenant 0's read latency = completion stamp minus the clock when
    // its wave was submitted.
    std::vector<std::uint64_t> submit_ns(kDepth, 0);
    std::vector<std::uint64_t> latencies;
    std::uint64_t waves = 0;
    std::uint64_t loop_cmds = 0;
    for (;; ++waves) {
      SetRunId(waves);
      bool pending = false;
      const std::uint64_t wave_ns = clock.now_ns();
      {
        Span span("nvme.submit");
        for (std::size_t t = 0; t < tenants; ++t) {
          const auto nsid = static_cast<std::uint32_t>(t + 1);
          while (next[t] < scripts_[t].size()) {
            const WorkloadOp& op = scripts_[t][next[t]];
            NvmeCommand cmd =
                op.is_write
                    ? NvmeCommand::Write(
                          cid[t], nsid, op.slba,
                          std::vector<std::uint8_t>(
                              kBlockSize, static_cast<std::uint8_t>(cid[t])))
                    : NvmeCommand::Read(cid[t], nsid, op.slba, bufs_[t]);
            if (!qps_[t]->submit(std::move(cmd)).ok()) break;
            if (t == 0) submit_ns[cid[t] % kDepth] = wave_ns;
            ++next[t];
            ++cid[t];
          }
          pending = pending || next[t] < scripts_[t].size() ||
                    qps_[t]->sq_inflight() > 0;
        }
      }
      if (!pending) break;
      {
        Span span("nvme.loop");
        loop_cmds += loop_->run_until_idle();
      }
      Span span("nvme.poll");
      for (std::size_t t = 0; t < tenants; ++t) {
        while (auto cqe = qps_[t]->poll()) {
          ++out.attempted;
          if (!cqe->status.ok()) ++out.failed;
          out.digest.mix(t);
          out.digest.mix(cqe->cid);
          out.digest.mix(static_cast<std::uint64_t>(cqe->status.code()));
          out.digest.mix(cqe->completed_ns);
          if (t == 0) {
            latencies.push_back(cqe->completed_ns - submit_ns[cqe->cid % kDepth]);
          }
        }
      }
    }

    out.sim_cmds = AddDeviceDeltas(host_->ssd(), before_, out.counts);
    out.counts["nvme.waves"] += static_cast<double>(waves);
    out.counts["nvme.loop_cmds"] += static_cast<double>(loop_cmds);
    std::sort(latencies.begin(), latencies.end());
    RHSD_CHECK(!latencies.empty());
    out.digest.field("completions", out.attempted);
    out.digest.field("tenant0.p50_ns", latencies[latencies.size() / 2]);
    out.digest.field("tenant0.p99_ns",
                     latencies[latencies.size() * 99 / 100]);
    DigestDeviceStats(host_->ssd(), out.digest);
    return 0.0;
  }

 private:
  Inputs in_;
  bool rw_;
  std::unique_ptr<CloudHost> host_;
  std::vector<std::unique_ptr<NvmeQueuePair>> qps_;
  std::unique_ptr<NvmeEventLoop> loop_;  // holds pointers into qps_
  std::vector<std::vector<WorkloadOp>> scripts_;
  std::vector<std::vector<std::uint8_t>> bufs_;
  DeviceSnapshot before_;
};

}  // namespace

std::unique_ptr<Workload> MakeCloudRead(const Inputs& in, const Options&) {
  return std::make_unique<Cloud>(in, /*rw=*/false);
}

std::unique_ptr<Workload> MakeCloudRw(const Inputs& in, const Options&) {
  return std::make_unique<Cloud>(in, /*rw=*/true);
}

}  // namespace perfbench
