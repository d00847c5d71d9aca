// N-tenant cloud scale tests: registry behaviour (auto-assignment,
// collision rejection), K-tenant isolation under concurrent mixed
// traffic through the event loop, and invariance of every tenant's
// observable data across reruns and loop seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cloud/cloud_host.hpp"
#include "nvme/event_loop.hpp"
#include "sim/workload.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

/// SmallSsd carved into `tenants` equal partitions.
SsdConfig ScaleSsd(std::uint32_t tenants) {
  SsdConfig c = test::SmallSsd();
  c.partition_blocks.assign(tenants, c.num_lbas() / tenants);
  return c;
}

TEST(TenantRegistry, AutoAssignsLowestFreeNamespace) {
  CloudHost host(ScaleSsd(4));
  // Victim and attacker booted on nsids 1 and 2.
  ASSERT_EQ(host.tenant_count(), 2u);
  auto t2 = host.add_tenant(TenantConfig{.name = "t2"});
  ASSERT_TRUE(t2.ok()) << t2.status();
  EXPECT_EQ(host.tenant(*t2).nsid(), 3u);
  auto t3 = host.add_tenant(TenantConfig{.name = "t3"});
  ASSERT_TRUE(t3.ok()) << t3.status();
  EXPECT_EQ(host.tenant(*t3).nsid(), 4u);
  // All namespaces claimed now.
  EXPECT_EQ(host.add_tenant(TenantConfig{.name = "t4"}).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(TenantRegistry, RejectsNamespaceCollisionAndBadNsid) {
  CloudHost host(ScaleSsd(4));
  EXPECT_EQ(
      host.add_tenant(TenantConfig{.name = "alias", .nsid = 2})
          .status()
          .code(),
      StatusCode::kAlreadyExists);
  EXPECT_EQ(
      host.add_tenant(TenantConfig{.name = "ghost", .nsid = 9})
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(TenantRegistry, ExplicitNsidIsSkippedByAutoAssignment) {
  CloudHost host(ScaleSsd(4));
  auto t4 = host.add_tenant(TenantConfig{.name = "t4", .nsid = 4});
  ASSERT_TRUE(t4.ok()) << t4.status();
  EXPECT_EQ(host.tenant(*t4).nsid(), 4u);
  auto t3 = host.add_tenant(TenantConfig{.name = "t3"});
  ASSERT_TRUE(t3.ok()) << t3.status();
  EXPECT_EQ(host.tenant(*t3).nsid(), 3u);
  EXPECT_EQ(host.add_tenant(TenantConfig{.name = "t5"}).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(TenantRegistry, RejectedAddsClaimNothing) {
  CloudHost host(ScaleSsd(4));
  EXPECT_EQ(
      host.add_tenant(TenantConfig{.name = "alias", .nsid = 2})
          .status()
          .code(),
      StatusCode::kAlreadyExists);
  EXPECT_EQ(
      host.add_tenant(TenantConfig{.name = "ghost", .nsid = 9})
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(host.tenant_count(), 2u);
  auto next = host.add_tenant(TenantConfig{.name = "next"});
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(host.tenant(*next).nsid(), 3u);
}

TEST(TenantRegistry, PartitionsAreDisjoint) {
  CloudHost host(ScaleSsd(4));
  (void)host.add_tenant(TenantConfig{.name = "t2"});
  (void)host.add_tenant(TenantConfig{.name = "t3"});
  for (TenantId a = 0; a < host.tenant_count(); ++a) {
    for (TenantId b = a + 1; b < host.tenant_count(); ++b) {
      const auto ra = host.partition_range(a);
      const auto rb = host.partition_range(b);
      EXPECT_TRUE(ra.second.value() <= rb.first.value() ||
                  rb.second.value() <= ra.first.value())
          << "tenants " << a << " and " << b << " overlap";
    }
  }
}

/// What one tenant observed at the end of a run: the last data its
/// reads returned, keyed by slba.
using TenantView = std::map<std::uint64_t, std::vector<std::uint8_t>>;

std::vector<std::uint8_t> TenantBlock(std::uint32_t tenant,
                                      std::uint64_t slba) {
  std::vector<std::uint8_t> block(kBlockSize);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(0xA0 + tenant * 31 + slba * 7 + i);
  }
  return block;
}

/// Run K tenants' mixed read/write traffic through the event loop and
/// return each tenant's final view of its partition.
std::vector<TenantView> RunScale(std::uint32_t tenants,
                                 std::uint64_t arb_seed) {
  CloudHost host(ScaleSsd(tenants));
  for (std::uint32_t t = 2; t < tenants; ++t) {
    auto id = host.add_tenant(
        TenantConfig{.name = "tenant-" + std::to_string(t)});
    RHSD_CHECK(id.ok());
  }
  NvmeController& ctrl = host.ssd().controller();

  EventLoopConfig lc;
  lc.seed = arb_seed;
  NvmeEventLoop loop(ctrl, lc);

  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ctrl, static_cast<std::uint16_t>(t + 1), 8));
    loop.attach(*qps[t]);
  }

  // Deterministic per-tenant scripts: every tenant writes blocks
  // derived from (tenant, slba), interleaved with reads of what it
  // wrote before.
  const std::uint64_t per = host.tenant(0).blocks();
  std::vector<std::vector<WorkloadOp>> scripts(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    WorkloadConfig wc;
    wc.pattern =
        t % 2 == 0 ? AccessPattern::kHotCold : AccessPattern::kBursty;
    wc.working_set = per;
    wc.write_fraction = 0.5;
    wc.seed = 500 + t;
    WorkloadGenerator gen(wc);
    for (int i = 0; i < 120; ++i) scripts[t].push_back(gen.next());
  }

  std::vector<std::size_t> next(tenants, 0);
  std::vector<std::uint16_t> cid(tenants, 0);
  // One read buffer per in-flight slot so views can be harvested from
  // completions; slot = cid % depth.
  std::vector<std::vector<std::vector<std::uint8_t>>> bufs(tenants);
  std::vector<std::vector<std::uint64_t>> slot_slba(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    bufs[t].assign(8, std::vector<std::uint8_t>(kBlockSize));
    slot_slba[t].assign(8, 0);
  }
  std::vector<TenantView> views(tenants);
  for (;;) {
    bool pending = false;
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        const std::uint32_t slot = cid[t] % 8;
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(cid[t], t + 1, op.slba,
                                     TenantBlock(t, op.slba))
                : NvmeCommand::Read(cid[t], t + 1, op.slba,
                                    bufs[t][slot]);
        if (!op.is_write) slot_slba[t][slot] = op.slba;
        if (!qps[t]->submit(std::move(cmd)).ok()) break;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    loop.run_until_idle();
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (auto cqe = qps[t]->poll()) {
        RHSD_CHECK(cqe->status.ok());
        const std::uint32_t slot = cqe->cid % 8;
        // Writes reuse the slot's cid but never touch its buffer; only
        // record views for reads (their slot_slba entry is current).
        if (!bufs[t][slot].empty()) {
          views[t][slot_slba[t][slot]] = bufs[t][slot];
        }
      }
    }
  }
  // Record the authoritative final view: read every block the tenant
  // ever wrote, directly.
  for (std::uint32_t t = 0; t < tenants; ++t) {
    views[t].clear();
    for (const WorkloadOp& op : scripts[t]) {
      if (!op.is_write) continue;
      std::vector<std::uint8_t> out(kBlockSize);
      RHSD_CHECK(ctrl.read(t + 1, op.slba, out).ok());
      views[t][op.slba] = std::move(out);
    }
  }
  return views;
}

TEST(CloudScale, TenantsNeverObserveForeignDataAndRunsAreInvariant) {
  constexpr std::uint32_t kTenants = 8;
  const std::vector<TenantView> ref = RunScale(kTenants, 1);

  // Isolation: every block a tenant wrote reads back as its own
  // marker — never another tenant's (markers differ per tenant).
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    ASSERT_FALSE(ref[t].empty());
    for (const auto& [slba, data] : ref[t]) {
      EXPECT_EQ(data, TenantBlock(t, slba))
          << "tenant " << t << " slba " << slba;
    }
  }

  // Invariance: the same scripts produce the same per-tenant views on a
  // rerun and for any loop seed.
  for (const std::uint64_t seed : {1ull, 5ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    EXPECT_EQ(ref, RunScale(kTenants, seed));
  }
}

}  // namespace
}  // namespace rhsd
