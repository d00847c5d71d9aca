// Tests for the NVMe submission/completion queue pair.
#include <gtest/gtest.h>

#include <memory>

#include "nvme/queue_pair.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

struct QpRig {
  QpRig() {
    DramConfig dc;
    dc.geometry = test::SmallDram();
    dc.profile = DramProfile::Invulnerable();
    dram = std::make_unique<DramDevice>(
        dc, MakeLinearMapper(dc.geometry), clock);
    nand = std::make_unique<NandDevice>(
        NandGeometry{.channels = 1,
                     .dies_per_channel = 1,
                     .planes_per_die = 1,
                     .blocks_per_plane = 8,
                     .pages_per_block = 16,
                     .page_bytes = kBlockSize});
    FtlConfig fc;
    fc.num_lbas = 64;
    ftl = std::make_unique<Ftl>(fc, *nand, *dram);
    NvmeConfig config;
    config.namespaces = {NvmeNamespaceConfig{Lba(0), 64}};
    config.iops = IopsModel(1e6);
    controller = std::make_unique<NvmeController>(config, *ftl, clock);
  }

  SimClock clock;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<NandDevice> nand;
  std::unique_ptr<Ftl> ftl;
  std::unique_ptr<NvmeController> controller;
};

std::vector<std::uint8_t> Block(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kBlockSize, fill);
}

TEST(QueuePair, WriteThenReadThroughTheRings) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, /*qid=*/1, /*depth=*/8);
  ASSERT_TRUE(qp.submit(NvmeCommand::Write(1, 1, 5, Block(0xAA))).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(qp.submit(NvmeCommand::Read(2, 1, 5, out)).ok());

  EXPECT_EQ(qp.sq_inflight(), 2u);
  EXPECT_EQ(qp.process(), 2u);
  EXPECT_EQ(qp.cq_pending(), 2u);

  auto c1 = qp.poll();
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->cid, 1u);
  EXPECT_TRUE(c1->status.ok());
  auto c2 = qp.poll();
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->cid, 2u);
  EXPECT_TRUE(c2->status.ok());
  EXPECT_GE(c2->completed_ns, c1->completed_ns);  // in-order device
  EXPECT_EQ(out, Block(0xAA));
  EXPECT_FALSE(qp.poll().has_value());
}

TEST(QueuePair, SubmissionBackPressureAtDepth) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, 1, /*depth=*/4);
  for (std::uint16_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(qp.submit(NvmeCommand::Flush(i, 1)).ok());
  }
  // A full ring is a transient resource condition, not a caller bug.
  EXPECT_EQ(qp.submit(NvmeCommand::Flush(9, 1)).code(),
            StatusCode::kResourceExhausted);
  // Draining frees the slot.
  (void)qp.drain();
  EXPECT_TRUE(qp.submit(NvmeCommand::Flush(9, 1)).ok());
}

TEST(QueuePair, SqFullIsResourceExhaustedAtMinimumDepth) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, 1, /*depth=*/2);
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(1, 1)).ok());
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(2, 1)).ok());
  const Status full = qp.submit(NvmeCommand::Flush(3, 1));
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full.message().find("full"), std::string::npos);
  EXPECT_EQ(qp.sq_inflight(), 2u);  // rejected command was not enqueued
}

TEST(QueuePair, RetryRecoversFromTimeoutAndDrop) {
  QpRig rig;
  FaultPlan plan;
  plan.add({FaultClass::kNvmeTimeout, /*op_index=*/0, /*count=*/1});
  plan.add({FaultClass::kNvmeDrop, /*op_index=*/2, /*count=*/1});
  FaultInjector injector(plan);
  NvmeQueuePair qp(*rig.controller, 1, 8);
  qp.set_fault_injector(&injector);
  qp.set_retry_policy(NvmeRetryPolicy{.max_attempts = 3});

  ASSERT_TRUE(qp.submit(NvmeCommand::Write(1, 1, 5, Block(0x5A))).ok());
  ASSERT_TRUE(qp.submit(NvmeCommand::Write(2, 1, 6, Block(0x6B))).ok());
  auto completions = qp.drain();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_TRUE(completions[0].status.ok()) << completions[0].status;
  EXPECT_TRUE(completions[1].status.ok()) << completions[1].status;
  EXPECT_EQ(qp.queue_stats().timeouts, 1u);
  EXPECT_EQ(qp.queue_stats().drops, 1u);
  EXPECT_EQ(qp.queue_stats().retries, 2u);

  // Both writes landed despite the faulted first attempts.
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(rig.controller->read(1, 5, out).ok());
  EXPECT_EQ(out, Block(0x5A));
  ASSERT_TRUE(rig.controller->read(1, 6, out).ok());
  EXPECT_EQ(out, Block(0x6B));
}

TEST(QueuePair, RetryExhaustionSurfacesDeadlineExceeded) {
  QpRig rig;
  FaultPlan plan;
  // Every attempt of the single command times out.
  plan.add({FaultClass::kNvmeTimeout, /*op_index=*/0, /*count=*/2});
  FaultInjector injector(plan);
  NvmeQueuePair qp(*rig.controller, 1, 8);
  qp.set_fault_injector(&injector);
  qp.set_retry_policy(NvmeRetryPolicy{.max_attempts = 2});

  const SimClock::Nanos start = rig.clock.now_ns();
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(1, 1)).ok());
  auto completions = qp.drain();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(qp.queue_stats().timeouts, 2u);
  EXPECT_EQ(qp.queue_stats().retries, 1u);
  // The host paid both timeouts plus one backoff in simulated time.
  const NvmeRetryPolicy policy = qp.retry_policy();
  EXPECT_GE(rig.clock.now_ns() - start,
            2 * policy.timeout_ns + NvmeRetryPolicy::kBackoffBaseNs);
}

TEST(QueuePair, DroppedCommandWithoutRetryIsUnavailable) {
  QpRig rig;
  FaultPlan plan;
  plan.add({FaultClass::kNvmeDrop, /*op_index=*/0, /*count=*/1});
  FaultInjector injector(plan);
  NvmeQueuePair qp(*rig.controller, 1, 8);
  qp.set_fault_injector(&injector);  // default policy: max_attempts = 1

  ASSERT_TRUE(qp.submit(NvmeCommand::Write(1, 1, 5, Block(0xEE))).ok());
  auto completions = qp.drain();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status.code(), StatusCode::kUnavailable);
  // The drop happened before the device saw the command.
  EXPECT_EQ(rig.ftl->debug_lookup(Lba(5)), kUnmappedPba32);
}

TEST(QueuePair, AbortRemovesQueuedCommand) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, 1, 8);
  ASSERT_TRUE(qp.submit(NvmeCommand::Write(1, 1, 3, Block(0x11))).ok());
  ASSERT_TRUE(qp.submit(NvmeCommand::Write(2, 1, 4, Block(0x22))).ok());

  ASSERT_TRUE(qp.abort(2).ok());
  EXPECT_EQ(qp.abort(2).code(), StatusCode::kNotFound);
  EXPECT_EQ(qp.queue_stats().aborts, 1u);

  auto completions = qp.drain();
  ASSERT_EQ(completions.size(), 2u);
  // The abort completion was posted immediately, ahead of cid 1.
  EXPECT_EQ(completions[0].cid, 2u);
  EXPECT_EQ(completions[0].status.code(), StatusCode::kAborted);
  EXPECT_EQ(completions[1].cid, 1u);
  EXPECT_TRUE(completions[1].status.ok());
  // The aborted write never reached the device.
  EXPECT_EQ(rig.ftl->debug_lookup(Lba(4)), kUnmappedPba32);
  EXPECT_NE(rig.ftl->debug_lookup(Lba(3)), kUnmappedPba32);
}

TEST(QueuePair, AbortWithFullCompletionRingLeavesCommandQueued) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, 1, /*depth=*/2);
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(1, 1)).ok());
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(2, 1)).ok());
  EXPECT_EQ(qp.process(), 2u);  // the completion ring is now full
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(3, 1)).ok());

  EXPECT_EQ(qp.abort(3).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(qp.cq_pending(), qp.depth());
  EXPECT_EQ(qp.sq_inflight(), 1u);
  EXPECT_EQ(qp.queue_stats().aborts, 0u);

  // Once a completion is polled the abort goes through.
  ASSERT_TRUE(qp.poll().has_value());
  ASSERT_TRUE(qp.abort(3).ok());
  EXPECT_EQ(qp.sq_inflight(), 0u);
  EXPECT_EQ(qp.cq_pending(), qp.depth());
}

TEST(QueuePair, ProcessRespectsCompletionRingCapacity) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, 1, /*depth=*/2);
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(1, 1)).ok());
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(2, 1)).ok());
  EXPECT_EQ(qp.process(), 2u);
  // CQ is now full; new submissions sit in the SQ until polled.
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(3, 1)).ok());
  EXPECT_EQ(qp.process(), 0u);
  (void)qp.poll();
  EXPECT_EQ(qp.process(), 1u);
}

TEST(QueuePair, ErrorsTravelInCompletions) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, 1, 8);
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(qp.submit(NvmeCommand::Read(7, 1, 9999, out)).ok());
  auto completions = qp.drain();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].cid, 7u);
  EXPECT_EQ(completions[0].status.code(), StatusCode::kOutOfRange);
}

TEST(QueuePair, TrimAndFlushFlow) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, 1, 8);
  ASSERT_TRUE(qp.submit(NvmeCommand::Write(1, 1, 3, Block(5))).ok());
  ASSERT_TRUE(qp.submit(NvmeCommand::Trim(2, 1, 3, 1)).ok());
  ASSERT_TRUE(qp.submit(NvmeCommand::Flush(3, 1)).ok());
  auto completions = qp.drain();
  ASSERT_EQ(completions.size(), 3u);
  for (const auto& completion : completions) {
    EXPECT_TRUE(completion.status.ok()) << completion.cid;
  }
  EXPECT_EQ(rig.ftl->debug_lookup(Lba(3)), kUnmappedPba32);
}

TEST(QueuePair, ProcessMaxCommandsBound) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, 1, 16);
  for (std::uint16_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(qp.submit(NvmeCommand::Flush(i, 1)).ok());
  }
  EXPECT_EQ(qp.process(3), 3u);
  EXPECT_EQ(qp.sq_inflight(), 7u);
  EXPECT_EQ(qp.cq_pending(), 3u);
}

TEST(QueuePair, DepthTooSmallRejected) {
  QpRig rig;
  EXPECT_THROW(NvmeQueuePair(*rig.controller, 1, 1), CheckFailure);
}

TEST(QueuePair, MultipleQueuesShareTheDevice) {
  QpRig rig;
  NvmeQueuePair qp1(*rig.controller, 1, 8);
  NvmeQueuePair qp2(*rig.controller, 2, 8);
  ASSERT_TRUE(qp1.submit(NvmeCommand::Write(1, 1, 0, Block(0x11))).ok());
  ASSERT_TRUE(qp2.submit(NvmeCommand::Write(1, 1, 1, Block(0x22))).ok());
  (void)qp1.drain();
  (void)qp2.drain();
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(rig.controller->read(1, 0, out).ok());
  EXPECT_EQ(out, Block(0x11));
  ASSERT_TRUE(rig.controller->read(1, 1, out).ok());
  EXPECT_EQ(out, Block(0x22));
}

TEST(QueuePair, DeepPipelineSustainsModelRate) {
  QpRig rig;
  NvmeQueuePair qp(*rig.controller, 1, 64);
  std::vector<std::uint8_t> out(kBlockSize);
  // 10K reads through the ring (unmapped => interface-bound).
  std::uint32_t submitted = 0;
  while (submitted < 10'000) {
    while (submitted < 10'000 &&
           qp.submit(NvmeCommand::Read(
                         static_cast<std::uint16_t>(submitted), 1, 20,
                         out))
               .ok()) {
      ++submitted;
    }
    (void)qp.process();
    while (qp.poll().has_value()) {
    }
  }
  (void)qp.drain();
  EXPECT_NEAR(rig.controller->measured_iops(), 1e6, 1e5);
}

}  // namespace
}  // namespace rhsd
