// Tests for the NVMe submission/completion queue pair.
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <memory>
#include <string>

#include "common/rng.hpp"
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

/// Reference model of the queue pair's contract on two std::deques:
/// bounded submission and completion queues and in-order processing on
/// its own device.
class DequeQueuePair {
 public:
  DequeQueuePair(NvmeController& controller, std::uint32_t depth)
      : controller_(controller), depth_(depth) {}

  StatusCode submit(NvmeCommand command) {
    if (sq_.size() >= depth_) return StatusCode::kResourceExhausted;
    sq_.push_back(std::move(command));
    return StatusCode::kOk;
  }
  std::uint32_t process(std::uint32_t max_commands) {
    std::uint32_t n = 0;
    while (!sq_.empty() && n < max_commands && cq_.size() < depth_) {
      const NvmeCommand c = std::move(sq_.front());
      sq_.pop_front();
      ++popped_;
      Status status;
      switch (c.op) {
        case NvmeCommand::Op::kRead:
          status = controller_.read(c.nsid, c.slba, c.read_buf);
          break;
        case NvmeCommand::Op::kWrite:
          status = controller_.write(c.nsid, c.slba, c.write_data);
          break;
        case NvmeCommand::Op::kTrim:
          status = controller_.trim(c.nsid, c.slba, c.nblocks);
          break;
        case NvmeCommand::Op::kFlush:
          status = controller_.flush(c.nsid);
          break;
      }
      cq_.push_back({c.cid, std::move(status), controller_.clock().now_ns()});
      ++n;
    }
    return n;
  }
  std::optional<NvmeCompletion> poll() {
    if (cq_.empty()) return std::nullopt;
    NvmeCompletion c = std::move(cq_.front());
    cq_.pop_front();
    return c;
  }

  const std::deque<NvmeCommand>& sq() const { return sq_; }
  std::size_t cq_size() const { return cq_.size(); }
  /// True when the ring's live slots run past its last slot: processing
  /// advances the head one slot per command.
  bool sq_wrapped() const { return popped_ % depth_ + sq_.size() > depth_; }

 private:
  NvmeController& controller_;
  std::uint32_t depth_;
  std::deque<NvmeCommand> sq_;
  std::deque<NvmeCompletion> cq_;
  std::uint64_t popped_ = 0;
};

// Random submit / process(k) / poll sequences at depths 2-32,
// each case until its submission ring has wrapped 3 x depth times, the
// rings on one device and the deque model on an identical second one.
// Every completion (cid, code, time, and a read's bytes), sq_inflight,
// cq_pending and the head submission must agree after every step.  A
// mismatch prints RHSD_DIFF_SEED=<n>; with that variable set, only that
// case runs.
TEST(QueuePair, RingMatchesDequeReference) {
  std::uint64_t sq_wrapped_steps = 0;
  std::uint64_t cq_full_steps = 0;
  const auto run_case = [&](std::uint64_t seed) {
    const std::string what = "RHSD_DIFF_SEED=" + std::to_string(seed);
    Rng draw(0x5EED0 + seed);
    const auto depth = static_cast<std::uint32_t>(2 + seed % 31);
    QpRig ring_rig;
    QpRig ref_rig;
    NvmeQueuePair qp(*ring_rig.controller, 1, depth);
    DequeQueuePair ref(*ref_rig.controller, depth);
    // Read buffers per cid and side; a deque keeps the spans valid.
    std::deque<std::vector<std::uint8_t>> ring_bufs;
    std::deque<std::vector<std::uint8_t>> ref_bufs;
    std::uint16_t next_cid = 0;
    std::uint64_t submitted = 0;
    const std::uint64_t target = (3 * depth + 1) * depth;
    const auto expect_same = [&](const std::optional<NvmeCompletion>& got,
                                 const std::optional<NvmeCompletion>& want) {
      ASSERT_EQ(got.has_value(), want.has_value()) << what;
      if (!got) return;
      EXPECT_EQ(got->cid, want->cid) << what;
      EXPECT_EQ(got->status.code(), want->status.code()) << what;
      EXPECT_EQ(got->completed_ns, want->completed_ns) << what;
      EXPECT_EQ(ring_bufs[got->cid], ref_bufs[want->cid])
          << what << ": cid " << got->cid;
    };
    while (submitted < target && !::testing::Test::HasFailure()) {
      if (ref.cq_size() == depth) ++cq_full_steps;
      if (ref.sq_wrapped()) ++sq_wrapped_steps;
      const std::uint64_t op = draw.next_below(9);
      if (op < 4) {
        // Submit: 60 % reads, 20 % writes, 10 % trims, 10 % flushes; an
        // slba past the 64-block namespace fails with OutOfRange.
        const std::uint16_t cid = next_cid++;
        const std::uint64_t slba = draw.next_below(70);
        const std::uint64_t kind = draw.next_below(10);
        ring_bufs.emplace_back(kBlockSize, 0);
        ref_bufs.emplace_back(kBlockSize, 0);
        const auto make = [&](std::vector<std::uint8_t>& buf) {
          if (kind < 6) return NvmeCommand::Read(cid, 1, slba, buf);
          if (kind < 8) {
            return NvmeCommand::Write(cid, 1, slba,
                                      Block(static_cast<std::uint8_t>(cid)));
          }
          if (kind < 9) return NvmeCommand::Trim(cid, 1, slba, 1);
          return NvmeCommand::Flush(cid, 1);
        };
        const Status got = qp.submit(make(ring_bufs.back()));
        const StatusCode want = ref.submit(make(ref_bufs.back()));
        EXPECT_EQ(got.code(), want) << what;
        submitted += want == StatusCode::kOk;
      } else if (op < 6) {
        const std::uint32_t k = draw.next_below(4) == 0
                                    ? ~0u
                                    : static_cast<std::uint32_t>(
                                          draw.next_below(depth + 2));
        EXPECT_EQ(qp.process(k), ref.process(k)) << what;
      } else {
        const std::uint64_t polls = draw.next_below(depth + 1);
        for (std::uint64_t i = 0; i < polls; ++i) {
          expect_same(qp.poll(), ref.poll());
        }
      }
      const NvmeCommand* head = qp.peek_submission();
      EXPECT_EQ(qp.sq_inflight(), ref.sq().size()) << what;
      EXPECT_EQ(qp.cq_pending(), ref.cq_size()) << what;
      ASSERT_EQ(head == nullptr, ref.sq().empty()) << what;
      if (head != nullptr) {
        EXPECT_EQ(head->cid, ref.sq().front().cid) << what;
        EXPECT_EQ(head->op, ref.sq().front().op) << what;
        EXPECT_EQ(head->slba, ref.sq().front().slba) << what;
        EXPECT_EQ(head->write_data, ref.sq().front().write_data) << what;
      }
    }
    // Drain both and compare the tails.
    while (qp.sq_inflight() + qp.cq_pending() > 0 &&
           !::testing::Test::HasFailure()) {
      EXPECT_EQ(qp.process(~0u), ref.process(~0u)) << what;
      while (qp.cq_pending() + ref.cq_size() > 0 &&
             !::testing::Test::HasFailure()) {
        expect_same(qp.poll(), ref.poll());
      }
    }
  };
  if (const char* env = std::getenv("RHSD_DIFF_SEED")) {
    run_case(std::strtoull(env, nullptr, 10));
    return;
  }
  for (std::uint64_t seed = 0; seed < 62; ++seed) {  // each depth twice
    run_case(seed);
    if (HasFailure()) return;  // the failure names the seed to re-run
  }
  EXPECT_GT(sq_wrapped_steps, 0u);
  EXPECT_GT(cq_full_steps, 0u);
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
