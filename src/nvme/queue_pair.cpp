#include "nvme/queue_pair.hpp"

#include <algorithm>

namespace rhsd {

NvmeCommand NvmeCommand::Read(std::uint16_t cid, std::uint32_t nsid,
                              std::uint64_t slba,
                              std::span<std::uint8_t> buf) {
  NvmeCommand c;
  c.op = Op::kRead;
  c.cid = cid;
  c.nsid = nsid;
  c.slba = slba;
  c.read_buf = buf;
  return c;
}

NvmeCommand NvmeCommand::Write(std::uint16_t cid, std::uint32_t nsid,
                               std::uint64_t slba,
                               std::vector<std::uint8_t> data) {
  NvmeCommand c;
  c.op = Op::kWrite;
  c.cid = cid;
  c.nsid = nsid;
  c.slba = slba;
  c.write_data = std::move(data);
  return c;
}

NvmeCommand NvmeCommand::Trim(std::uint16_t cid, std::uint32_t nsid,
                              std::uint64_t slba, std::uint32_t nblocks) {
  NvmeCommand c;
  c.op = Op::kTrim;
  c.cid = cid;
  c.nsid = nsid;
  c.slba = slba;
  c.nblocks = nblocks;
  return c;
}

NvmeCommand NvmeCommand::Flush(std::uint16_t cid, std::uint32_t nsid) {
  NvmeCommand c;
  c.op = Op::kFlush;
  c.cid = cid;
  c.nsid = nsid;
  return c;
}

NvmeQueuePair::NvmeQueuePair(NvmeController& controller, std::uint16_t qid,
                             std::uint32_t depth)
    : controller_(controller), qid_(qid), depth_(depth) {
  RHSD_CHECK_MSG(depth_ >= 2, "NVMe queues need a depth of at least 2");
  sq_.resize(depth_);
  cq_.resize(depth_);
}

Status NvmeQueuePair::submit(NvmeCommand command) {
  if (sq_count_ >= depth_) {
    // A fixed message: a busy submitter hits this once per turn.
    return ResourceExhausted("submission queue full");
  }
  sq_[slot(sq_head_, sq_count_)] = std::move(command);
  ++sq_count_;
  return Status::Ok();
}

Status NvmeQueuePair::execute_once(const NvmeCommand& command) {
  switch (command.op) {
    case NvmeCommand::Op::kRead:
      return controller_.read(command.nsid, command.slba, command.read_buf);
    case NvmeCommand::Op::kWrite:
      return controller_.write(command.nsid, command.slba,
                               command.write_data);
    case NvmeCommand::Op::kTrim:
      return controller_.trim(command.nsid, command.slba, command.nblocks);
    case NvmeCommand::Op::kFlush:
      return controller_.flush(command.nsid);
  }
  return InvalidArgument("unknown NVMe opcode");
}

Status NvmeQueuePair::execute_with_retry(const NvmeCommand& command) {
  const std::uint32_t attempts = std::max(policy_.max_attempts, 1u);
  Status status;
  for (std::uint32_t attempt = 1;; ++attempt) {
    // Transport faults are injected at the controller's namespace front
    // end (both fault streams advance once per dispatched command, so a
    // count=1 fault affects exactly one attempt and the retry goes
    // through).  The queue pair learns the injected outcome from the
    // controller's stats — not from the status code, which the FTL can
    // also produce for non-transport reasons — and adds the host-side
    // consequences: waiting out the deadline, and retrying below.
    const NvmeStats& cs = controller_.stats();
    const std::uint64_t drops_before = cs.transport_drops;
    const std::uint64_t timeouts_before = cs.transport_timeouts;
    status = execute_once(command);
    if (cs.transport_drops != drops_before) {
      // The command never reached the device; the host discovers this
      // only by waiting out its deadline.
      ++stats_.drops;
      controller_.clock().advance_ns(policy_.timeout_ns);
    } else if (cs.transport_timeouts != timeouts_before) {
      // The device did the work but the completion stalled past the
      // host's deadline (writes may thus apply twice across retries —
      // block rewrites are idempotent, as on real hardware).
      ++stats_.timeouts;
      controller_.clock().advance_ns(policy_.timeout_ns);
    }
    const bool retryable = status.code() == StatusCode::kUnavailable ||
                           status.code() == StatusCode::kDeadlineExceeded;
    if (!retryable || attempt >= attempts) {
      if (retryable) ++stats_.retry_exhausted;
      return status;
    }
    ++stats_.retries;
    const std::uint64_t backoff =
        std::min(NvmeRetryPolicy::kBackoffBaseNs << (attempt - 1),
                 NvmeRetryPolicy::kBackoffCapNs);
    controller_.clock().advance_ns(backoff);
  }
}

std::uint32_t NvmeQueuePair::process(std::uint32_t max_commands) {
  std::uint32_t processed = 0;
  while (sq_count_ > 0 && processed < max_commands && cq_count_ < depth_) {
    NvmeCommand& command = sq_[sq_head_];
    Status status = execute_with_retry(command);
    NvmeCompletion& completion = cq_[slot(cq_head_, cq_count_++)];
    completion.cid = command.cid;
    completion.status = std::move(status);
    completion.completed_ns = controller_.clock().now_ns();
    command = NvmeCommand{};  // releases the write payload
    sq_head_ = slot(sq_head_, 1);
    --sq_count_;
    ++processed;
  }
  return processed;
}

std::optional<NvmeCompletion> NvmeQueuePair::poll() {
  if (cq_count_ == 0) return std::nullopt;
  NvmeCompletion& completion = cq_[cq_head_];
  cq_head_ = slot(cq_head_, 1);
  --cq_count_;
  return std::move(completion);
}

std::vector<NvmeCompletion> NvmeQueuePair::drain() {
  std::vector<NvmeCompletion> completions;
  while (sq_count_ > 0 || cq_count_ > 0) {
    (void)process();
    while (auto completion = poll()) {
      completions.push_back(std::move(*completion));
    }
  }
  return completions;
}

}  // namespace rhsd
