// NVMe submission/completion queue pair.
//
// §3.1: "existing interfaces available to unprivileged users, including
// O_DIRECT combined with high-performance asynchronous interfaces, such
// as Linux AIO or io_uring, can realize 1.5M IOPS" — the attack assumes
// deep asynchronous submission, not one-at-a-time synchronous I/O.  The
// queue pair models that surface: bounded submission and completion
// rings, command identifiers, and a doorbell-style process() step where
// the controller consumes submissions in order and posts completions.
// Timing still flows through the controller's IOPS model.
//
// Both rings are fixed arrays of `depth` slots, allocated once at
// construction, so a command costs no allocation of the queue pair's
// own (a cloud host keeps one pair per tenant and cycles every slot many
// times).  Commands leave the submission ring only at its head; a slot
// is reset when its command is processed, which releases the write
// payload it held.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "fault/fault_injector.hpp"
#include "nvme/nvme_controller.hpp"

namespace rhsd {

/// Host-side command robustness: per-command timeout detection and
/// bounded retry with capped exponential backoff, the way kernel NVMe
/// drivers recover from lost or stalled commands.
struct NvmeRetryPolicy {
  /// Total attempts per command (1 = no retry).
  std::uint32_t max_attempts = 1;
  /// Simulated time the host waits before declaring an attempt dead
  /// (charged on every timeout/drop).
  std::uint64_t timeout_ns = 1'000'000;  // 1 ms
  /// Backoff before attempt k+1 is min(base << (k-1), cap).
  static constexpr std::uint64_t kBackoffBaseNs = 100'000;
  static constexpr std::uint64_t kBackoffCapNs = 10'000'000;
};

struct NvmeQueueStats {
  std::uint64_t timeouts = 0;  // attempts that timed out device-side
  std::uint64_t drops = 0;     // attempts that vanished in transit
  std::uint64_t retries = 0;   // re-submissions after a failed attempt
  /// Commands that returned a retryable transport status on their final
  /// attempt — the host gave up.  The event loop treats a delta here as
  /// the tenant's failure-domain signal (quarantine trigger).
  std::uint64_t retry_exhausted = 0;
};

struct NvmeCommand {
  enum class Op { kRead, kWrite, kTrim, kFlush };

  Op op = Op::kFlush;
  std::uint16_t cid = 0;  // caller-chosen command id
  std::uint32_t nsid = 1;
  std::uint64_t slba = 0;
  std::uint32_t nblocks = 1;  // for trim
  /// Read destination; must stay alive until the completion is polled.
  std::span<std::uint8_t> read_buf;
  /// Write payload (copied at submission; multiples of 4 KiB).
  std::vector<std::uint8_t> write_data;

  [[nodiscard]] static NvmeCommand Read(std::uint16_t cid,
                                        std::uint32_t nsid,
                                        std::uint64_t slba,
                                        std::span<std::uint8_t> buf);
  [[nodiscard]] static NvmeCommand Write(std::uint16_t cid,
                                         std::uint32_t nsid,
                                         std::uint64_t slba,
                                         std::vector<std::uint8_t> data);
  [[nodiscard]] static NvmeCommand Trim(std::uint16_t cid,
                                        std::uint32_t nsid,
                                        std::uint64_t slba,
                                        std::uint32_t nblocks);
  [[nodiscard]] static NvmeCommand Flush(std::uint16_t cid,
                                         std::uint32_t nsid);
};

struct NvmeCompletion {
  std::uint16_t cid = 0;
  Status status;
  SimClock::Nanos completed_ns = 0;
};

class NvmeQueuePair {
 public:
  /// `controller` must outlive the queue pair.
  NvmeQueuePair(NvmeController& controller, std::uint16_t qid,
                std::uint32_t depth);

  NvmeQueuePair(const NvmeQueuePair&) = delete;
  NvmeQueuePair& operator=(const NvmeQueuePair&) = delete;

  /// Enqueue a command. ResourceExhausted when the submission ring is
  /// full (caller must process()/poll() first — queue-depth
  /// back-pressure, exactly what bounds real io_uring pipelines).
  Status submit(NvmeCommand command);

  /// Ring the doorbell: the controller consumes up to `max_commands`
  /// submissions in order, executes them against the device (advancing
  /// simulated time), and posts completions.  Stops early if the
  /// completion ring fills.  Returns commands processed.
  std::uint32_t process(std::uint32_t max_commands = ~0u);

  /// Pop the oldest completion, if any.
  std::optional<NvmeCompletion> poll();

  /// The next submission to run, or nullptr.  The event loop peeks it
  /// to count writes rejected by a read-only device.
  [[nodiscard]] const NvmeCommand* peek_submission() const {
    return sq_count_ == 0 ? nullptr : &sq_[sq_head_];
  }

  /// Convenience: process everything submitted and drain completions.
  std::vector<NvmeCompletion> drain();

  [[nodiscard]] std::uint16_t qid() const { return qid_; }
  [[nodiscard]] std::uint32_t depth() const { return depth_; }
  [[nodiscard]] std::uint32_t sq_inflight() const { return sq_count_; }
  [[nodiscard]] std::uint32_t cq_pending() const { return cq_count_; }

  void set_retry_policy(NvmeRetryPolicy policy) { policy_ = policy; }
  [[nodiscard]] const NvmeRetryPolicy& retry_policy() const {
    return policy_;
  }
  /// Attach a fault injector (nullptr detaches).  Forwarded to the
  /// controller: transport faults are consumed at the namespace front
  /// end — one kNvmeTimeout and one kNvmeDrop op index per dispatched
  /// command (also for commands rejected at the namespace boundary), so
  /// every attempt of the retry loop advances both streams.  The queue
  /// pair observes the injected outcome through the controller's stats
  /// and handles host-side timing: waiting out the deadline, counting
  /// timeouts/drops, and retrying per the policy.
  void set_fault_injector(FaultInjector* injector) {
    controller_.set_fault_injector(injector);
  }
  [[nodiscard]] const NvmeQueueStats& queue_stats() const { return stats_; }

 private:
  /// One command through the attempt/timeout/backoff loop.
  Status execute_with_retry(const NvmeCommand& command);
  Status execute_once(const NvmeCommand& command);
  /// Ring slot `k` places after `head` (k < depth_).
  [[nodiscard]] std::uint32_t slot(std::uint32_t head,
                                   std::uint32_t k) const {
    const std::uint32_t i = head + k;
    return i >= depth_ ? i - depth_ : i;
  }

  NvmeController& controller_;
  std::uint16_t qid_;
  std::uint32_t depth_;
  NvmeRetryPolicy policy_;
  /// Submission ring: sq_count_ commands from slot sq_head_ on.
  std::vector<NvmeCommand> sq_;
  std::uint32_t sq_head_ = 0;
  std::uint32_t sq_count_ = 0;
  /// Completion ring, the same way.
  std::vector<NvmeCompletion> cq_;
  std::uint32_t cq_head_ = 0;
  std::uint32_t cq_count_ = 0;
  NvmeQueueStats stats_;
};

}  // namespace rhsd
