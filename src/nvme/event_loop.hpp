// Asynchronous NVMe event loop over many tenants' queue pairs.
//
// §4.1 runs a victim and an attacker VM against one shared SSD; a real
// cloud host multiplexes *many* tenants' submission queues into the one
// device-side command stream.  The event loop models that multiplexer:
// it arbitrates across attached NvmeQueuePairs round-robin (NVMe's
// default arbitration), so the interleaved command order — and
// therefore every downstream effect, from service timing to which DRAM
// rows the L2P lookups hammer — is a pure function of the submitted
// streams and the seed (which only the quarantine jitter reads).
//
// Each pick runs exactly one command through the queue pair's own
// machinery (NvmeQueuePair::process), in pick order, so an injected
// fault fires at its op index inside the picked command and is handled
// there (retry, degradation, recovery).  On top of that sit per-tenant
// failure domains — a stream whose command exhausts its host retry
// policy is quarantined with seeded, capped exponential backoff instead
// of head-of-line-blocking every other tenant — and device-level
// degradation (read-only, powered-off) observed as explicit state
// transitions: writes fail fast for every tenant while reads keep
// flowing.
#pragma once

#include <cstdint>
#include <vector>

#include "nvme/queue_pair.hpp"

namespace rhsd {

struct EventLoopConfig {
  /// Seeds the quarantine backoff jitter.
  std::uint64_t seed = 1;
};

struct EventLoopStats {
  std::uint64_t commands = 0;  // total commands retired
  /// Failure-domain visibility (all zero on fault-free runs).
  std::uint64_t quarantines = 0;          // streams entering quarantine
  std::uint64_t quarantine_releases = 0;  // penalties expiring (or forced)
  std::uint64_t degraded_rejections = 0;  // mutations while read-only
  std::uint64_t device_transitions = 0;   // health-state changes observed
};

class NvmeEventLoop {
 public:
  /// `controller` must outlive the loop, and every attached queue pair
  /// must target the same controller.
  explicit NvmeEventLoop(NvmeController& controller,
                         EventLoopConfig config = {});

  NvmeEventLoop(const NvmeEventLoop&) = delete;
  NvmeEventLoop& operator=(const NvmeEventLoop&) = delete;

  /// Per-tenant failure domains: a stream whose command exhausts its
  /// queue pair's retry policy (a transport-faulted command the host
  /// gave up on) is skipped by arbitration for a deterministic number
  /// of picks instead of stalling every tenant behind its next
  /// head-of-line retry storm.  The first quarantine lasts
  /// kQuarantineBasePicks; each further failure doubles it, capped at
  /// kQuarantineCapPicks, plus a seeded jitter in [0, base].
  static constexpr std::uint32_t kQuarantineBasePicks = 8;
  static constexpr std::uint32_t kQuarantineCapPicks = 256;

  /// Register a queue pair (not owned).  Returns the stream index.
  std::uint32_t attach(NvmeQueuePair& qp);

  /// Process submissions until no attached stream is ready (every
  /// submission ring empty or completion ring full).  Completions stay
  /// in their queue pairs for the owners to poll().  Returns the number
  /// of commands retired.
  std::uint64_t run_until_idle();

  [[nodiscard]] const EventLoopStats& stats() const { return stats_; }

 private:
  struct Stream {
    NvmeQueuePair* qp = nullptr;
    /// Quarantine state: remaining picks to skip and consecutive
    /// failures (drives the exponential backoff).
    std::uint64_t penalty = 0;
    std::uint32_t failures = 0;
  };

  /// The first ready stream after the last one served, round-robin
  /// (when every stream with work is quarantined, the smallest penalty
  /// is released first); -1 when no stream has work.  Walks the set
  /// bits of work_ (64 streams per word) and the entries of penalized_,
  /// never all of streams_: a pick costs O(1) amortized plus
  /// O(quarantined streams).
  int pick_stream();

  /// True when stream `i` has a queued submission and room in its
  /// completion ring.
  [[nodiscard]] bool has_work(std::size_t i) const;

  /// First stream in [from, end) whose work_ bit is set and that still
  /// has work, or `end`.  Clears the bits of streams found idle on the
  /// way (see the work_ invariant).
  std::size_t next_with_work(std::size_t from, std::size_t end);

  /// Run one command of `stream` through its queue pair's own machinery
  /// (NvmeQueuePair::process) with failure-domain bookkeeping: degraded
  /// write rejection counting, device-health observation, and the
  /// quarantine trigger on a retry-exhausted delta.
  void process_one(std::uint32_t stream);

  /// Record device-health transitions (powered off / needs recovery /
  /// read-only) in stats_.device_transitions.
  void observe_device();

  /// Put `stream` into quarantine after a retry-exhausted command.
  void apply_quarantine(std::uint32_t stream);

  NvmeController& controller_;
  EventLoopConfig config_;
  std::vector<Stream> streams_;
  /// Work bitmap, one bit per stream (bit i % 64 of word i / 64): set
  /// when stream i may have work.  run_until_idle() rebuilds it in O(N)
  /// on entry — the host submits and polls only between calls.  Within
  /// one call a stream can only *lose* work: nothing inside the loop
  /// submits or polls, so sq_inflight only drains and cq_pending only
  /// grows.  So arbitration clears a set bit whose stream has run dry,
  /// and a cleared bit never has to be set again during that call.
  /// Bits of quarantined streams stay set while they have work;
  /// arbitration skips them by penalty.
  std::vector<std::uint64_t> work_;
  /// Streams serving a quarantine penalty (penalty > 0), in no
  /// particular order.  The per-pick drain and the forced release walk
  /// this list instead of every stream; an entry a forced release
  /// zeroed leaves the list at that pick's drain.
  std::vector<std::uint32_t> penalized_;
  std::size_t cursor_ = 0;  // last stream served
  int last_health_ = -1;    // observe_device() latch (-1 = unobserved)
  EventLoopStats stats_;
};

}  // namespace rhsd
