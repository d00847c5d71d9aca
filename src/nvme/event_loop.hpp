// Asynchronous NVMe event loop over many tenants' queue pairs.
//
// §4.1 runs a victim and an attacker VM against one shared SSD; a real
// cloud host multiplexes *many* tenants' submission queues into the one
// device-side command stream.  The event loop models that multiplexer:
// it arbitrates across attached NvmeQueuePairs with a deterministic
// policy (round-robin or seed-driven weighted draw), so the interleaved
// command order — and therefore every downstream effect, from service
// timing to which DRAM rows the L2P lookups hammer — is a pure function
// of the submitted streams, the policy, and the seed.
//
// On top of the arbitration it adds sharded-bank concurrency: runs of
// single-block reads *and writes* are planned (namespace translate, L2P
// peek, predicted flash access, per-command service times in closed
// form), grouped by the DRAM bank of their L2P entry row, and executed
// in parallel on an exec::ThreadPool — one shard per bank.  Writes
// additionally reserve their NAND destination page at draft time
// through a serialized FTL allocator session (Ftl::plan_write_reserve),
// so shard execution only touches the DRAM entry; the flash programs
// and journal appends are replayed serially at commit in draft order —
// bit-identical program/erase ordering to the sequential interleaving.
// A write the planner cannot reserve (GC needed, journal half nearly
// full) flushes the batch and runs sequentially instead.  Disturbance
// never crosses a bank edge (DramDevice::neighbor clamps there), so
// shards touch disjoint row state; per-layer thread-local sinks collect
// statistics, flip events and undo state.  After the join the loop
// either commits (merge stats, splice flips back into global command
// order, bulk clock/queue accounting, post completions at their planned
// times) or — when any command's outcome diverged from its plan, e.g. a
// mid-batch flip crossed an entry over the mapped/unmapped boundary and
// changed its service cost — rolls every shard back byte-exactly and
// replays the whole batch sequentially.  Either way the result is
// bit-exact with processing the same arbitration order one command at a
// time, independent of thread count.
//
// Faults are first-class citizens of the loop, not a reason to bypass
// it.  With fault injectors attached, the batch planner consults their
// per-class op counters (pure lookahead) and cuts a batch short of any
// scheduled fault, so the faulted command runs through the sequential
// machinery at an op index bit-identical to the sequential
// interleaving; committed batches bulk-skip the fault streams they were
// proven clear of.  Injectors are detached for the duration of shard
// execution (they are not thread-safe, and an injected DRAM error would
// bypass the undo log), and the rollback path replays through the queue
// pair's own retry machinery.  On top of that sit per-tenant failure
// domains — a stream whose command exhausts its host retry policy is
// quarantined with seeded, capped exponential backoff instead of
// head-of-line-blocking every other tenant — and device-level
// degradation (read-only, powered-off) observed as explicit state
// transitions: writes fail fast for every tenant while reads keep
// flowing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "nvme/queue_pair.hpp"
#include "nvme/rate_limiter.hpp"

namespace rhsd {

/// How the loop picks the next queue pair among those with a pending
/// submission and completion-ring space.
enum class ArbitrationPolicy {
  /// NVMe's default: cycle through the ready streams in attach order.
  kRoundRobin,
  /// Seed-driven draw proportional to each stream's attach weight
  /// (weighted round-robin with randomized rotation — the shape of
  /// NVMe WRR arbitration without modeling its per-class registers).
  kWeighted,
};

[[nodiscard]] const char* to_string(ArbitrationPolicy policy);

struct EventLoopConfig {
  ArbitrationPolicy policy = ArbitrationPolicy::kRoundRobin;
  /// Seeds the kWeighted draws (and the quarantine backoff jitter);
  /// irrelevant for kRoundRobin with quarantine off.
  std::uint64_t seed = 1;
  /// Master switch for sharded-bank execution.  Off — or with no pool —
  /// every command runs sequentially through its queue pair.
  bool sharded = true;
  /// Worker pool for shard execution (not owned; must outlive the
  /// loop).  nullptr forces sequential execution.
  exec::ThreadPool* pool = nullptr;
  /// Upper bound on commands drafted into one parallel batch.
  std::uint32_t max_batch = 4096;
  /// Per-tenant failure domains: a stream whose command exhausts its
  /// queue pair's retry policy (a transport-faulted command the host
  /// gave up on) is skipped by arbitration for a deterministic number
  /// of picks — seeded, capped exponential backoff — instead of
  /// stalling every tenant behind its next head-of-line retry storm.
  bool quarantine = true;
  /// First quarantine lasts about this many picks; each further failure
  /// doubles it (capped), plus a seeded jitter in [0, base].
  std::uint32_t quarantine_base_picks = 8;
  std::uint32_t quarantine_cap_picks = 256;
};

struct EventLoopStats {
  std::uint64_t commands = 0;             // total commands retired
  std::uint64_t sequential_commands = 0;  // via NvmeQueuePair::process
  std::uint64_t sharded_commands = 0;     // committed in parallel shards
  std::uint64_t batches = 0;              // parallel batches committed
  std::uint64_t shards = 0;               // bank shards executed
  std::uint64_t rollbacks = 0;            // batches replayed sequentially
  /// Failure-domain visibility (all zero on fault-free runs).
  std::uint64_t early_flushes = 0;      // batches cut at a fault horizon
  std::uint64_t rollback_replays = 0;   // commands replayed after rollback
  std::uint64_t quarantines = 0;        // streams entering quarantine
  std::uint64_t quarantine_releases = 0;  // penalties expiring (or forced)
  std::uint64_t degraded_rejections = 0;  // mutations while read-only
  std::uint64_t device_transitions = 0;   // health-state changes observed
  /// Write-planning visibility.
  std::uint64_t sharded_writes = 0;  // writes committed via shard drafting
  std::uint64_t write_reserve_flushes = 0;  // allocator refused a reservation
  std::uint64_t rw_conflict_flushes = 0;  // read hit a drafted write's LBA
  /// Mitigation-aware sharding visibility (perf gates assert these are
  /// non-zero when a mitigated config claims to run sharded).
  /// Commands committed on the shard path with TRR, PARA, or a rate
  /// limiter active.
  std::uint64_t mitigated_sharded_commands = 0;
  /// PARA RNG draws consumed by plan-time pre-draws.
  std::uint64_t para_predraw_draws = 0;
  /// Shards whose TRR refresh deltas were folded back at batch commit.
  std::uint64_t trr_shard_merges = 0;
  /// Draft-time RateLimiter::acquire calls that returned a stall > 0.
  std::uint64_t rate_limit_plan_stalls = 0;
};

class NvmeEventLoop {
 public:
  /// `controller` must outlive the loop, and every attached queue pair
  /// must target the same controller.
  explicit NvmeEventLoop(NvmeController& controller,
                         EventLoopConfig config = {});

  NvmeEventLoop(const NvmeEventLoop&) = delete;
  NvmeEventLoop& operator=(const NvmeEventLoop&) = delete;

  /// Register a queue pair (not owned).  `weight` biases kWeighted
  /// arbitration; must be >= 1.  Returns the stream index.
  std::uint32_t attach(NvmeQueuePair& qp, std::uint32_t weight = 1);

  /// Process submissions until no attached stream is ready (every
  /// submission ring empty or completion ring full).  Completions stay
  /// in their queue pairs for the owners to poll().  Returns the number
  /// of commands retired.
  std::uint64_t run_until_idle();

  [[nodiscard]] const EventLoopConfig& config() const { return config_; }
  [[nodiscard]] const EventLoopStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }

  /// True when the device/mitigation configuration admits sharded
  /// execution right now: closed-page DRAM with no cache/ECC, inert
  /// NAND reliability model, scrub disabled, device powered and
  /// recovered.  TRR, PARA, and a rate limiter do NOT gate it: the
  /// per-bank TRR tables shard with commit-merged refresh deltas, PARA
  /// decisions are pre-drawn serially at plan time, and token-bucket
  /// stalls are computed on a draft copy of the limiter along the
  /// planned timeline.  Fault injectors do NOT gate it either: the
  /// batch planner consults their op counters and flushes before any
  /// scheduled fault, so every injected fault fires on the sequential
  /// machinery at its exact op index.
  [[nodiscard]] bool sharding_supported() const;

 private:
  struct Stream {
    NvmeQueuePair* qp = nullptr;
    std::uint32_t weight = 1;
    /// Quarantine state: remaining picks to skip and consecutive
    /// failures (drives the exponential backoff).
    std::uint64_t penalty = 0;
    std::uint32_t failures = 0;
  };

  /// One drafted command with its execution plan and (later) its
  /// outcome.
  struct Planned {
    std::uint32_t stream = 0;
    NvmeCommand cmd;
    std::uint64_t lba = 0;        // device LBA (namespace-translated)
    std::uint64_t entry_row = 0;  // global DRAM row of the L2P entry
    std::uint64_t bank = 0;       // entry_row's bank — the shard key
    bool flash = false;           // predicted flash access
    bool is_write = false;
    /// Write reservation (is_write only): the NAND page serialized by
    /// Ftl::plan_write_reserve at draft time and the write sequence it
    /// drew — commit programs exactly this page with this sequence.
    std::uint64_t reserved_pba = 0;
    std::uint64_t write_seq = 0;
    std::uint32_t old_pba32 = 0;  // pre-write mapping (shard-recorded)
    std::uint64_t start_ns = 0;   // planned clock at body execution
    std::uint64_t cost_ns = 0;    // planned service cost (incl. stalls)
    /// PARA pre-draw slice: this command consumes `acts` decisions
    /// starting at `para_offset` in the batch's pre-drawn stream.
    std::uint64_t acts = 0;
    std::uint64_t para_offset = 0;
    bool flash_actual = false;
    Status status;
  };

  /// Next stream per the arbitration policy; -1 when none is ready.
  /// `drafted[i]` counts completions stream i will receive when the
  /// current batch commits (its virtual completion-ring occupancy).
  /// Walks the set bits of work_ (64 streams per word) and the entries
  /// of penalized_, never all of streams_: a round-robin pick costs
  /// O(1) amortized plus O(quarantined streams); a weighted pick visits
  /// the streams with work twice (total, then the draw's walk).
  int pick_stream(const std::vector<std::uint32_t>& drafted);

  /// True when stream `i` has a queued submission and room in its
  /// virtual completion ring (posted + drafted < depth).
  [[nodiscard]] bool has_work(
      std::size_t i, const std::vector<std::uint32_t>& drafted) const;

  /// First stream in [from, end) whose work_ bit is set and that still
  /// has work, or `end`.  Clears the bits of streams found idle on the
  /// way (see the work_ invariant).
  std::size_t next_with_work(std::size_t from, std::size_t end,
                             const std::vector<std::uint32_t>& drafted);

  /// Classify the head submission of `stream` and, if it is shardable,
  /// fill `plan` (everything except the timing fields).  Pure peek.
  bool plan_head(std::uint32_t stream, Planned* plan) const;

  /// Execute a drafted batch: shard by bank, run in parallel, then
  /// commit or roll back + replay sequentially.  `lim_draft` is the
  /// rate-limiter copy the drafting loop replayed acquire() on (empty
  /// when no limiter is configured); on commit it is assigned back to
  /// the controller's live limiter.  Returns commands retired (always
  /// the batch size).
  std::uint64_t run_batch(std::vector<Planned>& batch,
                          const std::optional<RateLimiter>& lim_draft);

  /// Run one command of `stream` through the full sequential machinery
  /// (NvmeQueuePair::process) with failure-domain bookkeeping: degraded
  /// write rejection counting, device-health observation, and the
  /// quarantine trigger on a retry-exhausted delta.
  void process_one(std::uint32_t stream);

  /// True when a scheduled injected fault would fire within the current
  /// draft batch extended by one more command (`flash`/`is_write` = the
  /// candidate's predicted service class and direction).  `n_cmds`
  /// counts commands drafted so far, `n_flash_reads` their NAND read
  /// ticks, `n_programs` the NAND program ticks the batch plus the
  /// candidate would consume at commit (data pages plus journal record
  /// pages).  Pure lookahead over every layer's injector.
  [[nodiscard]] bool fault_blocks_draft(bool flash, bool is_write,
                                        std::uint64_t n_cmds,
                                        std::uint64_t n_flash_reads,
                                        std::uint64_t n_programs);

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
  /// submits, so sq_inflight only drains, and posted + drafted
  /// completions only grow (a flush posts exactly the completions it
  /// un-drafts, on commit and rollback alike).  So arbitration clears a
  /// set bit whose stream has run dry, and a cleared bit never has to
  /// be set again during that call.  Bits of quarantined streams stay
  /// set while they have work; arbitration skips them by penalty.
  std::vector<std::uint64_t> work_;
  /// Streams serving a quarantine penalty (penalty > 0), in no
  /// particular order.  The per-pick drain and the forced release walk
  /// this list instead of every stream; an entry a forced release
  /// zeroed leaves the list at that pick's drain.
  std::vector<std::uint32_t> penalized_;
  std::size_t cursor_ = 0;  // last stream served (round-robin)
  Rng rng_;                 // kWeighted draws
  int last_health_ = -1;    // observe_device() latch (-1 = unobserved)
  EventLoopStats stats_;
};

}  // namespace rhsd
