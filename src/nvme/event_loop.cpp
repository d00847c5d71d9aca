#include "nvme/event_loop.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"
#include "ftl/l2p_layout.hpp"

namespace rhsd {
namespace {

/// Host-buffer aliasing bookkeeping for one draft batch.  Two drafted
/// reads landing in different bank shards but sharing bytes of one host
/// buffer would race on it (and the survivor would be the faster shard,
/// not the later command), so a cross-bank overlap forces a batch
/// boundary.  Intervals are kept disjoint, each tagged with the single
/// bank that may touch it.
class BufferAliasMap {
 public:
  /// True when [lo, hi) overlaps an interval owned by another bank.
  [[nodiscard]] bool conflicts(const std::uint8_t* lo,
                               const std::uint8_t* hi,
                               std::uint64_t bank) const {
    auto it = map_.upper_bound(lo);
    if (it != map_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > lo && prev->second.bank != bank) return true;
    }
    for (; it != map_.end() && it->first < hi; ++it) {
      if (it->second.bank != bank) return true;
    }
    return false;
  }

  /// Record [lo, hi) as touched by `bank`, merging same-bank overlaps.
  /// Precondition: !conflicts(lo, hi, bank).
  /// Merely *adjacent* intervals stay separate: distinct host buffers
  /// can abut in the heap, and gluing them together would tag the
  /// second buffer with the first one's bank — turning allocator
  /// layout into spurious (build-dependent) cross-bank conflicts.
  void add(const std::uint8_t* lo, const std::uint8_t* hi,
           std::uint64_t bank) {
    auto it = map_.upper_bound(lo);
    if (it != map_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > lo) {
        lo = prev->first;
        hi = std::max(hi, prev->second.end);
        it = map_.erase(prev);
      }
    }
    while (it != map_.end() && it->first < hi) {
      hi = std::max(hi, it->second.end);
      it = map_.erase(it);
    }
    map_.emplace(lo, Interval{hi, bank});
  }

  void clear() { map_.clear(); }

 private:
  struct Interval {
    const std::uint8_t* end = nullptr;
    std::uint64_t bank = 0;
  };
  std::map<const std::uint8_t*, Interval> map_;
};

}  // namespace

const char* to_string(ArbitrationPolicy policy) {
  switch (policy) {
    case ArbitrationPolicy::kRoundRobin:
      return "round_robin";
    case ArbitrationPolicy::kWeighted:
      return "weighted";
  }
  return "unknown";
}

NvmeEventLoop::NvmeEventLoop(NvmeController& controller,
                             EventLoopConfig config)
    : controller_(controller), config_(config), rng_(config.seed) {}

std::uint32_t NvmeEventLoop::attach(NvmeQueuePair& qp, std::uint32_t weight) {
  RHSD_CHECK_MSG(weight >= 1, "arbitration weight must be >= 1");
  streams_.push_back(Stream{&qp, weight});
  return static_cast<std::uint32_t>(streams_.size() - 1);
}

bool NvmeEventLoop::sharding_supported() const {
  Ftl& ftl = controller_.ftl();
  DramDevice& dram = ftl.dram();
  NandDevice& nand = ftl.nand();
  if (ftl.powered_off() || ftl.needs_recovery()) return false;
  // An armed scrub interval advances per-IO state on every read.
  if (ftl.config().scrub_interval_ios > 0 && ftl.journal() != nullptr) {
    return false;
  }
  // TRR, PARA, and a rate limiter do NOT gate sharding: the Misra–Gries
  // tables are per bank (shard-disjoint) with refresh deltas merged at
  // commit and a tracker snapshot restored on rollback; PARA decisions
  // are pre-drawn from the global RNG serially at plan time in scalar
  // activation order; token-bucket stalls are replayed on a draft copy
  // of the limiter along the planned timeline.  The gates below are the
  // mechanisms that remain inherently cross-bank or outside the shard
  // undo logs:
  //  * open-page row buffers — hit/miss accounting depends on the
  //    global activation order across banks sharing a command stream;
  //  * ECC — a scalar read scrubs corrupted words in place, and which
  //    words are corrupted depends on the interleaving of flips and
  //    reads within the batch;
  //  * the CPU cache — one global LRU whose hit pattern is a function
  //    of total command order;
  //  * a non-inert NAND reliability model — every flash access draws
  //    from a device-global RNG stream.
  const DramConfig& dc = dram.config();
  if (dc.row_buffer_policy != RowBufferPolicy::kClosedPage) return false;
  if (dc.mitigations.ecc || dc.mitigations.cache.has_value()) {
    return false;
  }
  const NandReliability& rel = nand.reliability();
  if (rel.base_rber > 0.0 || rel.wear_rber_per_pe > 0.0 ||
      rel.read_disturb_rber_per_read > 0.0) {
    return false;
  }
  return true;
}

bool NvmeEventLoop::has_work(
    std::size_t i, const std::vector<std::uint32_t>& drafted) const {
  const NvmeQueuePair& qp = *streams_[i].qp;
  return qp.sq_inflight() > 0 && qp.cq_pending() + drafted[i] < qp.depth();
}

std::size_t NvmeEventLoop::next_with_work(
    std::size_t from, std::size_t end,
    const std::vector<std::uint32_t>& drafted) {
  while (from < end) {
    const std::size_t w = from / 64;
    std::uint64_t bits = work_[w] & (~0ull << (from % 64));
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + std::countr_zero(bits);
      if (i >= end) return end;
      if (has_work(i, drafted)) return i;
      work_[w] &= ~(1ull << (i % 64));  // ran dry; stays dry this call
    }
    from = (w + 1) * 64;
  }
  return end;
}

int NvmeEventLoop::pick_stream(const std::vector<std::uint32_t>& drafted) {
  const std::size_t n = streams_.size();
  if (n == 0) return -1;
  // A stream is ready when it has work — a queued submission and
  // virtual completion-ring space (posted + drafted-but-uncommitted),
  // exactly the state the sequential loop would see after executing
  // every draft so far — and it is not serving a quarantine penalty.
  // Only streams with their work_ bit set can have work.
  const auto arbitrate = [&]() -> int {
    if (config_.policy == ArbitrationPolicy::kRoundRobin) {
      // The first ready stream after cursor_, wrapping through cursor_
      // itself: the cyclic order (cursor_ + k) % n for k = 1..n.
      const auto first_ready = [&](std::size_t from, std::size_t end) {
        std::size_t i = next_with_work(from, end, drafted);
        while (i < end && streams_[i].penalty != 0) {
          i = next_with_work(i + 1, end, drafted);
        }
        return i;
      };
      std::size_t i = first_ready(cursor_ + 1, n);
      if (i == n) {
        i = first_ready(0, cursor_ + 1);
        if (i == cursor_ + 1) return -1;
      }
      cursor_ = i;
      return static_cast<int>(i);
    }
    // kWeighted: one seeded draw per successful pick, proportional to
    // the attach weights of the currently ready streams, walked in
    // index order.
    std::uint64_t total = 0;
    for (std::size_t i = next_with_work(0, n, drafted); i < n;
         i = next_with_work(i + 1, n, drafted)) {
      if (streams_[i].penalty == 0) total += streams_[i].weight;
    }
    if (total == 0) return -1;
    std::uint64_t r = rng_.next_below(total);
    for (std::size_t i = next_with_work(0, n, drafted); i < n;
         i = next_with_work(i + 1, n, drafted)) {
      if (streams_[i].penalty != 0) continue;
      if (r < streams_[i].weight) {
        cursor_ = i;
        return static_cast<int>(i);
      }
      r -= streams_[i].weight;
    }
    RHSD_CHECK_MSG(false, "weighted draw out of range");
    return -1;
  };
  int pick = arbitrate();
  if (pick < 0) {
    // Forward progress: when every stream with work is quarantined, the
    // loop must not report idle with commands still queued.  Force the
    // smallest remaining penalty open (lowest index on ties — explicit,
    // since penalized_ is not in index order) and re-arbitrate.
    std::size_t best = n;
    for (const std::uint32_t i : penalized_) {
      if (!has_work(i, drafted)) continue;
      const std::uint64_t p = streams_[i].penalty;
      if (best == n || p < streams_[best].penalty ||
          (p == streams_[best].penalty && i < best)) {
        best = i;
      }
    }
    if (best == n) return -1;
    streams_[best].penalty = 0;
    streams_[best].failures = 0;
    ++stats_.quarantine_releases;
    pick = arbitrate();
    RHSD_CHECK_MSG(pick >= 0, "forced release must yield a pick");
  }
  // Serving a pick burns exactly one quarantine tick on every penalized
  // stream — including picks that needed a forced release.  The drain
  // sits at the function's single exit so it cannot run twice per pick.
  for (std::size_t k = 0; k < penalized_.size();) {
    Stream& st = streams_[penalized_[k]];
    if (st.penalty > 0) {  // 0: a forced release already counted it
      if (--st.penalty > 0) {
        ++k;
        continue;
      }
      ++stats_.quarantine_releases;
    }
    penalized_[k] = penalized_.back();
    penalized_.pop_back();
  }
  return pick;
}

bool NvmeEventLoop::plan_head(std::uint32_t stream, Planned* plan) const {
  const NvmeQueuePair& qp = *streams_[stream].qp;
  const NvmeCommand* cmd = qp.peek_submission();
  RHSD_CHECK(cmd != nullptr);
  const bool is_write = cmd->op == NvmeCommand::Op::kWrite;
  if (cmd->op != NvmeCommand::Op::kRead && !is_write) return false;
  const std::size_t bytes =
      is_write ? cmd->write_data.size() : cmd->read_buf.size();
  if (bytes != kBlockSize) return false;
  // The namespace translation must be known to succeed, otherwise the
  // sequential error/stats path must run.
  if (cmd->nsid < 1 || cmd->nsid > controller_.namespace_count()) {
    return false;
  }
  const NvmeNamespaceConfig& ns = controller_.namespace_info(cmd->nsid);
  if (cmd->slba >= ns.blocks) return false;
  const std::uint64_t lba = ns.start.value() + cmd->slba;

  Ftl& ftl = controller_.ftl();
  // A read-only device rejects the write at guard_op with its own
  // status and stats path; only the sequential machinery models that
  // (and counts the degraded rejection).
  if (is_write && ftl.read_only()) return false;
  DramDevice& dram = ftl.dram();
  const DramGeometry& geom = dram.mapper().geometry();
  const DramAddr addr = ftl.layout().entry_addr(lba);
  // An entry straddling a row end decomposes into reads of two rows —
  // potentially two banks — which would break shard disjointness.
  if (addr.value() % geom.row_bytes + L2pLayout::kEntryBytes >
      geom.row_bytes) {
    return false;
  }
  const DramCoord coord = dram.mapper().decode(addr);
  plan->lba = lba;
  plan->entry_row = coord.global_row(geom);
  plan->bank = coord.flat_bank(geom);
  plan->is_write = is_write;
  if (is_write) {
    // A write always programs its data page, so its service class is
    // flash regardless of the current mapping.
    plan->flash = true;
    return true;
  }
  // Predicted service class.  The FTL treats corrupted-beyond-device
  // entries exactly like unmapped ones, so the peek mirrors its test.
  const std::uint32_t pba32 = ftl.debug_lookup(Lba(lba));
  plan->old_pba32 = pba32;
  plan->flash = pba32 != kUnmappedPba32 &&
                pba32 < ftl.nand().geometry().total_pages();
  return true;
}

std::uint64_t NvmeEventLoop::run_batch(
    std::vector<Planned>& batch,
    const std::optional<RateLimiter>& lim_draft) {
  RHSD_CHECK(!batch.empty());
  Ftl& ftl = controller_.ftl();
  DramDevice& dram = ftl.dram();
  NandDevice& nand = ftl.nand();

  // Timeline: the drafting loop already placed every command at the
  // clock value the sequential loop would show (batch-start clock plus
  // every earlier command's service charge, token-bucket stalls
  // included).
  RHSD_CHECK(batch.front().start_ns == controller_.clock().now_ns());
  std::uint64_t total_cost = 0;
  for (const Planned& p : batch) total_cost += p.cost_ns;

  // Mitigation prologue, all serial.  Snapshot the device-global state
  // the shards will advance outside the undo logs (TRR tracker + window
  // tag, PARA RNG), roll the tracker into the current refresh window
  // (the drafting loop never batches across a window boundary with TRR
  // on), and pre-draw the batch's PARA stream in scalar activation
  // order — exactly one decision per planned activation, sliced per
  // command.
  const DramConfig& dc = dram.config();
  const bool trr_on = dc.mitigations.trr;
  const bool para_on = dc.mitigations.para_probability > 0.0;
  const bool mitigated = trr_on || para_on || lim_draft.has_value();
  DramDevice::MitigationSnapshot mit_snap;
  if (trr_on || para_on) {
    mit_snap = dram.mitigation_snapshot();
    dram.roll_trr_window();
  }
  std::vector<std::uint8_t> para_draws;
  std::uint64_t predraw_draws = 0;
  if (para_on) {
    std::uint64_t total_acts = 0;
    for (Planned& p : batch) {
      p.acts = p.is_write ? ftl.planned_write_activations()
                          : ftl.planned_read_activations();
      p.para_offset = total_acts;
      total_acts += p.acts;
    }
    predraw_draws = dram.para_predraw(total_acts, para_draws);
  }

  // Group by bank in first-touch order; each shard executes its
  // commands serially, in global draft order.
  std::unordered_map<std::uint64_t, std::size_t> bank_shard;
  std::vector<std::vector<std::uint32_t>> shards;
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    const auto [it, fresh] =
        bank_shard.try_emplace(batch[i].bank, shards.size());
    if (fresh) shards.emplace_back();
    shards[it->second].push_back(i);
  }

  // Pre-warm the disturbance model for every row a shard may victim-
  // check: min_threshold() materializes the per-row caches (including
  // the vulnerable-cell map), whose first-touch insertion is not safe
  // under concurrency; afterwards shard access is read-only.
  DisturbanceModel& model = dram.disturbance();
  const int dist = model.profile().half_double_weight > 0.0 ? 2 : 1;
  const std::uint32_t rows_per_bank = dram.config().geometry.rows_per_bank;
  for (const Planned& p : batch) {
    const std::int64_t in_bank =
        static_cast<std::int64_t>(p.entry_row % rows_per_bank);
    for (int d = -dist; d <= dist; ++d) {
      if (d == 0) continue;
      if (in_bank + d < 0 ||
          in_bank + d >= static_cast<std::int64_t>(rows_per_bank)) {
        continue;
      }
      (void)model.min_threshold(p.entry_row + d);
    }
  }

  struct ShardResult {
    DramShardSink dram;
    FtlStats ftl;
    NandShardSink nand;
  };
  std::vector<ShardResult> results(shards.size());
  std::atomic<bool> diverged{false};
  bool batch_has_write = false;
  for (const Planned& p : batch) batch_has_write |= p.is_write;
  // Detach the device-side injectors for the parallel section: the
  // FaultInjector is not thread-safe, an injected DRAM bit error would
  // mutate row bytes behind the shard undo log, and an injected NAND
  // fault bumps device-global stats.  The planner already proved the
  // batch clear of every scheduled fault, so the detachment changes
  // nothing observable; the commit below bulk-skips the fault streams
  // to keep later op indices aligned.
  Ftl& ftl_dev = ftl;
  FaultInjector* const ftl_inj = ftl_dev.fault_injector();
  FaultInjector* const dram_inj = dram.fault_injector();
  FaultInjector* const nand_inj = nand.fault_injector();
  ftl_dev.set_fault_injector(nullptr);
  dram.set_fault_injector(nullptr);
  nand.set_fault_injector(nullptr);
  exec::ParallelFor(
      *config_.pool, 0, shards.size(), [&](std::uint64_t si) {
        ShardResult& res = results[si];
        DramDevice::bind_shard_sink(&res.dram);
        Ftl::bind_shard_stats(&res.ftl);
        NandDevice::bind_shard_sink(&res.nand);
        for (const std::uint32_t idx : shards[si]) {
          Planned& p = batch[idx];
          res.dram.now_ns = p.start_ns;
          res.dram.order = idx;
          if (para_on) {
            // Hand the command its pre-drawn PARA slice; para_decide()
            // consumes one entry per activation.
            res.dram.para_draws = para_draws.data();
            res.dram.para_next = p.para_offset;
            res.dram.para_end = p.para_offset + p.acts;
          }
          if (p.is_write) {
            // Only the DRAM side of the write runs in the shard: bump
            // host_writes, read the old mapping, store the reserved
            // page.  The flash program and journal append replay
            // serially at commit, in draft order.
            p.status = ftl.shard_write_entry(
                Lba(p.lba), static_cast<std::uint32_t>(p.reserved_pba),
                &p.old_pba32);
            p.flash_actual = true;
          } else {
            FtlIoInfo info;
            p.status = ftl.read(Lba(p.lba), p.cmd.read_buf, &info);
            p.flash_actual = info.flash_accessed;
            if (batch_has_write && info.pba32 != p.old_pba32) {
              // A mid-batch flip moved this read's mapping.  Harmless
              // in a read-only batch (every page's content is static),
              // but here it could point at a page a drafted write
              // reserved — which sequential execution would already
              // have programmed.  Roll back and replay.
              diverged.store(true, std::memory_order_relaxed);
              break;
            }
          }
          if (!p.status.ok() || p.flash_actual != p.flash) {
            // The plan (and with it the whole batch timeline) is wrong;
            // stop this shard, the batch will roll back.
            diverged.store(true, std::memory_order_relaxed);
            break;
          }
          if (para_on && res.dram.para_next != res.dram.para_end) {
            // The command performed fewer activations than the planner
            // predicted, so every later command's slice is misaligned
            // with the scalar RNG stream.  Roll back and replay.
            diverged.store(true, std::memory_order_relaxed);
            break;
          }
        }
        DramDevice::bind_shard_sink(nullptr);
        Ftl::bind_shard_stats(nullptr);
        NandDevice::bind_shard_sink(nullptr);
      });
  ftl_dev.set_fault_injector(ftl_inj);
  dram.set_fault_injector(dram_inj);
  nand.set_fault_injector(nand_inj);

  stats_.shards += shards.size();
  if (!diverged.load(std::memory_order_relaxed)) {
    for (const ShardResult& res : results) {
      dram.merge_shard_stats(res.dram.stats);
      dram.merge_shard_bases(res.dram);
      ftl.merge_shard_stats(res.ftl);
      nand.merge_shard_sink(res.nand);
    }
    if (trr_on) stats_.trr_shard_merges += shards.size();
    stats_.para_predraw_draws += predraw_draws;
    // Splice the shards' flips back into one global stream, ordered by
    // (command index, emission order within the command) — the order
    // the sequential loop would have emitted them in.
    std::vector<DramShardSink::OrderedFlip> flips;
    for (const ShardResult& res : results) {
      flips.insert(flips.end(), res.dram.flips.begin(),
                   res.dram.flips.end());
    }
    std::sort(flips.begin(), flips.end(),
              [](const DramShardSink::OrderedFlip& a,
                 const DramShardSink::OrderedFlip& b) {
                return a.order != b.order ? a.order < b.order
                                          : a.seq < b.seq;
              });
    for (const DramShardSink::OrderedFlip& f : flips) {
      dram.append_flip_event(f.flip);
    }
    // Replay the writes' flash programs and journal appends serially,
    // in draft order — the page each one programs was serialized by the
    // draft-time allocator session, so the program/erase order is
    // bit-identical to the sequential interleaving.  The injectors are
    // live again here, which makes the kNandProgram stream tick
    // naturally (no skip below); the planner proved the window clear of
    // scheduled program faults, so a failure is a plan bug, not a
    // runtime condition.
    std::uint64_t n_writes = 0;
    for (Planned& p : batch) {
      if (!p.is_write) continue;
      ++n_writes;
      const Status ws = ftl.commit_planned_write(
          Lba(p.lba),
          Ftl::PlannedWrite{Pba(p.reserved_pba), p.write_seq},
          p.old_pba32,
          std::span<const std::uint8_t>(p.cmd.write_data));
      RHSD_CHECK_MSG(ws.ok(), "planned write commit cannot fail");
    }
    ftl.end_write_reservations();
    if (lim_draft.has_value()) {
      // The draft replayed every acquire() the sequential charges would
      // have made; the drained copy IS the post-batch limiter state.
      *controller_.rate_limiter() = *lim_draft;
    }
    controller_.account_sharded_commands(batch.size() - n_writes, n_writes,
                                         total_cost);
    // Advance the device-side fault streams past the batch: one host op
    // (kPowerLoss) and one L2P entry read (kDramBitError) per command,
    // one flash read per flash-class *read*.  The planner proved every
    // skipped op fault-free, so the skip is exactly what sequential
    // execution would have consumed.  kNandProgram needs no skip: the
    // commit loop above programmed through the live injectors.
    if (ftl_inj != nullptr || dram_inj != nullptr || nand_inj != nullptr) {
      std::uint64_t flash_reads = 0;
      for (const Planned& p : batch) {
        flash_reads += (!p.is_write && p.flash) ? 1 : 0;
      }
      ftl.skip_injected_power_losses(batch.size());
      dram.skip_injected_read_faults(batch.size());
      nand.skip_injected_read_faults(flash_reads);
    }
    for (const Planned& p : batch) {
      streams_[p.stream].qp->post_external_completion(
          NvmeCompletion{p.cmd.cid, p.status, p.start_ns + p.cost_ns});
    }
    ++stats_.batches;
    stats_.sharded_commands += batch.size();
    stats_.sharded_writes += n_writes;
    if (mitigated) stats_.mitigated_sharded_commands += batch.size();
  } else {
    // Roll every shard back byte-exactly (FTL/NAND sinks just drop) and
    // replay the drafted commands sequentially — same commands, same
    // order, through the queue pair's own retry machinery, so even a
    // fault the planner could not predict (a NAND-read fault whose op
    // window shifted with the mapped/unmapped divergence) lands on the
    // identical host path the sequential interleaving would have run.
    // The shard undo logs cover the writes' L2P mutations too (every
    // overwritten entry byte), and the allocator session rewinds its
    // reservations, so the replayed writes re-allocate the same pages
    // from pristine state.
    for (const ShardResult& res : results) {
      dram.rollback_shard(res.dram);
    }
    if (trr_on || para_on) {
      // The shards advanced the per-bank TRR tables in place and the
      // prologue consumed the PARA RNG; both live outside the undo
      // logs, so restore the whole-state snapshot (the buffered sink
      // baselines are simply dropped).
      dram.restore_mitigation_state(mit_snap);
    }
    ftl.rollback_write_reservations();
    ++stats_.rollbacks;
    for (const Planned& p : batch) {
      NvmeQueuePair& qp = *streams_[p.stream].qp;
      const Status s = qp.execute_external(p.cmd);
      qp.post_external_completion(
          NvmeCompletion{p.cmd.cid, s, controller_.clock().now_ns()});
      ++stats_.rollback_replays;
    }
    stats_.sequential_commands += batch.size();
  }
  stats_.commands += batch.size();
  return batch.size();
}

void NvmeEventLoop::process_one(std::uint32_t stream) {
  NvmeQueuePair& qp = *streams_[stream].qp;
  Ftl& ftl = controller_.ftl();
  if (ftl.read_only()) {
    const NvmeCommand* head = qp.peek_submission();
    if (head != nullptr && (head->op == NvmeCommand::Op::kWrite ||
                            head->op == NvmeCommand::Op::kTrim)) {
      ++stats_.degraded_rejections;
    }
  }
  const std::uint64_t exhausted_before = qp.queue_stats().retry_exhausted;
  qp.process(1);
  ++stats_.sequential_commands;
  ++stats_.commands;
  observe_device();
  if (config_.quarantine &&
      qp.queue_stats().retry_exhausted != exhausted_before) {
    apply_quarantine(stream);
  }
}

void NvmeEventLoop::apply_quarantine(std::uint32_t stream) {
  Stream& st = streams_[stream];
  ++st.failures;
  const std::uint32_t shift = std::min(st.failures - 1, 31u);
  std::uint64_t penalty =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(
                                  config_.quarantine_base_picks)
                                  << shift,
                              config_.quarantine_cap_picks);
  // Seeded jitter decorrelates tenants that fail in lockstep.  It runs
  // on its own SplitMix64 stream — never rng_ — so quarantine does not
  // perturb the kWeighted draw sequence shared with sequential mode.
  std::uint64_t mix = config_.seed ^
                      (0x9E3779B97F4A7C15ull * (stream + 1ull)) ^
                      (0xBF58476D1CE4E5B9ull * st.failures);
  penalty += SplitMix64(mix) % (config_.quarantine_base_picks + 1ull);
  st.penalty = penalty;
  if (penalty > 0) penalized_.push_back(stream);
  ++stats_.quarantines;
}

void NvmeEventLoop::observe_device() {
  Ftl& ftl = controller_.ftl();
  const int health = ftl.powered_off()      ? 3
                     : ftl.needs_recovery() ? 2
                     : ftl.read_only()      ? 1
                                            : 0;
  if (last_health_ >= 0 && health != last_health_) {
    ++stats_.device_transitions;
  }
  last_health_ = health;
}

bool NvmeEventLoop::fault_blocks_draft(bool flash, bool is_write,
                                       std::uint64_t n_cmds,
                                       std::uint64_t n_flash_reads,
                                       std::uint64_t n_programs) {
  const auto within = [](const FaultInjector* inj, FaultClass cls,
                         std::uint64_t ticks) {
    if (inj == nullptr || ticks == 0) return false;
    const std::uint64_t at = inj->next_fault_at(cls);
    return at != FaultInjector::kNoFault && at < inj->ops(cls) + ticks;
  };
  Ftl& ftl = controller_.ftl();
  // Ops the batch-plus-candidate would consume per fault stream: one
  // transport dispatch (timeout and drop), one host op, and one L2P
  // entry read per command; one flash read per flash-class *read*; the
  // caller-supplied program count (data pages plus journal record
  // pages) for writes.  Programs tick live at commit — with the
  // injectors reattached — so a program fault inside the window would
  // fire mid-commit where nothing can roll it back; the draft must stop
  // short of it.
  const std::uint64_t cmds = n_cmds + 1;
  const FaultInjector* const host_inj = controller_.fault_injector();
  const FaultInjector* const nand_inj = ftl.nand().fault_injector();
  return within(host_inj, FaultClass::kNvmeTimeout, cmds) ||
         within(host_inj, FaultClass::kNvmeDrop, cmds) ||
         within(ftl.fault_injector(), FaultClass::kPowerLoss, cmds) ||
         within(ftl.dram().fault_injector(), FaultClass::kDramBitError,
                cmds) ||
         within(nand_inj, FaultClass::kNandRead,
                n_flash_reads + (flash && !is_write ? 1 : 0)) ||
         within(nand_inj, FaultClass::kNandProgram, n_programs);
}

std::uint64_t NvmeEventLoop::run_until_idle() {
  std::uint64_t retired = 0;
  const std::size_t n = streams_.size();
  std::vector<std::uint32_t> drafted(n, 0);
  // The one O(N) pass per call: which streams start out with work.
  work_.assign((n + 63) / 64, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (has_work(i, drafted)) work_[i / 64] |= 1ull << (i % 64);
  }
  const bool can_shard =
      config_.sharded && config_.pool != nullptr && sharding_supported();
  if (!can_shard) {
    for (;;) {
      const int s = pick_stream(drafted);
      if (s < 0) break;
      process_one(static_cast<std::uint32_t>(s));
      ++retired;
    }
    return retired;
  }

  Ftl& ftl = controller_.ftl();
  const bool fault_aware = controller_.fault_injector() != nullptr ||
                           ftl.fault_injector() != nullptr ||
                           ftl.dram().fault_injector() != nullptr ||
                           ftl.nand().fault_injector() != nullptr;
  std::vector<Planned> batch;
  std::uint64_t batch_flash_reads = 0;
  std::uint64_t batch_programs = 0;
  std::unordered_set<std::uint64_t> pending_write_lbas;
  BufferAliasMap aliases;
  // Draft-time timeline and rate-limiter replay: draft_t tracks the
  // clock value each drafted command's body will run at, and lim_draft
  // is a copy of the live limiter on which the per-command acquire()
  // stalls are replayed serially — the live limiter moves only when the
  // batch commits (assignment) or rolls back (sequential re-acquire).
  std::uint64_t draft_t = 0;
  std::optional<RateLimiter> lim_draft;
  const bool trr_on = ftl.dram().config().mitigations.trr;
  const std::uint64_t window_ns = ftl.dram().refresh_window_ns();
  const auto flush = [&] {
    if (batch.empty()) return;
    retired += run_batch(batch, lim_draft);
    lim_draft.reset();
    for (const Planned& p : batch) drafted[p.stream] = 0;
    batch.clear();
    batch_flash_reads = 0;
    batch_programs = 0;
    pending_write_lbas.clear();
    aliases.clear();
  };
  for (;;) {
    const int s = pick_stream(drafted);
    if (s < 0) {
      flush();
      break;
    }
    const auto stream = static_cast<std::uint32_t>(s);
    // An injected power loss can take the device down mid-run; drafting
    // against a down device would plan against stale L2P state.  The
    // sequential path surfaces the right per-command statuses.
    const bool device_up =
        !fault_aware || (!ftl.powered_off() && !ftl.needs_recovery());
    Planned plan;
    if (trr_on && !batch.empty() &&
        draft_t / window_ns != batch.front().start_ns / window_ns) {
      // The candidate's body would run in a later refresh window than
      // the batch started in.  The TRR tracker and its window tag are
      // device-global — the roll (reset + retag) must happen serially,
      // never inside a shard — so cut the batch at the boundary; the
      // next batch's prologue rolls the tracker before sharding.
      flush();
    }
    if (!device_up || !plan_head(stream, &plan)) {
      // Non-shardable head (or degraded device).  Commit what is
      // drafted, then run this one pick through the full sequential
      // machinery — each arbitration pick still maps to exactly one
      // executed command, in pick order.
      flush();
      process_one(stream);
      ++retired;
      continue;
    }
    if (!plan.is_write && !pending_write_lbas.empty() &&
        pending_write_lbas.count(plan.lba) != 0) {
      // A drafted-but-uncommitted write covers this read's LBA: the
      // read's predicted service class peeked the pre-write mapping,
      // and its shard would read a NAND page the commit loop has not
      // programmed yet.  Commit the batch first, then re-plan the read
      // against fresh state.
      ++stats_.rw_conflict_flushes;
      flush();
      if (!plan_head(stream, &plan)) {
        // Committing writes cannot degrade the device (GC and journal
        // rolls were refused at reservation time), but stay graceful.
        process_one(stream);
        ++retired;
        continue;
      }
    }
    // Journal record pages the candidate write would program on top of
    // its data page — predicted against the allocator session *before*
    // its reservation is taken.
    const std::uint64_t cand_programs =
        plan.is_write ? ftl.planned_write_programs() : 0;
    if (fault_aware &&
        fault_blocks_draft(plan.flash, plan.is_write, batch.size(),
                           batch_flash_reads,
                           batch_programs + cand_programs)) {
      // A scheduled fault would fire inside the extended batch.  Flush
      // the proven-clear prefix and run the candidate sequentially: the
      // fault lands at the exact op index the sequential interleaving
      // gives it, on machinery that handles it (retry, degradation,
      // recovery) natively.
      ++stats_.early_flushes;
      flush();
      process_one(stream);
      ++retired;
      continue;
    }
    plan.stream = stream;
    if (plan.is_write) {
      Ftl::PlannedWrite w;
      if (!ftl.plan_write_reserve(Lba(plan.lba), &w)) {
        // The allocator refused: the write needs GC, a new active
        // block below the watermark, or a journal roll — work only the
        // sequential machinery performs.  Flushing first keeps the
        // command order identical to the sequential interleaving.
        ++stats_.write_reserve_flushes;
        flush();
        process_one(stream);
        ++retired;
        continue;
      }
      plan.reserved_pba = w.dst.value();
      plan.write_seq = w.seq;
      pending_write_lbas.insert(plan.lba);
      batch_programs += cand_programs;
    } else {
      const std::span<std::uint8_t> buf =
          streams_[stream].qp->peek_submission()->read_buf;
      if (aliases.conflicts(buf.data(), buf.data() + buf.size(),
                            plan.bank)) {
        flush();
      }
      aliases.add(buf.data(), buf.data() + buf.size(), plan.bank);
      batch_flash_reads += plan.flash ? 1 : 0;
    }
    if (batch.empty()) {
      // First command of a fresh batch: anchor the drafted timeline at
      // the live clock and fork the limiter replay copy.
      draft_t = controller_.clock().now_ns();
      if (RateLimiter* lim = controller_.rate_limiter(); lim != nullptr) {
        lim_draft = *lim;
      }
    }
    plan.start_ns = draft_t;
    std::uint64_t cost =
        controller_.config().iops.service_ns(plan.flash,
                                             ftl.nand().latency());
    if (lim_draft.has_value()) {
      // Exactly the acquire() the sequential charge() would make at
      // this command's clock value; charge() folds the stall into the
      // command's service charge, so the drafted cost does too.
      const std::uint64_t stall = lim_draft->acquire(draft_t);
      if (stall > 0) ++stats_.rate_limit_plan_stalls;
      cost += stall;
    }
    plan.cost_ns = cost;
    draft_t += cost;
    plan.cmd = streams_[stream].qp->take_submission();
    batch.push_back(std::move(plan));
    ++drafted[stream];
    if (batch.size() >= config_.max_batch) flush();
  }
  return retired;
}

}  // namespace rhsd
