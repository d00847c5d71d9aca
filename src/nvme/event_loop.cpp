#include "nvme/event_loop.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace rhsd {

NvmeEventLoop::NvmeEventLoop(NvmeController& controller,
                             EventLoopConfig config)
    : controller_(controller), config_(config) {}

std::uint32_t NvmeEventLoop::attach(NvmeQueuePair& qp) {
  streams_.push_back(Stream{&qp});
  return static_cast<std::uint32_t>(streams_.size() - 1);
}

bool NvmeEventLoop::has_work(std::size_t i) const {
  const NvmeQueuePair& qp = *streams_[i].qp;
  return qp.sq_inflight() > 0 && qp.cq_pending() < qp.depth();
}

std::size_t NvmeEventLoop::next_with_work(std::size_t from, std::size_t end) {
  while (from < end) {
    const std::size_t w = from / 64;
    std::uint64_t bits = work_[w] & (~0ull << (from % 64));
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + std::countr_zero(bits);
      if (i >= end) return end;
      if (has_work(i)) return i;
      work_[w] &= ~(1ull << (i % 64));  // ran dry; stays dry this call
    }
    from = (w + 1) * 64;
  }
  return end;
}

int NvmeEventLoop::pick_stream() {
  const std::size_t n = streams_.size();
  if (n == 0) return -1;
  // A stream is ready when it has work — a queued submission and
  // completion-ring space — and it is not serving a quarantine penalty.
  // Only streams with their work_ bit set can have work.  The pick is
  // the first ready stream after cursor_, wrapping through cursor_
  // itself: the cyclic order (cursor_ + k) % n for k = 1..n.
  const auto first_ready = [&](std::size_t from, std::size_t end) {
    std::size_t i = next_with_work(from, end);
    while (i < end && streams_[i].penalty != 0) {
      i = next_with_work(i + 1, end);
    }
    return i;
  };
  const auto arbitrate = [&]() -> int {
    std::size_t i = first_ready(cursor_ + 1, n);
    if (i == n) {
      i = first_ready(0, cursor_ + 1);
      if (i == cursor_ + 1) return -1;
    }
    cursor_ = i;
    return static_cast<int>(i);
  };
  int pick = arbitrate();
  if (pick < 0) {
    // Forward progress: when every stream with work is quarantined, the
    // loop must not report idle with commands still queued.  Force the
    // smallest remaining penalty open (lowest index on ties — explicit,
    // since penalized_ is not in index order) and re-arbitrate.
    std::size_t best = n;
    for (const std::uint32_t i : penalized_) {
      if (!has_work(i)) continue;
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
  ++stats_.commands;
  observe_device();
  if (qp.queue_stats().retry_exhausted != exhausted_before) {
    apply_quarantine(stream);
  }
}

void NvmeEventLoop::apply_quarantine(std::uint32_t stream) {
  Stream& st = streams_[stream];
  ++st.failures;
  const std::uint32_t shift = std::min(st.failures - 1, 31u);
  std::uint64_t penalty = std::min<std::uint64_t>(
      std::uint64_t{kQuarantineBasePicks} << shift, kQuarantineCapPicks);
  // Seeded jitter decorrelates tenants that fail in lockstep: a
  // SplitMix64 draw keyed by (seed, stream, failures).
  std::uint64_t mix = config_.seed ^
                      (0x9E3779B97F4A7C15ull * (stream + 1ull)) ^
                      (0xBF58476D1CE4E5B9ull * st.failures);
  penalty += SplitMix64(mix) % (kQuarantineBasePicks + 1ull);
  st.penalty = penalty;
  penalized_.push_back(stream);
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

std::uint64_t NvmeEventLoop::run_until_idle() {
  const std::size_t n = streams_.size();
  // The one O(N) pass per call: which streams start out with work.
  work_.assign((n + 63) / 64, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (has_work(i)) work_[i / 64] |= 1ull << (i % 64);
  }
  std::uint64_t retired = 0;
  for (int s = pick_stream(); s >= 0; s = pick_stream()) {
    process_one(static_cast<std::uint32_t>(s));
    ++retired;
  }
  return retired;
}

}  // namespace rhsd
