// Arbitration fairness under an adversarial tenant: a flooder drives a
// dense, retry-defeating transport storm while a small victim tenant
// tries to make progress.  The victim's retry policy rides through any
// window that lands on it (cheap 100 us attempts), so every quarantine
// in these runs belongs to the flooder and the victim completes
// error-free.  Round-robin already alternates picks, so no victim gap
// holds more than one flooder command; each of the flooder's retry
// storms still costs the shared command stream 4 ms of the simulated
// clock (four 1 ms host timeouts).  Quarantine removes whole storms
// from the victim's critical path: after each exhausted retry the loop
// hands the victim at least NvmeEventLoop::kQuarantineBasePicks
// consecutive picks (or all it has queued) before the flooder runs
// again.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "nvme/event_loop.hpp"
#include "ssd/ssd_device.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

constexpr std::uint32_t kDepth = 16;
constexpr std::uint64_t kFlooderCmds = 600;
constexpr std::uint64_t kVictimCmds = 100;
constexpr std::uint64_t kStride = 17;

/// Dense transport storm: windows of 4 consecutive drops, wide enough
/// to defeat the flooder's 4-attempt retry policy whenever one lands
/// on it, but survivable by the victim's 8-attempt policy.
FaultPlan DropStorm() {
  FaultPlan plan;
  for (std::uint64_t at = kStride; at < 4000; at += kStride) {
    plan.add(FaultClass::kNvmeDrop, at, /*count=*/4);
  }
  return plan;
}

/// Cost of one flooder retry storm on the simulated clock: 4 attempts,
/// each charged the 1 ms default host timeout, plus exponential
/// backoff between attempts.
std::uint64_t FlooderStormNs() {
  const NvmeRetryPolicy fp{.max_attempts = 4};
  std::uint64_t storm_ns = 0;
  for (std::uint32_t a = 1; a <= fp.max_attempts; ++a) {
    storm_ns += fp.timeout_ns;
    if (a < fp.max_attempts) {
      storm_ns += std::min(NvmeRetryPolicy::kBackoffBaseNs << (a - 1),
                           NvmeRetryPolicy::kBackoffCapNs);
    }
  }
  return storm_ns;
}

/// One retired command, as the loop picked it.
struct Pick {
  std::uint64_t completed_ns = 0;
  bool flooder = false;
  bool failed = false;
};

struct FairnessResult {
  std::vector<std::uint64_t> victim_completions_ns;  // in cqe order
  std::uint64_t victim_errors = 0;
  /// Each run_until_idle() call's picks in pick order, i.e. by
  /// completion time (every command advances the simulated clock).
  std::vector<std::vector<Pick>> calls;
  EventLoopStats loop;
};

FairnessResult RunFlood(std::uint64_t seed) {
  SsdConfig cfg = test::SmallSsd();  // two equal partitions
  cfg.dram_profile = DramProfile::Invulnerable();
  cfg.fault_plan = DropStorm();
  SsdDevice ssd(cfg);

  EventLoopConfig lc;
  lc.seed = seed;
  NvmeEventLoop loop(ssd.controller(), lc);

  // Stream 0: the flooder — storms exhaust its retries.
  NvmeQueuePair flooder(ssd.controller(), 1, kDepth);
  NvmeRetryPolicy fp;
  fp.max_attempts = 4;
  flooder.set_retry_policy(fp);
  loop.attach(flooder);
  // Stream 1: the victim — rides through storms with cheap retries so
  // it never exhausts (and never gets quarantined).
  NvmeQueuePair victim(ssd.controller(), 2, kDepth);
  NvmeRetryPolicy vp;
  vp.max_attempts = 8;
  vp.timeout_ns = 100'000;
  victim.set_retry_policy(vp);
  loop.attach(victim);

  FairnessResult res;
  std::vector<std::uint8_t> fbuf(kBlockSize);
  std::vector<std::uint8_t> vbuf(kBlockSize);
  std::uint64_t fnext = 0;
  std::uint64_t vnext = 0;
  std::uint16_t fcid = 0;
  std::uint16_t vcid = 0;
  for (;;) {
    while (fnext < kFlooderCmds &&
           flooder.submit(NvmeCommand::Read(fcid, 1, fnext % 64, fbuf))
               .ok()) {
      ++fnext;
      ++fcid;
    }
    while (vnext < kVictimCmds &&
           victim.submit(NvmeCommand::Read(vcid, 2, vnext % 64, vbuf))
               .ok()) {
      ++vnext;
      ++vcid;
    }
    const bool pending = fnext < kFlooderCmds || vnext < kVictimCmds ||
                         flooder.sq_inflight() > 0 ||
                         victim.sq_inflight() > 0;
    if (!pending) break;
    loop.run_until_idle();
    std::vector<Pick> call;
    while (auto cqe = flooder.poll()) {
      call.push_back({cqe->completed_ns, true, !cqe->status.ok()});
    }
    while (auto cqe = victim.poll()) {
      call.push_back({cqe->completed_ns, false, !cqe->status.ok()});
      res.victim_completions_ns.push_back(cqe->completed_ns);
      if (!cqe->status.ok()) ++res.victim_errors;
    }
    std::sort(call.begin(), call.end(), [](const Pick& a, const Pick& b) {
      return a.completed_ns < b.completed_ns;
    });
    res.calls.push_back(std::move(call));
  }
  res.loop = loop.stats();
  return res;
}

std::uint64_t WorstGap(const std::vector<std::uint64_t>& times) {
  std::uint64_t worst = 0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    worst = std::max(worst, times[i] - times[i - 1]);
  }
  return worst;
}

TEST(ArbitrationFairness, QuarantineRestoresVictimTailLatency) {
  for (const std::uint64_t seed : {3ull, 7ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const FairnessResult res = RunFlood(seed);
    // Every victim command completes, error-free: only the flooder
    // exhausts retries, so quarantine never hits the victim.
    ASSERT_EQ(res.victim_completions_ns.size(), kVictimCmds);
    EXPECT_EQ(res.victim_errors, 0u);
    EXPECT_GT(res.loop.quarantines, 0u);

    // After each exhausted flooder retry, the victim runs the call's next
    // kQuarantineBasePicks picks, or all it has left in the call, before
    // the flooder runs again (alternation alone would give it one).
    std::uint64_t storms = 0;
    for (const std::vector<Pick>& call : res.calls) {
      for (std::size_t k = 0; k < call.size(); ++k) {
        if (!call[k].flooder || !call[k].failed) continue;
        ++storms;
        std::size_t victim_left = 0;
        for (std::size_t j = k + 1; j < call.size(); ++j) {
          victim_left += call[j].flooder ? 0 : 1;
        }
        std::size_t run = 0;
        while (k + 1 + run < call.size() && !call[k + 1 + run].flooder) {
          ++run;
        }
        EXPECT_GE(run, std::min<std::size_t>(
                           NvmeEventLoop::kQuarantineBasePicks, victim_left))
            << "storm " << storms;
      }
    }
    EXPECT_EQ(storms, res.loop.quarantines);
  }
}

// Deterministic pick-latency bound: while the flooder serves a
// quarantine penalty, the victim owns the loop, so between any two
// consecutive victim completions the clock can advance by at most one
// flooder retry storm (the command that triggered the quarantine) plus
// the victim's own worst-case ride-through of a window that lands on
// it — never by several storms back to back.
TEST(ArbitrationFairness, VictimPickLatencyIsBounded) {
  // Victim ride-through of a 4-drop window: 4 cheap timeouts plus
  // backoffs before the 5th attempt succeeds.
  const NvmeRetryPolicy vp{.max_attempts = 8, .timeout_ns = 100'000};
  std::uint64_t victim_ride_ns = 0;
  for (std::uint32_t a = 1; a <= 4; ++a) {
    victim_ride_ns += vp.timeout_ns;
    victim_ride_ns += std::min(NvmeRetryPolicy::kBackoffBaseNs << (a - 1),
                               NvmeRetryPolicy::kBackoffCapNs);
  }
  const std::uint64_t bound = FlooderStormNs() + victim_ride_ns;
  for (const std::uint64_t seed : {3ull, 7ull, 10ull, 36ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const FairnessResult res = RunFlood(seed);
    ASSERT_EQ(res.victim_completions_ns.size(), kVictimCmds);
    EXPECT_EQ(res.victim_errors, 0u);
    EXPECT_LE(WorstGap(res.victim_completions_ns), bound)
        << "victim stalled " << WorstGap(res.victim_completions_ns)
        << " ns behind the flooder (bound " << bound << " ns)";
  }
}

// ---------------------------------------------------------------------
// pick_stream() drain semantics: serving a pick burns exactly one
// quarantine tick on every penalized stream, and when every stream
// with work is penalized the loop force-releases the smallest penalty
// instead of stalling.  (The drain sits at the function's single exit;
// the previous structure re-entered pick_stream() after a forced
// release, leaving the one-tick-per-pick invariant to hold only by the
// recursion depth being exactly one.)

TEST(ArbitrationFairness, PenaltyDrainsExactlyOneTickPerPick) {
  // The quarantine penalty is base + seeded jitter in [0, base] on a
  // documented SplitMix64 stream (seed ^ golden-ratio * (stream+1) ^
  // mix-constant * failures); replicate it to predict the flooder's
  // first penalty exactly.
  constexpr std::uint64_t kSeed = 11;
  constexpr std::uint32_t kBase = NvmeEventLoop::kQuarantineBasePicks;
  std::uint64_t mix = kSeed ^ (0x9E3779B97F4A7C15ull * 1ull) ^
                      (0xBF58476D1CE4E5B9ull * 1ull);
  const std::uint64_t penalty = kBase + SplitMix64(mix) % (kBase + 1ull);
  ASSERT_LE(penalty, kDepth);  // the victim can keep every pick fed

  SsdConfig cfg = test::SmallSsd();
  cfg.dram_profile = DramProfile::Invulnerable();
  FaultPlan plan;
  plan.add(FaultClass::kNvmeDrop, /*op_index=*/0, /*count=*/4);
  cfg.fault_plan = plan;
  SsdDevice ssd(cfg);
  EventLoopConfig lc;
  lc.seed = kSeed;
  NvmeEventLoop loop(ssd.controller(), lc);

  NvmeQueuePair flooder(ssd.controller(), 1, kDepth);
  NvmeRetryPolicy fp;
  fp.max_attempts = 4;
  flooder.set_retry_policy(fp);
  loop.attach(flooder);
  NvmeQueuePair victim(ssd.controller(), 2, kDepth);
  loop.attach(victim);

  std::vector<std::uint8_t> fbuf(kBlockSize);
  std::vector<std::uint8_t> vbuf(kBlockSize);
  // Phase A: the storm eats all four attempts of the flooder's first
  // command; the exhausted retry quarantines it for `penalty` picks.
  ASSERT_TRUE(flooder.submit(NvmeCommand::Read(0, 1, 0, fbuf)).ok());
  loop.run_until_idle();
  const auto failed = flooder.poll();
  ASSERT_TRUE(failed.has_value());
  EXPECT_FALSE(failed->status.ok());
  ASSERT_EQ(loop.stats().quarantines, 1u);

  // Phase B: one more flooder command races a stream of fault-free
  // victim commands.
  ASSERT_TRUE(flooder.submit(NvmeCommand::Read(1, 1, 1, fbuf)).ok());
  constexpr std::uint64_t kVictimTotal = 24;
  std::uint64_t flooder_done_ns = 0;
  std::vector<std::uint64_t> victim_done_ns;
  std::uint64_t submitted = 0;
  std::uint16_t vcid = 0;
  for (;;) {
    while (submitted < kVictimTotal &&
           victim.submit(NvmeCommand::Read(vcid, 2, submitted % 64, vbuf))
               .ok()) {
      ++submitted;
      ++vcid;
    }
    if (submitted == kVictimTotal && flooder.sq_inflight() == 0 &&
        victim.sq_inflight() == 0) {
      break;
    }
    loop.run_until_idle();
    while (const auto f = flooder.poll()) {
      EXPECT_TRUE(f->status.ok());
      flooder_done_ns = f->completed_ns;
    }
    while (const auto v = victim.poll()) {
      EXPECT_TRUE(v->status.ok());
      victim_done_ns.push_back(v->completed_ns);
    }
  }
  ASSERT_EQ(victim_done_ns.size(), kVictimTotal);
  ASSERT_GT(flooder_done_ns, 0u);
  // Exactly `penalty` victim picks run before the flooder re-enters:
  // fewer means the drain burned more than one tick per pick, more
  // means a tick was skipped.
  std::uint64_t before = 0;
  for (const std::uint64_t t : victim_done_ns) {
    before += t < flooder_done_ns ? 1 : 0;
  }
  EXPECT_EQ(before, penalty);
}

TEST(ArbitrationFairness, ForcedReleaseKeepsFullyQuarantinedLoopFlowing) {
  // Single-attempt retry policies turn the first drop on each stream
  // into an instant quarantine: with every stream penalized and work
  // still queued, pick_stream must force the smallest penalty open
  // rather than report idle — deterministically.
  struct Result {
    std::vector<std::uint64_t> completions_ns;
    std::uint64_t errors = 0;
    EventLoopStats loop;
  };
  const auto run = []() {
    SsdConfig cfg = test::SmallSsd();
    cfg.dram_profile = DramProfile::Invulnerable();
    FaultPlan plan;
    plan.add(FaultClass::kNvmeDrop, /*op_index=*/0);
    plan.add(FaultClass::kNvmeDrop, /*op_index=*/1);
    cfg.fault_plan = plan;
    SsdDevice ssd(cfg);
    EventLoopConfig lc;
    lc.seed = 11;
    NvmeEventLoop loop(ssd.controller(), lc);
    NvmeQueuePair a(ssd.controller(), 1, kDepth);
    NvmeQueuePair b(ssd.controller(), 2, kDepth);
    NvmeRetryPolicy rp;
    rp.max_attempts = 1;
    a.set_retry_policy(rp);
    b.set_retry_policy(rp);
    loop.attach(a);
    loop.attach(b);
    std::vector<std::uint8_t> abuf(kBlockSize);
    std::vector<std::uint8_t> bbuf(kBlockSize);
    constexpr std::uint64_t kPerStream = 10;
    Result res;
    std::uint64_t an = 0;
    std::uint64_t bn = 0;
    for (;;) {
      while (an < kPerStream &&
             a.submit(NvmeCommand::Read(static_cast<std::uint16_t>(an), 1,
                                        an % 64, abuf))
                 .ok()) {
        ++an;
      }
      while (bn < kPerStream &&
             b.submit(NvmeCommand::Read(static_cast<std::uint16_t>(bn), 2,
                                        bn % 64, bbuf))
                 .ok()) {
        ++bn;
      }
      if (an == kPerStream && bn == kPerStream && a.sq_inflight() == 0 &&
          b.sq_inflight() == 0) {
        break;
      }
      loop.run_until_idle();
      for (NvmeQueuePair* qp : {&a, &b}) {
        while (const auto cqe = qp->poll()) {
          res.completions_ns.push_back(cqe->completed_ns);
          if (!cqe->status.ok()) ++res.errors;
        }
      }
    }
    res.loop = loop.stats();
    return res;
  };
  const Result r1 = run();
  // Both streams quarantined; both eventually released (one of them
  // necessarily by force — the other stream was penalized too).
  EXPECT_EQ(r1.errors, 2u);
  EXPECT_EQ(r1.loop.quarantines, 2u);
  EXPECT_EQ(r1.loop.quarantine_releases, 2u);
  EXPECT_EQ(r1.completions_ns.size(), 20u);
  // The forced-release choice (smallest penalty, lowest index on ties)
  // is deterministic: an identical run replays bit-identically.
  const Result r2 = run();
  EXPECT_EQ(r1.completions_ns, r2.completions_ns);
  EXPECT_EQ(r1.loop.quarantine_releases, r2.loop.quarantine_releases);
}

// ---------------------------------------------------------------------
// Differential arbitration.  A reference arbiter, written as the plain
// linear scan over every stream, predicts the loop's pick sequence:
// the ready test and round-robin cursor, the per-pick penalty drain
// over all streams, the forced release of the smallest penalty (lowest
// index on ties), and the penalty formula at the loop's base and cap
// that PenaltyDrainsExactlyOneTickPerPick replicates.  Each seed draws
// the stream count (1, 63, 64, 65 and > 1024 among them), per-stream
// depths, partial polling (completion rings left full across calls),
// and sparse or dense transport drop storms against mostly 1-attempt
// retry policies (forced releases, and penalties doubled to the cap).  The loop's picks are recovered by sorting
// completions by completed_ns; the retryable final statuses feed the
// reference's quarantine triggers.  RHSD_ARB_SEED=<n> re-runs one seed.

constexpr std::uint64_t kArbSeeds = 45;

struct ArbCase {
  std::uint64_t seed = 0;
  std::uint32_t streams = 0;
  bool vulnerable = false;
  /// Drop windows a few ops apart instead of about horizon / 48 apart:
  /// a stream fails pick after pick and its penalty doubles to the cap.
  bool dense_storm = false;
  std::uint32_t per_stream = 0;  // command budget per stream
  std::vector<std::uint32_t> depth;
  std::vector<std::uint32_t> attempts;
};

ArbCase DrawArbCase(std::uint64_t seed) {
  Rng rng(0xA7B1 + seed);
  ArbCase c;
  c.seed = seed;
  constexpr std::uint32_t kSpecial[] = {1, 63, 64, 65, 1100};
  c.streams = seed % 3 == 0
                  ? kSpecial[(seed / 3) % 5]
                  : static_cast<std::uint32_t>(rng.next_in(2, 130));
  c.vulnerable = rng.next_bool(0.3);
  c.dense_storm = rng.next_bool(0.25);
  c.per_stream = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(2, rng.next_in(1500, 3000) / c.streams));
  for (std::uint32_t i = 0; i < c.streams; ++i) {
    c.depth.push_back(static_cast<std::uint32_t>(rng.next_in(2, 16)));
    c.attempts.push_back(rng.next_bool(0.7)
                             ? 1
                             : static_cast<std::uint32_t>(
                                   rng.next_in(2, 4)));
  }
  return c;
}

/// The arbitration spec as a linear scan over every stream.
class ReferenceArbiter {
 public:
  struct Pick {
    std::uint32_t stream = 0;
    std::uint16_t cid = 0;
  };

  explicit ReferenceArbiter(const ArbCase& c)
      : c_(c), streams_(c.streams) {}

  void submit(std::uint32_t s, std::uint16_t cid) {
    streams_[s].sq.push_back(cid);
  }
  void poll(std::uint32_t s) { --streams_[s].cq; }

  /// One run_until_idle() call.  `retryable(pick)` is the pick's final
  /// status class, read off the loop's completion.
  template <typename Retryable>
  void run(std::vector<Pick>* picks, Retryable retryable) {
    for (;;) {
      const int s = pick();
      if (s < 0) return;
      St& st = streams_[s];
      const Pick p{static_cast<std::uint32_t>(s), st.sq.front()};
      st.sq.pop_front();
      ++st.cq;
      picks->push_back(p);
      if (retryable(p)) quarantine(p.stream);
    }
  }

  std::uint64_t quarantines = 0;
  std::uint64_t capped = 0;  // penalties whose doubling hit the cap
  std::uint64_t releases = 0;
  std::uint64_t forced_releases = 0;

 private:
  struct St {
    std::deque<std::uint16_t> sq;
    std::uint32_t cq = 0;
    std::uint64_t penalty = 0;
    std::uint32_t failures = 0;
  };

  bool has_work(std::size_t i) const {
    return !streams_[i].sq.empty() && streams_[i].cq < c_.depth[i];
  }
  bool ready(std::size_t i) const {
    return streams_[i].penalty == 0 && has_work(i);
  }

  int arbitrate() {
    const std::size_t n = streams_.size();
    for (std::size_t k = 1; k <= n; ++k) {
      const std::size_t i = (cursor_ + k) % n;
      if (ready(i)) {
        cursor_ = i;
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  int pick() {
    const std::size_t n = streams_.size();
    int p = arbitrate();
    if (p < 0) {
      std::size_t best = n;
      for (std::size_t i = 0; i < n; ++i) {
        if (streams_[i].penalty == 0 || !has_work(i)) continue;
        if (best == n || streams_[i].penalty < streams_[best].penalty) {
          best = i;
        }
      }
      if (best == n) return -1;
      streams_[best].penalty = 0;
      streams_[best].failures = 0;
      ++releases;
      ++forced_releases;
      p = arbitrate();
    }
    for (St& st : streams_) {
      if (st.penalty > 0 && --st.penalty == 0) ++releases;
    }
    return p;
  }

  void quarantine(std::uint32_t s) {
    St& st = streams_[s];
    ++st.failures;
    constexpr std::uint64_t kBase = NvmeEventLoop::kQuarantineBasePicks;
    constexpr std::uint64_t kCap = NvmeEventLoop::kQuarantineCapPicks;
    const std::uint32_t shift = std::min(st.failures - 1, 31u);
    std::uint64_t penalty = std::min(kBase << shift, kCap);
    capped += penalty == kCap ? 1 : 0;
    std::uint64_t mix = c_.seed ^ (0x9E3779B97F4A7C15ull * (s + 1ull)) ^
                        (0xBF58476D1CE4E5B9ull * st.failures);
    penalty += SplitMix64(mix) % (kBase + 1);
    st.penalty = penalty;
    ++quarantines;
  }

  const ArbCase& c_;
  std::vector<St> streams_;
  std::size_t cursor_ = 0;
};

struct ArbOutcome {
  bool match = true;
  std::uint64_t picks = 0;
  std::uint64_t forced_releases = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t capped = 0;
};

/// Drives one seeded case through the loop, replays it through the
/// reference, and reports the first diverging pick.
ArbOutcome RunArbCase(std::uint64_t seed) {
  const ArbCase c = DrawArbCase(seed);
  Rng rng(0x5EED0 + seed);
  SsdConfig cfg = test::SmallSsd();
  cfg.seed = seed + 1;
  if (!c.vulnerable) cfg.dram_profile = DramProfile::Invulnerable();
  FaultPlan plan;
  const std::uint64_t horizon =
      2ull * c.streams * c.per_stream + 64;  // transport ops, roughly
  for (std::uint64_t at = rng.next_below(32); at < horizon;) {
    const std::uint64_t count = rng.next_in(1, 4);
    plan.add(rng.next_bool(0.8) ? FaultClass::kNvmeDrop
                                : FaultClass::kNvmeTimeout,
             at, count);
    at += count + 1 + rng.next_below(c.dense_storm ? 3 : horizon / 24 + 8);
  }
  cfg.fault_plan = plan;
  SsdDevice ssd(cfg);

  EventLoopConfig lc;
  lc.seed = seed;
  NvmeEventLoop loop(ssd.controller(), lc);

  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  std::vector<std::vector<std::uint8_t>> bufs(
      c.streams, std::vector<std::uint8_t>(kBlockSize));
  for (std::uint32_t i = 0; i < c.streams; ++i) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ssd.controller(), static_cast<std::uint16_t>(i + 1), c.depth[i]));
    NvmeRetryPolicy rp;
    rp.max_attempts = c.attempts[i];
    qps.back()->set_retry_policy(rp);
    loop.attach(*qps.back());
  }

  // Host actions in order, replayed through the reference afterwards
  // (it needs the final statuses, known only once polled).
  struct Event {
    enum Kind { kSubmit, kPoll, kRun } kind;
    std::uint32_t stream = 0;
    std::uint16_t cid = 0;
    std::uint64_t retired = 0;
  };
  struct Done {
    std::uint32_t stream = 0;
    std::uint16_t cid = 0;
    std::uint64_t completed_ns = 0;
    bool retryable = false;
  };
  std::vector<Event> events;
  std::vector<Done> done;
  std::vector<std::uint32_t> submitted(c.streams, 0);
  const auto poll = [&](std::uint32_t s, std::uint32_t max) {
    for (std::uint32_t k = 0; k < max; ++k) {
      const auto cqe = qps[s]->poll();
      if (!cqe.has_value()) return;
      const StatusCode code = cqe->status.code();
      done.push_back({s, cqe->cid, cqe->completed_ns,
                      code == StatusCode::kUnavailable ||
                          code == StatusCode::kDeadlineExceeded});
      events.push_back({Event::kPoll, s, 0, 0});
    }
  };
  const auto submit = [&](std::uint32_t s) {
    NvmeQueuePair& qp = *qps[s];
    const std::uint64_t room = qp.depth() - qp.sq_inflight();
    std::uint64_t k = rng.next_below(room + 1);
    k = std::min<std::uint64_t>(k, c.per_stream - submitted[s]);
    for (; k > 0; --k) {
      const auto cid = static_cast<std::uint16_t>(submitted[s]++);
      const std::uint32_t nsid = 1 + s % 2;
      const std::uint64_t slba = rng.next_below(2048);
      const std::uint64_t op = rng.next_below(20);
      NvmeCommand cmd =
          op == 0   ? NvmeCommand::Flush(cid, nsid)
          : op <= 2 ? NvmeCommand::Write(cid, nsid, slba,
                                         std::vector<std::uint8_t>(
                                             kBlockSize,
                                             static_cast<std::uint8_t>(s)))
                    : NvmeCommand::Read(cid, nsid, slba, bufs[s]);
      EXPECT_TRUE(qp.submit(std::move(cmd)).ok());
      events.push_back({Event::kSubmit, s, cid, 0});
    }
  };
  const auto run = [&] {
    events.push_back({Event::kRun, 0, 0, loop.run_until_idle()});
  };
  for (int wave = 0; wave < 120; ++wave) {
    if (rng.next_bool(0.3)) {
      for (std::uint32_t s = 0; s < c.streams; ++s) submit(s);
    } else {
      for (std::uint64_t k = rng.next_in(1, 8); k > 0; --k) {
        submit(static_cast<std::uint32_t>(rng.next_below(c.streams)));
      }
    }
    run();
    // Partial polling: some completion rings stay full across calls.
    for (std::uint32_t s = 0; s < c.streams; ++s) {
      const std::uint32_t pending = qps[s]->cq_pending();
      if (pending == 0) continue;
      poll(s, rng.next_bool(0.5) ? pending
                                 : static_cast<std::uint32_t>(
                                       rng.next_below(pending + 1)));
    }
  }
  for (;;) {
    bool queued = false;
    for (std::uint32_t s = 0; s < c.streams; ++s) {
      poll(s, ~0u);
      queued |= qps[s]->sq_inflight() > 0;
    }
    if (!queued) break;
    run();
  }

  // The loop's picks: completions in completed_ns order (every command
  // advances the simulated clock, so the order is strict).
  std::vector<Done> actual = done;
  std::sort(actual.begin(), actual.end(), [](const Done& a, const Done& b) {
    return a.completed_ns < b.completed_ns;
  });
  ArbOutcome out;
  for (std::size_t i = 1; i < actual.size(); ++i) {
    if (actual[i].completed_ns == actual[i - 1].completed_ns) {
      ADD_FAILURE() << "RHSD_ARB_SEED=" << seed
                    << ": two completions at one completed_ns";
      out.match = false;
      return out;
    }
  }
  std::unordered_map<std::uint64_t, bool> retryable;
  for (const Done& d : done) {
    retryable[(std::uint64_t{d.stream} << 16) | d.cid] = d.retryable;
  }

  ReferenceArbiter ref(c);
  std::vector<ReferenceArbiter::Pick> expected;
  std::uint64_t call = 0;
  for (const Event& e : events) {
    if (e.kind == Event::kSubmit) {
      ref.submit(e.stream, e.cid);
      continue;
    }
    if (e.kind == Event::kPoll) {
      ref.poll(e.stream);
      continue;
    }
    const std::size_t first = expected.size();
    ref.run(&expected, [&](const ReferenceArbiter::Pick& p) {
      const auto it = retryable.find((std::uint64_t{p.stream} << 16) | p.cid);
      return it != retryable.end() && it->second;
    });
    const std::size_t predicted = expected.size() - first;
    for (std::size_t k = first; k < expected.size(); ++k) {
      const bool have = k < actual.size();
      if (have && actual[k].stream == expected[k].stream &&
          actual[k].cid == expected[k].cid) {
        continue;
      }
      ADD_FAILURE() << "RHSD_ARB_SEED=" << seed << ": call " << call
                    << " pick " << (k - first) << " (global " << k
                    << "): reference stream " << expected[k].stream
                    << " cid " << expected[k].cid << ", loop "
                    << (have ? ::testing::Message()
                                   << "stream " << actual[k].stream
                                   << " cid " << actual[k].cid
                             : ::testing::Message() << "nothing");
      out.match = false;
      return out;
    }
    if (predicted != e.retired) {
      ADD_FAILURE() << "RHSD_ARB_SEED=" << seed << ": call " << call
                    << " retired " << e.retired << ", reference picked "
                    << predicted;
      out.match = false;
      return out;
    }
    ++call;
  }
  EXPECT_EQ(expected.size(), actual.size()) << "RHSD_ARB_SEED=" << seed;
  const EventLoopStats& st = loop.stats();
  EXPECT_EQ(st.commands, actual.size()) << "RHSD_ARB_SEED=" << seed;
  EXPECT_EQ(st.quarantines, ref.quarantines) << "RHSD_ARB_SEED=" << seed;
  EXPECT_EQ(st.quarantine_releases, ref.releases)
      << "RHSD_ARB_SEED=" << seed;
  out.match = !::testing::Test::HasFailure();
  out.picks = expected.size();
  out.forced_releases = ref.forced_releases;
  out.quarantines = ref.quarantines;
  out.capped = ref.capped;
  return out;
}

TEST(ArbitrationFairness, DifferentialPicksMatchLinearScanReference) {
  if (const char* env = std::getenv("RHSD_ARB_SEED")) {
    const std::uint64_t seed = std::strtoull(env, nullptr, 10);
    EXPECT_TRUE(RunArbCase(seed).match) << "RHSD_ARB_SEED=" << seed;
    return;
  }
  std::uint64_t picks = 0;
  std::uint64_t forced = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t capped = 0;
  for (std::uint64_t seed = 0; seed < kArbSeeds; ++seed) {
    const ArbOutcome o = RunArbCase(seed);
    if (!o.match) return;  // the failure names the seed to re-run
    picks += o.picks;
    forced += o.forced_releases;
    quarantines += o.quarantines;
    capped += o.capped;
  }
  // The draws exercised what they are for.
  EXPECT_GT(picks, 0u);
  EXPECT_GT(quarantines, 0u);
  EXPECT_GT(forced, 0u);
  EXPECT_GT(capped, 0u);
}

}  // namespace
}  // namespace rhsd
