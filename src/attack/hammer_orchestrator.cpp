#include "attack/hammer_orchestrator.hpp"

#include <algorithm>
#include <vector>

namespace rhsd {
namespace {

/// Decoy rows added around the aggressors in kManySided mode.
constexpr std::size_t kManySidedWidth = 9;

}  // namespace

const char* to_string(HammerMode mode) {
  switch (mode) {
    case HammerMode::kDoubleSided: return "double-sided";
    case HammerMode::kSingleSided: return "single-sided";
    case HammerMode::kOneLocation: return "one-location";
    case HammerMode::kManySided: return "many-sided";
    case HammerMode::kHalfDouble: return "half-double";
  }
  return "unknown";
}

StatusOr<HammerStats> HammerOrchestrator::hammer_triple(
    const TripleSet& triple, HammerMode mode, double duration_s) {
  std::uint64_t left_lpn = 0;
  std::uint64_t right_lpn = 0;
  // Half-Double drives the rows one further out (distance 2 from the
  // victim); every other mode uses the immediate neighbors.
  const std::uint64_t left_row = mode == HammerMode::kHalfDouble
                                     ? triple.left_row - 1
                                     : triple.left_row;
  const std::uint64_t right_row = mode == HammerMode::kHalfDouble
                                      ? triple.right_row + 1
                                      : triple.right_row;
  const bool have_left =
      finder_.pick_lpn(left_row, attacker_range_, left_lpn);
  const bool have_right =
      finder_.pick_lpn(right_row, attacker_range_, right_lpn);

  // Build the read pattern (namespace-relative LBAs, issued round-robin).
  std::vector<std::uint64_t> pattern;
  switch (mode) {
    case HammerMode::kDoubleSided:
    case HammerMode::kHalfDouble:
      if (!have_left || !have_right) {
        return NotFound("no hammerable LBA on both aggressor rows");
      }
      pattern = {to_slba(left_lpn), to_slba(right_lpn)};
      break;
    case HammerMode::kSingleSided:
    case HammerMode::kOneLocation:
      // One aggressor row only — simpler, but flips fewer bits (§4.2).
      if (have_left) {
        pattern = {to_slba(left_lpn)};
      } else if (have_right) {
        pattern = {to_slba(right_lpn)};
      } else {
        return NotFound("no hammerable LBA on either aggressor row");
      }
      break;
    case HammerMode::kManySided: {
      if (!have_left || !have_right) {
        return NotFound("no hammerable LBA on both aggressor rows");
      }
      // Decoy rows churn the TRR tracker (TRRespass-style).  The
      // tracker is per-bank, so decoys must live in the *same bank* as
      // the aggressors; keep them away from the victim's immediate
      // neighborhood so they do not add their own disturbance there.
      const std::uint32_t rows_per_bank =
          finder_.map().geometry().rows_per_bank;
      const std::uint64_t bank = triple.victim_row / rows_per_bank;
      std::vector<std::uint64_t> decoys;
      for (const std::uint64_t row : finder_.map().rows()) {
        if (decoys.size() >= kManySidedWidth) break;
        if (row / rows_per_bank != bank) continue;
        const std::uint64_t d = row > triple.victim_row
                                    ? row - triple.victim_row
                                    : triple.victim_row - row;
        if (d < 4) continue;
        std::uint64_t lpn = 0;
        if (finder_.pick_lpn(row, attacker_range_, lpn)) {
          decoys.push_back(to_slba(lpn));
        }
      }
      if (decoys.size() < 3) {
        return NotFound("no decoy rows available for many-sided pattern");
      }
      // Three decoy arrivals per aggressor pair: with <=4 trackers and
      // >=4 rotating decoys the Misra–Gries counters stay pinned near
      // zero (inserts + decrement-alls outpace the aggressors'
      // increments), while each aggressor still gets 1/5 of the access
      // budget — enough to stay above the weakest cells' thresholds.
      for (std::size_t i = 0; i + 2 < decoys.size(); i += 3) {
        pattern.push_back(to_slba(left_lpn));
        pattern.push_back(to_slba(right_lpn));
        pattern.push_back(decoys[i]);
        pattern.push_back(decoys[i + 1]);
        pattern.push_back(decoys[i + 2]);
      }
      break;
    }
  }

  // Unmapped reads skip flash — the accelerated path of §3's threat
  // model. Using the SSD strictly as intended, still.
  std::vector<std::uint64_t> unique = pattern;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  for (const std::uint64_t slba : unique) {
    RHSD_RETURN_IF_ERROR(tenant_.trim_blocks(slba, 1));
  }

  DramDevice& dram = tenant_.controller().ftl().dram();
  SimClock& clock = tenant_.controller().clock();
  HammerStats stats;
  stats.flips_before = dram.stats().bitflips;
  const std::uint64_t start_ns = clock.now_ns();
  const auto duration_ns =
      static_cast<std::uint64_t>(duration_s * 1e9);

  std::vector<std::uint8_t> buf(kBlockSize);
  // The whole hammer duration goes down the stack in one call: the
  // controller charges queue/clock costs per round in closed form, the
  // FTL replays the pattern's L2P touches as repeat counts, and the
  // DRAM consumes the activation stream per refresh-window segment —
  // bit-exact with issuing the pattern round by round.
  std::uint64_t rounds = 0;
  RHSD_RETURN_IF_ERROR(tenant_.submit({.slbas = pattern,
                                       .out = buf,
                                       .deadline_ns = start_ns + duration_ns,
                                       .rounds_done = &rounds}));
  stats.reads_issued += rounds * pattern.size();
  stats.sim_ns_spent = clock.now_ns() - start_ns;
  stats.flips_after = dram.stats().bitflips;
  return stats;
}

}  // namespace rhsd
