#include "dram/trr.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace rhsd {
namespace {

// Cap on the number of distinct (period position, table) states
// remembered while hunting for a cycle in the transient.  Pathological
// histories (e.g. a wrapped counter draining one decrement at a time)
// never repeat a state; past the cap we stop recording and fall back
// to plain stepping, which is still no slower than the scalar path.
constexpr std::size_t kMaxCycleStates = 4096;

// Transient steps advance_cmds() runs before it starts recording states.
constexpr std::uint64_t kUnrecordedSteps = 64;

std::string SerializeState(
    const std::unordered_map<std::uint32_t, std::uint64_t>& table,
    std::uint64_t position) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries(table.begin(),
                                                               table.end());
  std::sort(entries.begin(), entries.end());
  std::string key;
  key.reserve(8 + entries.size() * 12);
  // Full width: the position within a period runs to rows * repeat.
  for (int s = 0; s < 64; s += 8) {
    key.push_back(static_cast<char>((position >> s) & 0xff));
  }
  for (const auto& [row, count] : entries) {
    for (int s = 0; s < 32; s += 8) {
      key.push_back(static_cast<char>((row >> s) & 0xff));
    }
    for (int s = 0; s < 64; s += 8) {
      key.push_back(static_cast<char>((count >> s) & 0xff));
    }
  }
  return key;
}

}  // namespace

TrrTracker::TrrTracker(TrrConfig config, std::uint32_t num_banks)
    : config_(config), tables_(num_banks) {
  RHSD_CHECK(config_.trackers_per_bank > 0);
  RHSD_CHECK(config_.activation_threshold > 0);
}

std::optional<std::uint32_t> TrrTracker::on_activate(std::uint32_t bank,
                                                     std::uint32_t row) {
  RHSD_CHECK(bank < tables_.size());
  auto& table = tables_[bank];

  auto it = table.find(row);
  if (it != table.end()) {
    if (++it->second >= config_.activation_threshold) {
      // Fire a targeted refresh at this aggressor's neighbors and
      // restart its count.
      it->second = 0;
      ++refreshes_issued_;
      return row;
    }
    return std::nullopt;
  }

  if (table.size() < config_.trackers_per_bank) {
    table.emplace(row, 1);
    return std::nullopt;
  }

  // Misra–Gries decrement step: an untracked row arrives while the table
  // is full — decrement everyone, dropping exhausted entries.  This is
  // the bounded-capacity behaviour that many-sided hammering exploits.
  for (auto entry = table.begin(); entry != table.end();) {
    if (--entry->second == 0) {
      entry = table.erase(entry);
    } else {
      ++entry;
    }
  }
  return std::nullopt;
}

void TrrTracker::advance_cmds(std::uint32_t bank,
                              std::span<const std::uint32_t> cmd_rows,
                              std::uint64_t repeat, std::uint64_t events,
                              std::vector<TrrEmission>& out) {
  RHSD_CHECK(bank < tables_.size());
  RHSD_CHECK(!cmd_rows.empty());
  RHSD_CHECK(repeat > 0);
  out.clear();
  auto& table = tables_[bank];
  const std::uint64_t threshold = config_.activation_threshold;
  const std::uint64_t m = cmd_rows.size();
  const std::uint64_t period = m * repeat;  // activations per pattern period

  // One period's commands grouped by row: each run of equal rows is one
  // distinct row with its command indices in ascending order.
  by_row_.clear();
  for (std::uint64_t c = 0; c < m; ++c) by_row_.emplace_back(cmd_rows[c], c);
  std::sort(by_row_.begin(), by_row_.end());
  const auto steady = [&] {
    for (const auto& entry : by_row_) {
      if (table.count(entry.first) == 0) return false;
    }
    return true;
  };
  const auto row_at = [&](std::uint64_t e) {  // e is 1-based
    return cmd_rows[((e - 1) / repeat) % m];
  };

  // Phase 1: scalar transient with cycle detection.  The state key
  // includes the position within the pattern period, so a repeated key
  // implies the cycle length is a multiple of the period and the
  // recorded emissions replay verbatim.  The first kUnrecordedSteps
  // steps record nothing: short transients (the FTL's per-I/O repeats
  // are 4 activations) never pay for serializing the table, and a cycle
  // entered earlier is still found one cycle after recording starts.
  auto& seen = cycle_states_;  // empty between calls
  bool detect = true;
  std::uint64_t e = 1;
  while (e <= events && !steady()) {
    if (detect && e > kUnrecordedSteps) {
      const std::string key = SerializeState(table, (e - 1) % period);
      const auto [it, inserted] =
          seen.emplace(key, std::make_pair(e, out.size()));
      if (!inserted) {
        const std::uint64_t cycle = e - it->second.first;
        const std::size_t pat_begin = it->second.second;
        const std::size_t pat_len = out.size() - pat_begin;
        const std::uint64_t full = (events - e + 1) / cycle;
        for (std::uint64_t rep = 1; rep <= full; ++rep) {
          for (std::size_t i = 0; i < pat_len; ++i) {
            const TrrEmission& em = out[pat_begin + i];
            out.push_back(TrrEmission{em.index + rep * cycle, em.row});
          }
        }
        refreshes_issued_ += full * pat_len;
        e += full * cycle;
        // The sub-cycle tail replays step by step below.
        detect = false;
        seen.clear();
      } else if (seen.size() > kMaxCycleStates) {
        detect = false;
        seen.clear();
      }
    }
    if (e > events) break;
    if (auto fired = on_activate(bank, row_at(e))) {
      out.push_back(TrrEmission{e, *fired});
    }
    ++e;
  }
  if (!seen.empty()) seen.clear();

  if (e <= events) {
    // Steady: every remaining activation is a pure increment.  First
    // step scalar to a period boundary (at most one period, and each
    // step stays steady), then fold whole periods per distinct row.
    while (e <= events && (e - 1) % period != 0) {
      if (auto fired = on_activate(bank, row_at(e))) {
        out.push_back(TrrEmission{e, *fired});
      }
      ++e;
    }
    if (e <= events) {
      const std::uint64_t e0 = e;  // activation at pattern position 0
      const std::uint64_t remaining = events - e0 + 1;
      const std::uint64_t full = remaining / period;
      const std::uint64_t rem = remaining % period;
      for (std::size_t g = 0; g < by_row_.size();) {
        const std::uint32_t row = by_row_[g].first;
        std::size_t g_end = g + 1;
        while (g_end < by_row_.size() && by_row_[g_end].first == row) ++g_end;
        // The row's own activations within one period: `repeat` per
        // command, at positions c * repeat + j.  Own activation i
        // (0-based) is j = i % repeat of the group's (i / repeat)-th
        // command.
        const std::uint64_t m_r = (g_end - g) * repeat;
        std::uint64_t tail = 0;
        for (std::size_t k = g; k < g_end; ++k) {
          const std::uint64_t p0 = by_row_[k].second * repeat;
          if (p0 < rem) tail += std::min(repeat, rem - p0);
        }
        const std::uint64_t n = full * m_r + tail;
        if (n != 0) {
          // A counter at c fires on its (threshold - c)-th own
          // activation and every threshold-th one after (matching
          // on_activate's pre-increment compare, including the wrap of
          // a 0xffff.. counter left behind by a past decrement
          // underflow).
          std::uint64_t& count = table[row];
          std::uint64_t j1;  // 1-based own-activation index of the 1st fire
          if (count == ~0ull) {
            j1 = 1 + threshold;  // first increment wraps to 0, no fire
          } else if (count >= threshold) {
            j1 = 1;
          } else {
            j1 = threshold - count;
          }
          const std::uint64_t fires = n >= j1 ? 1 + (n - j1) / threshold : 0;
          for (std::uint64_t k = 0; k < fires; ++k) {
            const std::uint64_t i = j1 - 1 + k * threshold;  // own, 0-based
            const std::uint64_t in_period = i % m_r;
            const std::uint64_t pos =
                by_row_[g + in_period / repeat].second * repeat +
                in_period % repeat;
            out.push_back(TrrEmission{e0 + (i / m_r) * period + pos, row});
          }
          if (fires == 0) {
            count += n;  // wrapping add matches repeated wrapping ++
          } else {
            count = n - j1 - (fires - 1) * threshold;
          }
          refreshes_issued_ += fires;
        }
        g = g_end;
      }
      std::sort(out.begin(), out.end(),
                [](const TrrEmission& x, const TrrEmission& y) {
                  return x.index < y.index;
                });
    }
  }
}

void TrrTracker::reset() {
  for (auto& table : tables_) table.clear();
}

}  // namespace rhsd
