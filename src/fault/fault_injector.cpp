#include "fault/fault_injector.hpp"

#include <algorithm>

namespace rhsd {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (const FaultEvent& e : plan_.events()) {
    windows_[index(e.cls)].push_back(Window{
        .begin = e.op_index,
        .end = e.op_index + std::max<std::uint32_t>(e.count, 1),
        .param = e.param,
        .count = std::max<std::uint32_t>(e.count, 1),
    });
  }
  for (auto& w : windows_) {
    std::sort(w.begin(), w.end(), [](const Window& a, const Window& b) {
      return a.begin < b.begin;
    });
  }
}

std::optional<FaultEvent> FaultInjector::tick(FaultClass cls) {
  const std::size_t c = index(cls);
  const std::uint64_t op = counters_[c]++;
  auto& windows = windows_[c];
  std::size_t& cursor = cursors_[c];
  // Skip windows entirely behind the current op; overlapping windows are
  // all consulted (first match wins).
  while (cursor < windows.size() && windows[cursor].end <= op) ++cursor;
  for (std::size_t i = cursor; i < windows.size(); ++i) {
    if (windows[i].begin > op) break;
    if (op < windows[i].end) {
      log_.push_back(InjectionRecord{cls, op, windows[i].param});
      return FaultEvent{cls, op, windows[i].count, windows[i].param};
    }
  }
  return std::nullopt;
}

std::uint64_t FaultInjector::next_fault_at(FaultClass cls) const {
  const std::size_t c = index(cls);
  const std::uint64_t counter = counters_[c];
  std::uint64_t best = kNoFault;
  for (std::size_t i = cursors_[c]; i < windows_[c].size(); ++i) {
    const Window& w = windows_[c][i];
    if (w.begin >= best) break;  // sorted by begin: no better candidate left
    const std::uint64_t candidate = std::max(w.begin, counter);
    if (candidate < w.end) best = std::min(best, candidate);
  }
  return best;
}

std::uint64_t FaultInjector::ops_until_fault(FaultClass cls) const {
  const std::uint64_t at = next_fault_at(cls);
  return at == kNoFault ? kNoFault : at - ops(cls);
}

void FaultInjector::skip_ops(FaultClass cls, std::uint64_t n) {
  counters_[index(cls)] += n;
}

void FaultInjector::reset() {
  cursors_.fill(0);
  counters_.fill(0);
  log_.clear();
}

}  // namespace rhsd
