// Deterministic fault injection runtime.
//
// One FaultInjector serves a whole simulated SSD: the NAND, DRAM, FTL
// and NVMe layers each call tick(cls) once per operation of their class,
// and the injector answers "does this operation fault, and how".  The
// decision is a pure function of (plan, per-class operation counter) —
// never of threads, host time, or call sites — so a run is exactly
// replayable from (seed, FaultPlan), and the recovery tests can pin the
// precise sequence of injected faults and firmware reactions.
//
// Devices hold the injector as a nullable pointer: a null injector (the
// default everywhere) costs one branch per operation and preserves the
// fault-free behaviour of the seed simulator bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault_plan.hpp"

namespace rhsd {

/// One injected fault, for test assertions and experiment output.
struct InjectionRecord {
  FaultClass cls = FaultClass::kNandRead;
  std::uint64_t op_index = 0;
  std::uint64_t param = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {});

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Advance class `cls`'s operation counter by one and return the fault
  /// scheduled for the operation just counted, if any.
  std::optional<FaultEvent> tick(FaultClass cls);

  /// Operations of `cls` observed so far.
  [[nodiscard]] std::uint64_t ops(FaultClass cls) const {
    return counters_[index(cls)];
  }

  /// The next op index >= the current counter at which a `cls` tick
  /// would fault, or kNoFault if the plan schedules none.  Pure lookahead:
  /// counters and cursors are not moved.
  static constexpr std::uint64_t kNoFault = ~0ull;
  [[nodiscard]] std::uint64_t next_fault_at(FaultClass cls) const;

  /// Fault-free `cls` operations before the next faulting one (0 = the
  /// very next tick faults), or kNoFault: next_fault_at() - ops().
  [[nodiscard]] std::uint64_t ops_until_fault(FaultClass cls) const;

  /// Advance class `cls`'s counter by `n` operations that are known to be
  /// fault-free (callers must have checked ops_until_fault).  Replaces `n`
  /// individual ticks without touching the log.
  void skip_ops(FaultClass cls, std::uint64_t n);

  /// Every fault actually injected, in injection order.
  [[nodiscard]] const std::vector<InjectionRecord>& log() const {
    return log_;
  }

  /// Reset all counters and the log (the plan is kept).  Used when a
  /// harness replays the same plan against a fresh device.
  void reset();

 private:
  struct Window {
    std::uint64_t begin = 0;  // first faulting op index
    std::uint64_t end = 0;    // one past the last
    std::uint64_t param = 0;
    std::uint32_t count = 1;
  };

  [[nodiscard]] static std::size_t index(FaultClass cls) {
    return static_cast<std::size_t>(cls);
  }

  FaultPlan plan_;
  /// Per class: fault windows sorted by begin, plus a cursor to the
  /// first window that could still match (ticks only move forward).
  std::array<std::vector<Window>, kNumFaultClasses> windows_;
  std::array<std::size_t, kNumFaultClasses> cursors_{};
  std::array<std::uint64_t, kNumFaultClasses> counters_{};
  std::vector<InjectionRecord> log_;
};

}  // namespace rhsd
