// §3.2 "privilege escalation": the write-something-somewhere primitive.
//
// The victim VM has a root-owned setuid binary (think /usr/bin/sudo) on
// its filesystem.  The attacker blindly sprays polyglot blocks into its
// own partition and hammers the shared L2P table; a flip that redirects
// one of the *victim binary's* LBAs to an attacker polyglot PBA means
// the next time root runs the binary, the attacker's payload executes
// with root privileges.  The paper calls this "the hardest to exploit" —
// the scenario measures exactly how hard: per cycle it classifies every
// victim-visible outcome (binary intact / crashed / attacker code ran)
// and counts write-something-somewhere events (victim LBAs resolving to
// attacker-written flash pages).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/aggressor_finder.hpp"
#include "attack/hammer_orchestrator.hpp"
#include "attack/polyglot.hpp"
#include "cloud/cloud_host.hpp"

namespace rhsd {

struct EscalationConfig {
  /// Size of the victim's setuid binary in blocks (a bigger binary is a
  /// bigger target).
  std::uint32_t binary_blocks = 64;
  std::uint32_t max_cycles = 16;
  double hammer_seconds_per_triple = 0.05;
  std::uint32_t max_triples_per_cycle = 16;
  /// The attacker's payload marker (must keep every 4-byte word small
  /// so the block stays pointer-valid; see Polyglot::MakeBlock).
  std::vector<std::uint8_t> payload_marker;

  [[nodiscard]] static std::vector<std::uint8_t> DefaultMarker();
};

struct EscalationCycle {
  std::uint32_t cycle = 0;
  std::uint64_t new_flips = 0;
  /// Victim LBAs now resolving to attacker-written pages ("write-
  /// something-somewhere" events visible this cycle).
  std::uint32_t wss_events = 0;
  ExecOutcome exec = ExecOutcome::kRunsOriginal;
};

struct EscalationReport {
  bool escalated = false;          // attacker code ran as root
  bool binary_crashed = false;     // corruption outcome instead
  std::uint32_t cycles_run = 0;
  std::uint64_t total_flips = 0;
  std::uint32_t total_wss_events = 0;
  std::vector<EscalationCycle> cycles;
};

class PrivilegeEscalationScenario {
 public:
  PrivilegeEscalationScenario(CloudHost& host, EscalationConfig config);

  /// Install the setuid binary, spray polyglots, and run hammer/execute
  /// cycles until the attacker's code runs as root or cycles run out.
  StatusOr<EscalationReport> run();

  [[nodiscard]] std::uint32_t binary_ino() const { return binary_ino_; }

 private:
  /// Count victim-partition LBAs whose mapping resolves to a flash page
  /// written by the attacker tenant (experiment oracle).
  [[nodiscard]] std::uint32_t count_wss_events();
  /// Root runs the binary: read its first block and interpret it.
  [[nodiscard]] ExecOutcome execute_binary();

  CloudHost& host_;
  EscalationConfig config_;
  L2pRowMap row_map_;
  AggressorFinder finder_;
  LpnRange attacker_range_;
  LpnRange victim_range_;
  std::vector<TripleSet> triples_;
  std::uint32_t binary_ino_ = 0;
};

}  // namespace rhsd
