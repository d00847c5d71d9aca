#include "attack/escalation.hpp"

#include <cstring>

namespace rhsd {

std::vector<std::uint8_t> EscalationConfig::DefaultMarker() {
  // Four prime-valued little-endian words: distinctive as a payload
  // signature yet pointer-valid in every 4-byte lane (values < 48), so
  // the polyglot block still parses as an indirect array.
  const std::uint32_t primes[4] = {37, 41, 43, 47};
  std::vector<std::uint8_t> marker(sizeof(primes));
  std::memcpy(marker.data(), primes, sizeof(primes));
  return marker;
}

PrivilegeEscalationScenario::PrivilegeEscalationScenario(
    CloudHost& host, EscalationConfig config)
    : host_(host),
      config_(std::move(config)),
      row_map_(host.ssd().ftl().layout(), host.ssd().dram().mapper()),
      finder_(row_map_) {
  if (config_.payload_marker.empty()) {
    config_.payload_marker = EscalationConfig::DefaultMarker();
  }
  const auto [vf, vl] = host_.partition_range(CloudHost::kVictimId);
  const auto [af, al] = host_.partition_range(CloudHost::kAttackerId);
  victim_range_ = LpnRange{vf.value(), vl.value()};
  attacker_range_ = LpnRange{af.value(), al.value()};
  triples_ =
      finder_.cross_partition_triples(attacker_range_, victim_range_);
}

std::uint32_t PrivilegeEscalationScenario::count_wss_events() {
  // Oracle: walk the victim partition's live mappings and check the OOB
  // owner of the resolved page.  (Measurement-only — the attacker does
  // not see this; it just reruns cycles blindly.)
  std::uint32_t events = 0;
  Ftl& ftl = host_.ssd().ftl();
  NandDevice& nand = ftl.nand();
  std::vector<std::uint8_t> page(kBlockSize);
  for (std::uint64_t lpn = victim_range_.first; lpn < victim_range_.last;
       ++lpn) {
    const std::uint32_t pba = ftl.debug_lookup(Lba(lpn));
    if (pba == kUnmappedPba32 || pba >= nand.geometry().total_pages()) {
      continue;
    }
    PageOob oob;
    if (!nand.read_pba(Pba(pba), page, &oob).ok()) continue;
    if (oob.lpn != PageOob::kNoLpn &&
        attacker_range_.contains(oob.lpn)) {
      ++events;
    }
  }
  return events;
}

ExecOutcome PrivilegeEscalationScenario::execute_binary() {
  const fs::Credentials root{0};
  std::vector<std::uint8_t> first_block(kBlockSize);
  auto n = host_.victim_fs().read(root, binary_ino_, 0, first_block);
  if (!n.ok() || *n != first_block.size()) {
    return ExecOutcome::kCrashes;  // unreadable binary
  }
  return Polyglot::CheckExecution(first_block, config_.payload_marker);
}

StatusOr<EscalationReport> PrivilegeEscalationScenario::run() {
  EscalationReport report;
  if (triples_.empty()) return report;

  // Install the root-owned setuid binary on the victim filesystem.
  const fs::Credentials root{0};
  fs::FileSystem& vfs = host_.victim_fs();
  RHSD_ASSIGN_OR_RETURN(binary_ino_,
                        vfs.create(root, "/sbin-sudo", 04755));
  for (std::uint32_t b = 0; b < config_.binary_blocks; ++b) {
    RHSD_RETURN_IF_ERROR(
        vfs.write(root, binary_ino_,
                  static_cast<std::uint64_t>(b) * kBlockSize,
                  Polyglot::MakeOriginalBinaryBlock(b)));
  }
  RHSD_CHECK(execute_binary() == ExecOutcome::kRunsOriginal);

  // Blind polyglot spray over the attacker's whole partition.
  const std::uint64_t spray_blocks = host_.attacker_tenant().blocks();
  const std::vector<std::uint8_t> polyglot = Polyglot::MakeBlock(
      config_.payload_marker,
      static_cast<std::uint32_t>(host_.victim_tenant().blocks()));
  for (std::uint64_t slba = 0; slba < spray_blocks; ++slba) {
    Status s = host_.attacker_tenant().write_blocks(slba, polyglot);
    if (!s.ok()) break;  // partition full / device back-pressure
  }

  HammerOrchestrator hammer(host_.attacker_tenant(), finder_,
                            attacker_range_);
  DramDevice& dram = host_.ssd().dram();

  for (std::uint32_t cycle = 0; cycle < config_.max_cycles; ++cycle) {
    EscalationCycle cr;
    cr.cycle = cycle;
    const std::uint64_t flips0 = dram.stats().bitflips;

    const std::uint32_t limit =
        config_.max_triples_per_cycle != 0
            ? config_.max_triples_per_cycle
            : static_cast<std::uint32_t>(triples_.size());
    for (std::uint32_t i = 0; i < limit && i < triples_.size(); ++i) {
      const TripleSet& t = triples_[(cycle * limit + i) % triples_.size()];
      (void)hammer.hammer_triple(t, HammerMode::kDoubleSided,
                                 config_.hammer_seconds_per_triple);
    }

    cr.new_flips = dram.stats().bitflips - flips0;
    cr.wss_events = count_wss_events();
    cr.exec = execute_binary();
    report.cycles.push_back(cr);
    report.total_flips += cr.new_flips;
    report.total_wss_events += cr.wss_events;
    ++report.cycles_run;

    if (cr.exec == ExecOutcome::kRunsAttackerCode) {
      report.escalated = true;
      break;
    }
    if (cr.exec == ExecOutcome::kCrashes) {
      // §3.2 outcome (1): plain corruption — root's binary is broken
      // but the attacker gained nothing; in reality the admin would
      // reinstall, here we just record it and keep hammering.
      report.binary_crashed = true;
    }
  }
  return report;
}

}  // namespace rhsd
