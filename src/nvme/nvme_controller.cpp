#include "nvme/nvme_controller.hpp"

#include <algorithm>

namespace rhsd {

NvmeController::NvmeController(NvmeConfig config, Ftl& ftl, SimClock& clock)
    : config_(std::move(config)), ftl_(ftl), clock_(clock) {
  RHSD_CHECK_MSG(!config_.namespaces.empty(), "need at least one namespace");
  // Validate bounds and non-overlap.
  for (std::size_t i = 0; i < config_.namespaces.size(); ++i) {
    const auto& ns = config_.namespaces[i];
    RHSD_CHECK_MSG(ns.blocks > 0, "empty namespace");
    RHSD_CHECK_MSG(ns.start.value() + ns.blocks <= ftl_.config().num_lbas,
                   "namespace exceeds device capacity");
    for (std::size_t j = i + 1; j < config_.namespaces.size(); ++j) {
      const auto& other = config_.namespaces[j];
      const bool disjoint =
          ns.start.value() + ns.blocks <= other.start.value() ||
          other.start.value() + other.blocks <= ns.start.value();
      RHSD_CHECK_MSG(disjoint, "namespaces overlap");
    }
  }
  if (config_.rate_limit.has_value()) {
    limiter_.emplace(*config_.rate_limit);
  }
}

const NvmeNamespaceConfig& NvmeController::namespace_info(
    std::uint32_t nsid) const {
  RHSD_CHECK_MSG(nsid >= 1 && nsid <= config_.namespaces.size(),
                 "bad namespace id");
  return config_.namespaces[nsid - 1];
}

StatusOr<Lba> NvmeController::translate(std::uint32_t nsid,
                                        std::uint64_t slba) const {
  if (nsid < 1 || nsid > config_.namespaces.size()) {
    return InvalidArgument("unknown namespace " + std::to_string(nsid));
  }
  const auto& ns = config_.namespaces[nsid - 1];
  if (slba >= ns.blocks) {
    return OutOfRange("LBA " + std::to_string(slba) +
                      " beyond namespace of " + std::to_string(ns.blocks) +
                      " blocks");
  }
  return Lba(ns.start.value() + slba);
}

void NvmeController::charge(bool flash_accessed) {
  if (!any_cmd_) {
    any_cmd_ = true;
    first_cmd_ns_ = clock_.now_ns();
  }
  std::uint64_t ns_cost = 0;
  if (limiter_.has_value()) {
    ns_cost += limiter_->acquire(clock_.now_ns());
  }
  ns_cost += config_.iops.service_ns(flash_accessed);
  clock_.advance_ns(ns_cost);
  stats_.busy_ns += ns_cost;
}

NvmeController::TransportFault NvmeController::tick_transport() {
  if (injector_ == nullptr) return TransportFault::kNone;
  // Both streams advance for every dispatched command — also for one
  // the namespace front end will reject — so a command that dies early
  // never shifts a later event's op index.  Ticked timeout-then-drop;
  // a drop wins when both fire (the device never saw the command).
  const bool timed_out =
      injector_->tick(FaultClass::kNvmeTimeout).has_value();
  const bool dropped = injector_->tick(FaultClass::kNvmeDrop).has_value();
  if (dropped) {
    ++stats_.transport_drops;
    return TransportFault::kDrop;
  }
  if (timed_out) {
    ++stats_.transport_timeouts;
    return TransportFault::kTimeout;
  }
  return TransportFault::kNone;
}

double NvmeController::measured_iops() const {
  if (!any_cmd_ || clock_.now_ns() <= first_cmd_ns_) return 0.0;
  const double seconds =
      static_cast<double>(clock_.now_ns() - first_cmd_ns_) * 1e-9;
  const std::uint64_t commands = stats_.read_cmds + stats_.write_cmds +
                                 stats_.trim_cmds + stats_.flush_cmds;
  return static_cast<double>(commands) / seconds;
}

template <typename Body>
Status NvmeController::transport(const char* cmd, Body&& body) {
  const TransportFault fault = tick_transport();
  if (fault == TransportFault::kDrop) {
    return Unavailable(std::string(cmd) + " command lost in transit");
  }
  const Status s = body();
  if (fault == TransportFault::kTimeout) {
    return DeadlineExceeded(std::string(cmd) +
                            " command completion timed out");
  }
  return s;
}

Status NvmeController::read(std::uint32_t nsid, std::uint64_t slba,
                            std::span<std::uint8_t> out) {
  return transport("read", [&]() -> Status {
    if (out.size() % kBlockSize != 0 || out.empty()) {
      ++stats_.errors;
      return InvalidArgument("read length must be a multiple of 4 KiB");
    }
    const std::uint64_t nblocks = out.size() / kBlockSize;
    for (std::uint64_t i = 0; i < nblocks; ++i) {
      auto lba = translate(nsid, slba + i);
      if (!lba.ok()) {
        ++stats_.errors;
        return lba.status();
      }
      FtlIoInfo info;
      Status s = ftl_.read(*lba,
                           out.subspan(i * kBlockSize, kBlockSize), &info);
      ++stats_.read_cmds;
      charge(info.flash_accessed);
      if (!s.ok()) {
        ++stats_.errors;
        return s;
      }
    }
    return Status::Ok();
  });
}

std::uint64_t NvmeController::transport_faults_away() const {
  if (injector_ == nullptr) return FaultInjector::kNoFault;
  return std::min(injector_->ops_until_fault(FaultClass::kNvmeTimeout),
                  injector_->ops_until_fault(FaultClass::kNvmeDrop));
}

Status NvmeController::submit_pattern(std::uint32_t nsid,
                                      const PatternRequest& req) {
  std::uint64_t local = 0;
  std::uint64_t* rounds_done =
      req.rounds_done != nullptr ? req.rounds_done : &local;
  *rounds_done = 0;
  if (req.out.size() != kBlockSize) {
    ++stats_.errors;
    return InvalidArgument("pattern reads are one 4 KiB block each");
  }
  if (req.slbas.empty()) {
    ++stats_.errors;
    return InvalidArgument(
        "pattern must not be empty (it would never advance the clock)");
  }
  const std::uint64_t P = req.slbas.size();
  std::uint64_t g = 0;  // commands completed; command g reads slbas[g % P]
  const auto read_next = [&] {
    const Status s = read(nsid, req.slbas[g % P], req.out);
    if (s.ok()) ++g;
    return s;
  };
  // Scalar commands up to the next round edge: a whole round from one.
  const auto finish_round = [&] {
    do {
      RHSD_RETURN_IF_ERROR(read_next());
    } while (g % P != 0);
    return Status::Ok();
  };

  // Set up the closed-form replay; an obstacle (bad LBA, device down)
  // leaves can_batch false and every round below runs scalar —
  // identical behaviour, original speed.
  PatternReplayPlan plan;
  bool can_batch = true;
  {
    std::vector<Lba> lbas;
    lbas.reserve(P);
    for (const std::uint64_t slba : req.slbas) {
      const auto lba = translate(nsid, slba);
      if (!lba.ok()) {
        can_batch = false;
        break;
      }
      lbas.push_back(*lba);
    }
    if (can_batch) can_batch = ftl_.plan_pattern_replay(lbas, &plan);
  }

  const std::uint64_t service_ns =
      config_.iops.service_ns(/*flash_accessed=*/false);
  bool warmed = false;  // the mandatory first scalar round ran
  for (;;) {
    if (g % P == 0) {
      *rounds_done = g / P;
      if (clock_.now_ns() >= req.deadline_ns) return Status::Ok();
      if (!can_batch || !warmed) {
        // The first round always runs scalar: it settles the state the
        // replay then proves invariant (cache residency, latent ECC
        // corrections, the zeroed output buffer).
        RHSD_RETURN_IF_ERROR(finish_round());
        warmed = true;
        continue;
      }
    }
    if (!ftl_.pattern_state_ok(plan)) {
      // The replay invariants drifted (a flip hit an entry, a scrub
      // repaired one, a line got evicted): finish this round scalar and
      // re-check at the next boundary.
      RHSD_RETURN_IF_ERROR(finish_round());
      continue;
    }
    const std::uint64_t safe =
        std::min(ftl_.replay_safe_cmds(plan), transport_faults_away());
    // A chunk starts only at the limiter's fixed point, where every
    // command stalls the same (nothing, without a limiter): its command
    // bodies then run at t, t + step, ... for step = service + stall.
    std::optional<std::uint64_t> stall = 0;
    if (limiter_.has_value()) {
      stall = limiter_->steady_stall(clock_.now_ns(), service_ns);
    }
    if (safe == 0 || !stall.has_value()) {
      // This command carries an injected fault or the scrub trigger, or
      // the limiter has not settled — run it for real so the event
      // lands exactly where the scalar loop would put it.
      RHSD_RETURN_IF_ERROR(read_next());
      continue;
    }
    // Size the chunk up to the fault horizon and the first round that
    // would start at or past the deadline.  Refresh-window edges do not
    // cut it: hammer_pattern splits the command stream into per-window
    // segments internally.
    const std::uint64_t t = clock_.now_ns();
    const std::uint64_t step = service_ns + *stall;
    std::uint64_t n = P - g % P;  // to the next round start
    if (t < req.deadline_ns) {
      // First command at or past the deadline, rounded up to the round
      // grid.
      const std::uint64_t nd = (req.deadline_ns - t + step - 1) / step;
      if (nd > n) n += (nd - n + P - 1) / P * P;
    }
    n = std::min(n, safe);
    const CmdTimes times{t, step, n};
    if (!ftl_.replay_pattern_reads(plan, g, n, times)) {
      // A disturbance flip would land inside the pattern's own entries;
      // only the scalar path models that feedback.  Scalar to the round
      // edge, then re-plan from the new state.
      RHSD_RETURN_IF_ERROR(finish_round());
      continue;
    }
    // Commit the closed-form queue/clock charges for the n commands.
    stats_.busy_ns += n * step;
    clock_.advance_ns(n * step);
    if (limiter_.has_value()) limiter_->skip_steady(times[n - 1], *stall);
    stats_.read_cmds += n;
    if (injector_ != nullptr) {
      injector_->skip_ops(FaultClass::kNvmeTimeout, n);
      injector_->skip_ops(FaultClass::kNvmeDrop, n);
    }
    g += n;
    *rounds_done = g / P;
  }
}

Status NvmeController::write(std::uint32_t nsid, std::uint64_t slba,
                             std::span<const std::uint8_t> data) {
  return transport("write", [&]() -> Status {
    if (data.size() % kBlockSize != 0 || data.empty()) {
      ++stats_.errors;
      return InvalidArgument("write length must be a multiple of 4 KiB");
    }
    const std::uint64_t nblocks = data.size() / kBlockSize;
    for (std::uint64_t i = 0; i < nblocks; ++i) {
      auto lba = translate(nsid, slba + i);
      if (!lba.ok()) {
        ++stats_.errors;
        return lba.status();
      }
      Status s = ftl_.write(*lba, data.subspan(i * kBlockSize, kBlockSize));
      ++stats_.write_cmds;
      charge(/*flash_accessed=*/true);
      if (!s.ok()) {
        ++stats_.errors;
        return s;
      }
    }
    return Status::Ok();
  });
}

Status NvmeController::trim(std::uint32_t nsid, std::uint64_t slba,
                            std::uint64_t nblocks) {
  return transport("trim", [&]() -> Status {
    for (std::uint64_t i = 0; i < nblocks; ++i) {
      auto lba = translate(nsid, slba + i);
      if (!lba.ok()) {
        ++stats_.errors;
        return lba.status();
      }
      Status s = ftl_.trim(*lba);
      ++stats_.trim_cmds;
      charge(/*flash_accessed=*/false);
      if (!s.ok()) {
        ++stats_.errors;
        return s;
      }
    }
    return Status::Ok();
  });
}

Status NvmeController::flush(std::uint32_t nsid) {
  return transport("flush", [&]() -> Status {
    if (nsid < 1 || nsid > config_.namespaces.size()) {
      ++stats_.errors;
      return InvalidArgument("unknown namespace " + std::to_string(nsid));
    }
    // All writes in this model are durable on completion; flush is a
    // timing no-op charged like a command.
    ++stats_.flush_cmds;
    charge(/*flash_accessed=*/false);
    return Status::Ok();
  });
}

}  // namespace rhsd
