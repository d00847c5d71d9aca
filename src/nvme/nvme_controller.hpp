// NVMe-style command front end.
//
// Exposes the shared SSD as per-tenant namespaces ("Each VM's storage
// space is a partition of the shared SSD, treated as a block device with
// its own logical address space … However, the underlying FTL and its
// mapping table are shared across partitions", §4.1).  Namespace bounds
// are enforced here — a tenant can only *address* its own partition —
// while the rowhammer attack corrupts the shared table underneath.
//
// Commands advance the simulated clock through the IopsModel (and the
// optional §5 rate limiter), which is what turns "requests" into
// "requests per second" for the feasibility analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/sim_clock.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "ftl/ftl.hpp"
#include "nvme/iops_model.hpp"
#include "nvme/rate_limiter.hpp"

namespace rhsd {

struct NvmeNamespaceConfig {
  Lba start{0};              // first device LBA of this namespace
  std::uint64_t blocks = 0;  // namespace size in 4 KiB blocks
};

struct NvmeConfig {
  std::vector<NvmeNamespaceConfig> namespaces;
  IopsModel iops = IopsModel::ForInterface(HostInterface::kPcie4);
  std::optional<RateLimiterConfig> rate_limit;  // §5 mitigation
};

struct NvmeStats {
  std::uint64_t read_cmds = 0;
  std::uint64_t write_cmds = 0;
  std::uint64_t trim_cmds = 0;
  std::uint64_t flush_cmds = 0;
  std::uint64_t errors = 0;
  std::uint64_t busy_ns = 0;  // simulated time spent servicing commands
  /// Injected transport faults consumed at the namespace front end
  /// (not counted in `errors`: the command body never ran or its
  /// completion was lost, which is a transport condition, not a
  /// device error).
  std::uint64_t transport_timeouts = 0;
  std::uint64_t transport_drops = 0;
};

/// One batched pattern submission, the hammer loop of §3.1: rounds of
/// one single-block read per element of `slbas`, a round starting only
/// while the clock is before `deadline_ns` — bit-exact with the scalar
/// loop `while (now < deadline) for each LBA: read()`.  Every command
/// reads into `out`.
struct PatternRequest {
  std::span<const std::uint64_t> slbas;
  std::span<std::uint8_t> out = {};  // exactly one 4 KiB block, shared
  std::uint64_t deadline_ns = 0;
  /// Completed rounds, reported also on error.  Optional.
  std::uint64_t* rounds_done = nullptr;
};

class NvmeController {
 public:
  /// `ftl` and `clock` must outlive the controller. Namespaces must lie
  /// within the FTL's logical capacity and not overlap.
  NvmeController(NvmeConfig config, Ftl& ftl, SimClock& clock);

  NvmeController(const NvmeController&) = delete;
  NvmeController& operator=(const NvmeController&) = delete;

  /// Read `out.size()/4096` blocks starting at namespace-relative slba.
  Status read(std::uint32_t nsid, std::uint64_t slba,
              std::span<std::uint8_t> out);
  /// The batched pattern entry point: equivalent to the scalar loop of
  /// one read() per element per round (same commands, same clock
  /// charges, same stats, same fault-op alignment), but entire
  /// fault-free stretches are replayed in closed form per layer instead
  /// of per command.  The first round always runs scalar (it settles
  /// cache/ECC state the replay then proves invariant), and so does
  /// every command before the rate limiter reaches its fixed point
  /// (RateLimiter::steady_stall), which makes a chunk's command times
  /// an arithmetic progression; commands carrying injected faults or
  /// scrub triggers drop back to scalar automatically, and chunks
  /// spanning refresh-window edges are split per window inside the DRAM
  /// replay.  An empty pattern is InvalidArgument (it would never
  /// advance the clock).  Aborts on the first command error, exactly
  /// like the scalar loop.
  Status submit_pattern(std::uint32_t nsid, const PatternRequest& req);
  Status write(std::uint32_t nsid, std::uint64_t slba,
               std::span<const std::uint8_t> data);
  /// Dataset-management deallocate (TRIM).
  Status trim(std::uint32_t nsid, std::uint64_t slba, std::uint64_t nblocks);
  Status flush(std::uint32_t nsid);

  [[nodiscard]] std::uint32_t namespace_count() const {
    return static_cast<std::uint32_t>(config_.namespaces.size());
  }
  [[nodiscard]] const NvmeNamespaceConfig& namespace_info(
      std::uint32_t nsid) const;

  [[nodiscard]] const NvmeStats& stats() const { return stats_; }
  [[nodiscard]] const NvmeConfig& config() const { return config_; }
  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] Ftl& ftl() { return ftl_; }

  /// Measured command rate so far (commands / simulated second).
  [[nodiscard]] double measured_iops() const;

  /// Attach a fault injector (nullptr detaches).  Every command —
  /// including one later rejected at the namespace boundary — consumes
  /// one kNvmeTimeout and one kNvmeDrop op index at dispatch, so a
  /// plan's later injections stay aligned with the command trace no
  /// matter where earlier commands die.  A drop returns Unavailable
  /// without executing; a timeout executes the command but loses the
  /// completion (DeadlineExceeded).  submit_pattern() ticks once per
  /// element, matching its one-command-per-LBA contract.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

 private:
  /// Injected transport outcome of one dispatched command.
  enum class TransportFault { kNone, kTimeout, kDrop };

  [[nodiscard]] TransportFault tick_transport();
  /// One dispatched command: ticks its transport faults, then runs
  /// `body` unless the command was dropped (Unavailable); a timed-out
  /// command runs but reports DeadlineExceeded.  `cmd` names it in the
  /// message.
  template <typename Body>
  Status transport(const char* cmd, Body&& body);

  StatusOr<Lba> translate(std::uint32_t nsid, std::uint64_t slba) const;
  void charge(bool flash_accessed);
  /// Commands until the next injected transport fault (timeout or
  /// drop), or FaultInjector::kNoFault.
  [[nodiscard]] std::uint64_t transport_faults_away() const;

  NvmeConfig config_;
  Ftl& ftl_;
  SimClock& clock_;
  FaultInjector* injector_ = nullptr;
  std::optional<RateLimiter> limiter_;
  SimClock::Nanos first_cmd_ns_ = 0;
  bool any_cmd_ = false;
  NvmeStats stats_;
};

}  // namespace rhsd
