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

/// One batched pattern submission: one single-block command per element
/// of `slbas` per round, repeated until a bound is hit.  At least one
/// of `rounds` / `deadline_ns` must be set; when both are, whichever
/// trips first ends the run — bit-exact with the scalar shape
/// `while (now < deadline && r < rounds)` issuing one single-round
/// submit_pattern() per iteration.
///
/// With `data` empty (the default) every command is a read into `out`.
/// With `data` set (exactly one 4 KiB block) every command instead
/// *writes* that block — a write pattern hammers the same L2P entry
/// rows as the equivalent read pattern, plus the programs, so tenants
/// can drive write pressure through the same submission interface.
struct PatternRequest {
  static constexpr std::uint64_t kNoRounds = ~0ull;
  static constexpr std::uint64_t kNoDeadline = ~0ull;

  std::span<const std::uint64_t> slbas;
  std::span<std::uint8_t> out = {};  // reads: exactly one 4 KiB block, shared
  /// Non-empty turns the pattern into writes of this one 4 KiB block.
  std::span<const std::uint8_t> data = {};
  std::uint64_t rounds = kNoRounds;
  std::uint64_t deadline_ns = kNoDeadline;
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
  /// The batched pattern entry point: equivalent to issuing one read()
  /// per element per round (same commands, same clock charges, same
  /// stats, same fault-op alignment), but entire fault-free stretches
  /// are replayed in closed form per layer instead of per command.
  /// The first round always runs scalar (it settles cache/ECC state
  /// the replay then proves invariant); commands carrying injected
  /// faults or scrub triggers drop back to scalar automatically, and
  /// chunks spanning refresh-window edges are split per window inside
  /// the DRAM replay.  Aborts on the first command error, exactly like
  /// the scalar loop.  A write pattern (`req.data` set) runs the plain
  /// scalar loop under the same bounds: every write mutates FTL state,
  /// so there is no invariant stretch to replay in closed form.
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

  StatusOr<Lba> translate(std::uint32_t nsid, std::uint64_t slba) const;
  void charge(bool flash_accessed);
  /// Engine behind submit_pattern().  Runs rounds while *both* active
  /// bounds allow (`max_rounds == kNoRounds` / `deadline_ns ==
  /// kNoDeadline` disable the respective bound; at least one must be
  /// active).
  static constexpr std::uint64_t kNoDeadline = PatternRequest::kNoDeadline;
  static constexpr std::uint64_t kNoRounds = PatternRequest::kNoRounds;
  Status run_pattern(std::uint32_t nsid,
                     std::span<const std::uint64_t> slbas,
                     std::span<std::uint8_t> out, std::uint64_t max_rounds,
                     std::uint64_t deadline_ns, std::uint64_t* rounds_done);
  /// Write-pattern engine: the literal scalar loop under the same round
  /// and deadline bounds as run_pattern().
  Status run_write_pattern(std::uint32_t nsid,
                           std::span<const std::uint64_t> slbas,
                           std::span<const std::uint8_t> data,
                           std::uint64_t max_rounds,
                           std::uint64_t deadline_ns,
                           std::uint64_t* rounds_done);
  /// Commands until the next injected transport fault (timeout or
  /// drop), or FaultInjector::kNoFault.
  [[nodiscard]] std::uint64_t transport_faults_away() const;
  Status read_one(std::uint32_t nsid, std::uint64_t slba,
                  std::span<std::uint8_t> out);
  Status read_body(std::uint32_t nsid, std::uint64_t slba,
                   std::span<std::uint8_t> out);
  Status write_body(std::uint32_t nsid, std::uint64_t slba,
                    std::span<const std::uint8_t> data);
  Status trim_body(std::uint32_t nsid, std::uint64_t slba,
                   std::uint64_t nblocks);
  Status flush_body(std::uint32_t nsid);

  NvmeConfig config_;
  Ftl& ftl_;
  SimClock& clock_;
  FaultInjector* injector_ = nullptr;
  std::optional<RateLimiter> limiter_;
  std::uint64_t commands_ = 0;
  SimClock::Nanos first_cmd_ns_ = 0;
  bool any_cmd_ = false;
  NvmeStats stats_;
};

}  // namespace rhsd
