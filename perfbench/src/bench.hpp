// Shared pieces of the repo benchmark: seed derivation, output digests,
// per-pass results and the workload interface.
//
// A run repeats *passes* of one workload.  Every pass builds fresh
// simulator state in setup(), then executes the timed phase in run().
// The simulator is deterministic, so every pass of a run must produce
// the same digest; only host time varies.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "ssd/ssd_device.hpp"

namespace perfbench {

/// Host seconds on a monotonic clock.
inline double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything a workload draws from the one CLI seed.
struct Inputs {
  std::uint64_t seed = 0;
  std::uint64_t device_seed = 0;       // SsdConfig::seed of every host
  std::uint64_t workload_seed = 0;     // WorkloadGenerator seeds
  std::uint64_t arbitration_seed = 0;  // EventLoopConfig::seed
};

[[nodiscard]] Inputs DeriveInputs(std::uint64_t cli_seed);

/// Independent seed number `index` of the stream rooted at `base`.
[[nodiscard]] std::uint64_t SubSeed(std::uint64_t base, std::uint64_t index);

/// Order-sensitive 64-bit digest of simulated outputs.  Scalar fields
/// are also kept as `key=value` lines so a mismatch can be diagnosed;
/// bulk data (completion streams, flip events) only feeds the hash.
class Digest {
 public:
  void mix(std::uint64_t v);
  void field(const std::string& key, std::uint64_t v);
  void field(const std::string& key, double v);  // exact, as %a
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] std::string hex() const;

 private:
  void mix_text(const std::string& s);
  std::uint64_t hash_ = 0;
  std::string text_;
};

/// Per-layer work counts, keyed by metric-style names.  Filled on every
/// pass (it is cheap); only the traced run reports them.
using Counts = std::map<std::string, double>;

/// Adds the NVMe/FTL/DRAM/NAND statistics a device accumulated since
/// `before` to `counts`, and returns the simulated NVMe commands retired
/// in that interval (closed-form replayed pattern reads included).
struct DeviceSnapshot {
  rhsd::NvmeStats nvme;
  rhsd::FtlStats ftl;
  rhsd::DramStats dram;
  rhsd::NandStats nand;
};
[[nodiscard]] DeviceSnapshot Snapshot(rhsd::SsdDevice& ssd);
std::uint64_t AddDeviceDeltas(rhsd::SsdDevice& ssd,
                              const DeviceSnapshot& before, Counts& counts);

/// Mixes the final FTL/DRAM/NAND/NVMe statistics of a device.
void DigestDeviceStats(rhsd::SsdDevice& ssd, Digest& digest);

struct PassResult {
  double setup_s = 0.0;  // config to first timed command
  double run_s = 0.0;    // the timed phase
  std::uint64_t sim_cmds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest digest;
  Counts counts;
};

struct Options {
  /// Worker threads for trial-parallel workloads (callers included).
  unsigned workers = 1;
  /// Drive the attack stages one by one (with spans) instead of
  /// through EndToEndAttack::run.
  bool staged = false;
};

/// One benchmark workload.  A fresh object is built for every pass.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Host construction, fs format, tenants, queue pairs, scripts and
  /// aggressor finding: everything before the first timed command.
  virtual void setup() = 0;
  /// The timed phase.  Fills everything in `out` except the two times;
  /// returns host seconds spent inside it on work that is set-up (fresh
  /// hosts built mid-phase), which the caller excludes from run_s.
  virtual double run(PassResult& out) = 0;
};

/// Metric-name form of a mitigation scenario name ("TRR vs many-sided"
/// -> "trr_vs_many_sided").
[[nodiscard]] std::string ScenarioSlug(const std::string& name);

std::unique_ptr<Workload> MakeExploit(const Inputs& in, const Options& opt);
std::unique_ptr<Workload> MakeMitigations(const Inputs& in,
                                          const Options& opt);
/// The §5 matrix through MitigationStudy::Run, one trial at a time:
/// the reference the benchmark's own staged matrix is checked against.
std::unique_ptr<Workload> MakeMitigationsReference();
std::unique_ptr<Workload> MakeCloudRead(const Inputs& in,
                                        const Options& opt);
std::unique_ptr<Workload> MakeCloudRw(const Inputs& in, const Options& opt);

}  // namespace perfbench
