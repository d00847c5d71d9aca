// SsdDevice: the emulated SSD, fully wired.
//
// Composition mirrors §4.1's prototype: a memory-backed device (our
// DramDevice plays the role of the testbed's DDR3), an FTL with its L2P
// table resident in that DRAM, a NAND model underneath, and an NVMe
// front end splitting the device into per-tenant partitions that share
// the FTL.  `PaperSetup()` reproduces the paper's configuration: 1 GiB
// SSD, 1 MiB linear L2P table, rowhammer-vulnerable DDR3 testbed DRAM
// behind an XOR address mapping, 5× hammer amplification, no ECC/TRR.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/sim_clock.hpp"
#include "dram/dram_device.hpp"
#include "fault/fault_injector.hpp"
#include "ftl/ftl.hpp"
#include "nand/nand_device.hpp"
#include "nvme/nvme_controller.hpp"

namespace rhsd {

struct SsdConfig {
  std::uint64_t capacity_bytes = 1 * kGiB;
  double op_fraction = 0.125;  // NAND over-provisioning
  /// Flash media error model (off by default) and the controller's
  /// per-page ECC budget against it.
  NandReliability nand_reliability;
  std::uint32_t page_ecc_correctable_bits = 72;

  DramGeometry dram_geometry = DramGeometry::PaperTestbed();
  DramProfile dram_profile = DramProfile::Testbed();
  DramMitigations dram_mitigations;  // all off by default, like the paper
  /// XOR (memory-controller style) vs linear physical→DRAM mapping.
  bool xor_mapping = true;
  XorMapperConfig xor_config;

  L2pLayoutKind l2p_layout = L2pLayoutKind::kLinear;
  std::uint64_t device_key = 0;
  std::uint32_t hammers_per_io = 5;  // the paper's amplification
  bool t10_reference_tag = false;    // §5 block-integrity mitigation
  bool xts_encryption = false;       // §5 per-LBA encryption mitigation

  HostInterface host_interface = HostInterface::kTestbedVmDirect;
  std::optional<RateLimiterConfig> rate_limit;

  /// Robustness machinery (all off by default, preserving the paper's
  /// bare testbed): flash-resident L2P journal and the periodic
  /// integrity scrub over the mapping table.
  L2pJournalConfig l2p_journal;
  std::uint32_t scrub_interval_ios = 0;

  /// Deterministic fault schedule.  Non-empty plans create a
  /// FaultInjector wired into the NAND, DRAM and FTL; NVMe queue pairs
  /// attach via SsdDevice::fault_injector().
  FaultPlan fault_plan;

  /// Partition sizes in 4 KiB blocks; empty = one namespace covering the
  /// whole device. Sizes must sum to <= capacity.
  std::vector<std::uint64_t> partition_blocks;

  std::uint64_t seed = 0x5D5DBEEF;

  [[nodiscard]] std::uint64_t num_lbas() const {
    return capacity_bytes / kBlockSize;
  }

  /// §4.1 testbed: 1 GiB shared SSD, two equal tenant partitions.
  [[nodiscard]] static SsdConfig PaperSetup();

  /// A demo/experiment configuration for arbitrary capacities: DRAM
  /// geometry proportioned so the L2P table spans enough rows per bank
  /// for cross-partition double-sided placement to exist (the paper
  /// achieves the equivalent by placing the table in a suitable,
  /// known-vulnerable region of its 16 GiB testbed).
  [[nodiscard]] static SsdConfig DemoSetup(std::uint64_t capacity_bytes);
};

class SsdDevice {
 public:
  explicit SsdDevice(SsdConfig config);

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  [[nodiscard]] const SsdConfig& config() const { return config_; }
  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] DramDevice& dram() { return *dram_; }
  [[nodiscard]] NandDevice& nand() { return *nand_; }
  [[nodiscard]] Ftl& ftl() { return *ftl_; }
  [[nodiscard]] NvmeController& controller() { return *controller_; }
  /// The shared injector, or nullptr when the fault plan is empty.
  [[nodiscard]] FaultInjector* fault_injector() { return injector_.get(); }

 private:
  SsdConfig config_;
  SimClock clock_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<DramDevice> dram_;
  std::unique_ptr<NandDevice> nand_;
  std::unique_ptr<Ftl> ftl_;
  std::unique_ptr<NvmeController> controller_;
};

}  // namespace rhsd
