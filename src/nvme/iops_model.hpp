// Host-interface throughput model.
//
// §3.1: "O_DIRECT combined with high-performance asynchronous interfaces
// such as Linux AIO or io_uring can realize 1.5M IOPS on the latest PCIe
// 4.0 NVMe SSDs [1]. Upcoming PCIe 5.0 NVMe SSDs are expected to reach
// over 2M IOPS [5]."  §4: "various cloud providers advertise over 2
// million IOPS storage performance provided to VMs [11, 38]."
//
// The model assigns each command a service time: the interface gap
// (1/max_iops) plus, when flash is actually accessed, NAND latency
// amortized over the device's internal parallelism.  Reads of
// unmapped/trimmed LBAs skip flash entirely, which is why §3's threat
// model notes they allow faster hammering.
#pragma once

#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "nand/nand_device.hpp"

namespace rhsd {

enum class HostInterface {
  kSata,            // legacy baseline
  kPcie3,           // ~0.8 M IOPS
  kPcie4,           // ~1.5 M IOPS [1]
  kPcie5,           // ~2.1 M IOPS [5]
  kCloudVm,         // ~2.0 M IOPS advertised to VMs [11, 38]
  kTestbedHost,     // the paper's slow i7-2600 host, unprivileged path
  kTestbedVmDirect, // the paper's helper attacker VM, direct SPDK access
};

[[nodiscard]] const char* to_string(HostInterface iface);
[[nodiscard]] double MaxIops(HostInterface iface);

class IopsModel {
 public:
  /// Both service times are computed here, against the NAND timings
  /// every device has (NandDevice::latency()).
  explicit IopsModel(double max_iops, double flash_parallelism = 64.0);

  [[nodiscard]] static IopsModel ForInterface(HostInterface iface) {
    return IopsModel(MaxIops(iface));
  }

  [[nodiscard]] double max_iops() const { return max_iops_; }

  /// Simulated nanoseconds one 4 KiB command occupies the device.
  [[nodiscard]] std::uint64_t service_ns(bool flash_accessed) const {
    return flash_accessed ? flash_ns_ : interface_ns_;
  }

 private:
  double max_iops_;
  std::uint64_t interface_ns_ = 0;  // unmapped/trimmed reads: no flash
  std::uint64_t flash_ns_ = 0;
};

}  // namespace rhsd
