#include "nvme/iops_model.hpp"

#include <algorithm>
#include <cmath>

namespace rhsd {

const char* to_string(HostInterface iface) {
  switch (iface) {
    case HostInterface::kSata: return "SATA";
    case HostInterface::kPcie3: return "PCIe 3.0 NVMe";
    case HostInterface::kPcie4: return "PCIe 4.0 NVMe";
    case HostInterface::kPcie5: return "PCIe 5.0 NVMe";
    case HostInterface::kCloudVm: return "cloud VM volume";
    case HostInterface::kTestbedHost: return "testbed host (unprivileged)";
    case HostInterface::kTestbedVmDirect: return "testbed VM (direct)";
  }
  return "unknown";
}

double MaxIops(HostInterface iface) {
  switch (iface) {
    case HostInterface::kSata: return 100e3;
    case HostInterface::kPcie3: return 800e3;
    case HostInterface::kPcie4: return 1.5e6;   // [1] KIOXIA CM6 review
    case HostInterface::kPcie5: return 2.1e6;   // [5] Marvell controllers
    case HostInterface::kCloudVm: return 2.0e6; // [11, 38]
    // The paper's i7-2600 host: direct user-space access is "not
    // sufficiently fast for the attack" (§4.1) — the gap Figure 2(b)'s
    // helper VM closes with privileged direct access.
    case HostInterface::kTestbedHost: return 400e3;
    case HostInterface::kTestbedVmDirect: return 1.6e6;
  }
  RHSD_CHECK_MSG(false, "unknown interface");
  return 0.0;
}

IopsModel::IopsModel(double max_iops, double flash_parallelism)
    : max_iops_(max_iops) {
  RHSD_CHECK(max_iops_ > 0.0);
  RHSD_CHECK(flash_parallelism >= 1.0);
  // Round to nearest: truncation under-charged every command (e.g.
  // 476.19 ns -> 476 ns at PCIe 5 rates), quietly inflating modeled
  // IOPS by the accumulated fraction.
  const double interface_ns = 1e9 / max_iops_;
  interface_ns_ = static_cast<std::uint64_t>(std::llround(interface_ns));
  // NAND latency amortized across the device's parallel units; the
  // interface gap and flash time overlap under queue depth, so charge
  // the max rather than the sum.
  const double flash_ns =
      static_cast<double>(NandDevice::latency().read_ns) / flash_parallelism;
  flash_ns_ = static_cast<std::uint64_t>(
      std::llround(std::max(interface_ns, flash_ns)));
}

}  // namespace rhsd
