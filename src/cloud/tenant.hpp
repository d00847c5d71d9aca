// A tenant (VM) of the shared SSD.
//
// §4.1: "In a typical cloud hosting service, the attacker has privileged
// direct access to the SSD inside their own VM, via hardware
// multiplexing techniques like SRIOV or namespaces.  Each VM's storage
// space is a partition of the shared SSD…"  A Tenant is that view: raw
// block access to exactly one namespace.  The privileged flag
// distinguishes the attacker VM (direct NVMe access to its partition)
// from the victim VM's unprivileged process (file operations only,
// enforced by going through the FileSystem instead of this class).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/status.hpp"
#include "nvme/nvme_controller.hpp"

namespace rhsd {

struct TenantConfig {
  /// `nsid == kAutoNsid` asks CloudHost::add_tenant to assign the next
  /// free namespace; constructing a Tenant directly requires a concrete
  /// namespace id.
  static constexpr std::uint32_t kAutoNsid = 0;

  std::string name;
  std::uint32_t nsid = kAutoNsid;
  /// Whether the tenant may issue raw block I/O (SR-IOV-style direct
  /// access inside its own VM).
  bool direct_access = true;
};

class Tenant {
 public:
  Tenant(TenantConfig config, NvmeController& controller)
      : config_(std::move(config)), controller_(controller) {}

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] std::uint32_t nsid() const { return config_.nsid; }
  [[nodiscard]] std::uint64_t blocks() const {
    return controller_.namespace_info(config_.nsid).blocks;
  }
  [[nodiscard]] bool direct_access() const { return config_.direct_access; }

  /// Raw block I/O within this tenant's partition.
  Status read_blocks(std::uint64_t slba, std::span<std::uint8_t> out);
  /// The batched pattern entry point (the hammer loop): one
  /// single-block read per LBA in `req.slbas` per round, until the
  /// round and/or deadline bound is hit.  Bit-exact with the
  /// equivalent scalar read_blocks() loop but replayed in closed form.
  Status submit(const PatternRequest& req);
  Status write_blocks(std::uint64_t slba,
                      std::span<const std::uint8_t> data);
  Status trim_blocks(std::uint64_t slba, std::uint64_t nblocks);

  [[nodiscard]] NvmeController& controller() { return controller_; }

 private:
  Status require_direct() const;

  TenantConfig config_;
  NvmeController& controller_;
};

}  // namespace rhsd
