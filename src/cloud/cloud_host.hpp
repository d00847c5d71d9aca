// The multi-tenant cloud server of Figure 2(b), scaled out.
//
// One shared SSD carved into per-tenant namespaces.  The host always
// boots with the paper's pair — tenant 0 is the victim VM (runs the
// mini-ext4 filesystem, with an unprivileged attacker process inside
// the VM that can only touch its own files), tenant 1 is the
// attacker-controlled VM with privileged direct block access — and
// add_tenant() grows the fleet from there, one namespace per tenant.
// The underlying FTL and L2P table stay shared across all of them —
// the whole point of the attack.
//
// Tenants' queue pairs share the device through NvmeEventLoop, which
// runs their commands one at a time in its deterministic arbitration
// order, whatever mitigations (TRR, PARA, a rate limiter) the device
// profile enables.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cloud/tenant.hpp"
#include "fs/block_device.hpp"
#include "fs/filesystem.hpp"
#include "ssd/ssd_device.hpp"

namespace rhsd {

/// uid of the unprivileged attacker process inside the victim VM.
inline constexpr std::uint16_t kAttackerUid = 1000;

/// Index into the host's tenant registry (dense, starts at 0).
using TenantId = std::uint32_t;

class CloudHost {
 public:
  /// The two tenants every host boots with (Figure 2b).
  static constexpr TenantId kVictimId = 0;
  static constexpr TenantId kAttackerId = 1;

  /// `config` must define at least two partitions (victim first).
  explicit CloudHost(SsdConfig config,
                     const fs::FormatOptions& fs_options = {});

  CloudHost(const CloudHost&) = delete;
  CloudHost& operator=(const CloudHost&) = delete;

  [[nodiscard]] SsdDevice& ssd() { return *ssd_; }

  /// Register a tenant.  `config.nsid == TenantConfig::kAutoNsid`
  /// assigns the lowest free namespace; a concrete nsid must exist and
  /// not already be claimed (AlreadyExists — namespaces never alias).
  /// Tenants without direct access get their partition formatted with
  /// the mini-ext4 filesystem, reachable through fs(id).
  StatusOr<TenantId> add_tenant(TenantConfig config,
                                const fs::FormatOptions& fs_options = {});

  [[nodiscard]] std::uint32_t tenant_count() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  [[nodiscard]] Tenant& tenant(TenantId id);
  [[nodiscard]] const Tenant& tenant(TenantId id) const;
  /// The tenant's filesystem; non-null only for indirect (FS) tenants.
  [[nodiscard]] fs::FileSystem* fs(TenantId id);

  /// The paper's fixed pair, as thin views over tenants 0 and 1.
  [[nodiscard]] Tenant& victim_tenant() { return tenant(kVictimId); }
  [[nodiscard]] Tenant& attacker_tenant() { return tenant(kAttackerId); }
  /// The victim VM's filesystem, formatted at construction.
  [[nodiscard]] fs::FileSystem& victim_fs() { return *fs(kVictimId); }

  /// Write a root-owned, mode-0600 secret file into tenant `id`'s FS
  /// and return its inode.  The attacker process cannot read it through
  /// the filesystem API — leaking its content is the attack's goal.
  StatusOr<std::uint32_t> install_secret(TenantId id,
                                         const std::string& path,
                                         std::span<const std::uint8_t> body);
  /// Victim-tenant shorthand for the id-based overload.
  StatusOr<std::uint32_t> install_secret(const std::string& path,
                                         std::span<const std::uint8_t> body) {
    return install_secret(kVictimId, path, body);
  }

  /// Device LBA range [first, last) of a tenant's partition.
  [[nodiscard]] std::pair<Lba, Lba> partition_range(TenantId id) const;
  /// Same, keyed by the tenant object (any registered tenant works —
  /// the range only depends on its namespace).
  [[nodiscard]] std::pair<Lba, Lba> partition_range(const Tenant& t) const;

 private:
  /// One registry entry: the tenant plus, for indirect (FS) tenants,
  /// the block device + filesystem mounted on its partition.
  struct TenantSlot {
    std::unique_ptr<Tenant> tenant;
    std::unique_ptr<fs::NvmeBlockDevice> bdev;
    std::unique_ptr<fs::FileSystem> fs;
  };

  std::unique_ptr<SsdDevice> ssd_;
  std::vector<TenantSlot> slots_;
  /// claimed_[nsid]: a registered tenant owns namespace `nsid` (index 0
  /// unused).  Keeps add_tenant() O(namespaces) instead of scanning
  /// every slot per candidate.
  std::vector<bool> claimed_;
};

}  // namespace rhsd
