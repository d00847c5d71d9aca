#include "cloud/cloud_host.hpp"

#include <algorithm>
#include <utility>

namespace rhsd {

CloudHost::CloudHost(SsdConfig config, const fs::FormatOptions& fs_options) {
  RHSD_CHECK_MSG(config.partition_blocks.size() >= 2,
                 "cloud host needs victim and attacker partitions");
  ssd_ = std::make_unique<SsdDevice>(std::move(config));
  claimed_.assign(ssd_->controller().namespace_count() + 1ull, false);
  auto victim = add_tenant(
      TenantConfig{"victim-vm", 1, /*direct_access=*/false}, fs_options);
  RHSD_CHECK_MSG(victim.ok(), "victim tenant: " << victim.status());
  auto attacker =
      add_tenant(TenantConfig{"attacker-vm", 2, /*direct_access=*/true});
  RHSD_CHECK_MSG(attacker.ok(), "attacker tenant: " << attacker.status());
}

StatusOr<TenantId> CloudHost::add_tenant(
    TenantConfig config, const fs::FormatOptions& fs_options) {
  NvmeController& controller = ssd_->controller();
  if (config.nsid == TenantConfig::kAutoNsid) {
    // Lowest namespace no registered tenant claims yet.
    const auto free = std::find(claimed_.begin() + 1, claimed_.end(), false);
    if (free == claimed_.end()) {
      return ResourceExhausted("no free namespace for tenant '" +
                               config.name + "'");
    }
    config.nsid = static_cast<std::uint32_t>(free - claimed_.begin());
  } else {
    if (config.nsid < 1 || config.nsid > controller.namespace_count()) {
      return InvalidArgument("namespace " + std::to_string(config.nsid) +
                             " does not exist");
    }
    if (claimed_[config.nsid]) {
      const auto owner = std::find_if(
          slots_.begin(), slots_.end(), [&](const TenantSlot& s) {
            return s.tenant->nsid() == config.nsid;
          });
      return AlreadyExists("namespace " + std::to_string(config.nsid) +
                           " already claimed by tenant '" +
                           owner->tenant->name() + "'");
    }
  }

  TenantSlot slot;
  slot.tenant = std::make_unique<Tenant>(config, controller);
  if (!config.direct_access) {
    slot.bdev =
        std::make_unique<fs::NvmeBlockDevice>(controller, config.nsid);
    RHSD_ASSIGN_OR_RETURN(slot.fs,
                          fs::FileSystem::Format(*slot.bdev, fs_options));
  }
  slots_.push_back(std::move(slot));
  // Claimed only now: a failed Format above leaves the namespace free.
  claimed_[config.nsid] = true;
  return static_cast<TenantId>(slots_.size() - 1);
}

Tenant& CloudHost::tenant(TenantId id) {
  RHSD_CHECK_MSG(id < slots_.size(), "bad tenant id");
  return *slots_[id].tenant;
}

const Tenant& CloudHost::tenant(TenantId id) const {
  RHSD_CHECK_MSG(id < slots_.size(), "bad tenant id");
  return *slots_[id].tenant;
}

fs::FileSystem* CloudHost::fs(TenantId id) {
  RHSD_CHECK_MSG(id < slots_.size(), "bad tenant id");
  return slots_[id].fs.get();
}

StatusOr<std::uint32_t> CloudHost::install_secret(
    TenantId id, const std::string& path,
    std::span<const std::uint8_t> body) {
  fs::FileSystem* tenant_fs = fs(id);
  if (tenant_fs == nullptr) {
    return FailedPrecondition("tenant '" + tenant(id).name() +
                              "' has no filesystem");
  }
  const fs::Credentials root{0};
  RHSD_ASSIGN_OR_RETURN(const std::uint32_t ino,
                        tenant_fs->create(root, path, 0600));
  RHSD_RETURN_IF_ERROR(tenant_fs->write(root, ino, 0, body));
  return ino;
}

std::pair<Lba, Lba> CloudHost::partition_range(TenantId id) const {
  const auto& info = ssd_->controller().namespace_info(tenant(id).nsid());
  return {info.start, info.start + info.blocks};
}

std::pair<Lba, Lba> CloudHost::partition_range(const Tenant& t) const {
  const auto& info = ssd_->controller().namespace_info(t.nsid());
  return {info.start, info.start + info.blocks};
}

}  // namespace rhsd
