#include "ssd/ssd_device.hpp"

#include <bit>

namespace rhsd {

SsdConfig SsdConfig::PaperSetup() {
  SsdConfig c;
  c.capacity_bytes = 1 * kGiB;                       // §4.1
  c.dram_geometry = DramGeometry::PaperTestbed();    // 16 GiB DDR3
  c.dram_profile = DramProfile::Testbed();           // flips at ~3 M/s
  c.hammers_per_io = 5;                              // §4.1 amplification
  c.host_interface = HostInterface::kTestbedVmDirect;
  const std::uint64_t half = c.num_lbas() / 2;
  c.partition_blocks = {half, half};                 // victim, attacker
  return c;
}

SsdConfig SsdConfig::DemoSetup(std::uint64_t capacity_bytes) {
  SsdConfig c;
  c.capacity_bytes = capacity_bytes;
  constexpr std::uint32_t kRowBytes = 512;
  const std::uint64_t table_bytes = c.num_lbas() * 4;
  const std::uint64_t chunks =
      std::max<std::uint64_t>(table_bytes / kRowBytes, 8);
  // Two interleaved banks; enough rows that the table spans a wide
  // physical row range, with the remap covering that whole span.
  const auto rows = static_cast<std::uint32_t>(
      std::bit_ceil(std::max<std::uint64_t>(chunks, 64)));
  c.dram_geometry = DramGeometry{.channels = 1,
                                 .dimms_per_channel = 1,
                                 .ranks_per_dimm = 1,
                                 .banks_per_rank = 2,
                                 .rows_per_bank = rows,
                                 .row_bytes = kRowBytes};
  c.xor_config.interleaved_bank_bits = 1;
  c.xor_config.row_remap_bits = static_cast<std::uint32_t>(
      std::bit_width(std::bit_ceil(chunks / 2) - 1));
  const std::uint64_t half = c.num_lbas() / 2;
  c.partition_blocks = {half, half};
  return c;
}

SsdDevice::SsdDevice(SsdConfig config) : config_(std::move(config)) {
  if (!config_.fault_plan.empty()) {
    injector_ = std::make_unique<FaultInjector>(config_.fault_plan);
  }
  DramConfig dram_config;
  dram_config.geometry = config_.dram_geometry;
  dram_config.profile = config_.dram_profile;
  dram_config.seed = config_.seed;
  dram_config.mitigations = config_.dram_mitigations;
  auto mapper = config_.xor_mapping
                    ? MakeXorMapper(config_.dram_geometry, config_.xor_config)
                    : MakeLinearMapper(config_.dram_geometry);
  dram_ = std::make_unique<DramDevice>(dram_config, std::move(mapper),
                                       clock_);

  nand_ = std::make_unique<NandDevice>(
      NandGeometry::ForCapacity(config_.capacity_bytes,
                                config_.op_fraction),
      config_.nand_reliability, config_.seed);

  FtlConfig ftl_config;
  ftl_config.num_lbas = config_.num_lbas();
  ftl_config.layout = config_.l2p_layout;
  ftl_config.device_key = config_.device_key;
  ftl_config.hammers_per_io = config_.hammers_per_io;
  ftl_config.t10_reference_tag = config_.t10_reference_tag;
  ftl_config.xts_encryption = config_.xts_encryption;
  ftl_config.page_ecc_correctable_bits = config_.page_ecc_correctable_bits;
  ftl_config.journal = config_.l2p_journal;
  ftl_config.scrub_interval_ios = config_.scrub_interval_ios;
  // Attach faults to the media models before the FTL touches them so
  // even bring-up operations count against the plan's op streams.
  if (injector_ != nullptr) {
    dram_->set_fault_injector(injector_.get());
    nand_->set_fault_injector(injector_.get());
  }
  ftl_ = std::make_unique<Ftl>(ftl_config, *nand_, *dram_);
  if (injector_ != nullptr) ftl_->set_fault_injector(injector_.get());

  NvmeConfig nvme_config;
  nvme_config.iops = IopsModel::ForInterface(config_.host_interface);
  nvme_config.rate_limit = config_.rate_limit;
  if (config_.partition_blocks.empty()) {
    nvme_config.namespaces.push_back(
        NvmeNamespaceConfig{Lba(0), config_.num_lbas()});
  } else {
    std::uint64_t next = 0;
    for (std::uint64_t blocks : config_.partition_blocks) {
      nvme_config.namespaces.push_back(
          NvmeNamespaceConfig{Lba(next), blocks});
      next += blocks;
    }
    RHSD_CHECK_MSG(next <= config_.num_lbas(),
                   "partitions exceed device capacity");
  }
  controller_ =
      std::make_unique<NvmeController>(nvme_config, *ftl_, clock_);
  // Transport faults (kNvmeTimeout/kNvmeDrop) tick at the controller's
  // namespace front end so every dispatched command — even one rejected
  // at the namespace boundary — consumes its op indices.
  if (injector_ != nullptr) controller_->set_fault_injector(injector_.get());
}

}  // namespace rhsd
