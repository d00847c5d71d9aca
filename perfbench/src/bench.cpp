#include "bench.hpp"

#include <cstdio>
#include <cstring>

#include "common/rng.hpp"

namespace perfbench {

using rhsd::Mix64;

Inputs DeriveInputs(std::uint64_t cli_seed) {
  Inputs in;
  in.seed = cli_seed;
  in.device_seed = Mix64(cli_seed ^ 0xD5E71CE0ull);
  in.workload_seed = Mix64(cli_seed ^ 0x3A7C10ADull);
  in.arbitration_seed = Mix64(cli_seed ^ 0xA4B17EA7ull);
  return in;
}

std::uint64_t SubSeed(std::uint64_t base, std::uint64_t index) {
  return Mix64(base + 0x9E3779B97F4A7C15ull * (index + 1));
}

void Digest::mix(std::uint64_t v) { hash_ = Mix64(hash_ ^ Mix64(v)); }

void Digest::mix_text(const std::string& s) {
  for (const char c : s) mix(static_cast<unsigned char>(c));
}

void Digest::field(const std::string& key, std::uint64_t v) {
  text_ += key + "=" + std::to_string(v) + "\n";
  mix_text(key);
  mix(v);
}

void Digest::field(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  text_ += key + "=" + buf + "\n";
  mix_text(key);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

DeviceSnapshot Snapshot(rhsd::SsdDevice& ssd) {
  return {ssd.controller().stats(), ssd.ftl().stats(), ssd.dram().stats(),
          ssd.nand().stats()};
}

std::uint64_t AddDeviceDeltas(rhsd::SsdDevice& ssd,
                              const DeviceSnapshot& before, Counts& counts) {
  const DeviceSnapshot now = Snapshot(ssd);
  const auto add = [&counts](const char* key, std::uint64_t a,
                             std::uint64_t b) {
    counts[key] += static_cast<double>(a - b);
  };
  add("nvme.read_cmds", now.nvme.read_cmds, before.nvme.read_cmds);
  add("nvme.write_cmds", now.nvme.write_cmds, before.nvme.write_cmds);
  add("nvme.trim_cmds", now.nvme.trim_cmds, before.nvme.trim_cmds);
  add("nvme.flush_cmds", now.nvme.flush_cmds, before.nvme.flush_cmds);
  add("ftl.host_writes", now.ftl.host_writes, before.ftl.host_writes);
  add("ftl.flash_reads", now.ftl.flash_reads, before.ftl.flash_reads);
  add("ftl.unmapped_reads", now.ftl.unmapped_reads,
      before.ftl.unmapped_reads);
  add("ftl.flash_programs", now.ftl.flash_programs,
      before.ftl.flash_programs);
  add("ftl.gc_runs", now.ftl.gc_runs, before.ftl.gc_runs);
  add("ftl.gc_relocations", now.ftl.gc_relocations,
      before.ftl.gc_relocations);
  add("ftl.l2p_dram_reads", now.ftl.l2p_dram_reads,
      before.ftl.l2p_dram_reads);
  add("ftl.scrub_runs", now.ftl.scrub_runs, before.ftl.scrub_runs);
  add("dram.activations", now.dram.activations, before.dram.activations);
  add("dram.bitflips", now.dram.bitflips, before.dram.bitflips);
  add("dram.trr_refreshes", now.dram.trr_refreshes,
      before.dram.trr_refreshes);
  add("dram.para_refreshes", now.dram.para_refreshes,
      before.dram.para_refreshes);
  add("dram.cache_hits", now.dram.cache_hits, before.dram.cache_hits);
  add("dram.cache_misses", now.dram.cache_misses, before.dram.cache_misses);
  add("dram.ecc_corrected", now.dram.ecc_corrected,
      before.dram.ecc_corrected);
  add("nand.reads", now.nand.reads, before.nand.reads);
  add("nand.programs", now.nand.programs, before.nand.programs);
  add("nand.erases", now.nand.erases, before.nand.erases);
  return (now.nvme.read_cmds - before.nvme.read_cmds) +
         (now.nvme.write_cmds - before.nvme.write_cmds) +
         (now.nvme.trim_cmds - before.nvme.trim_cmds) +
         (now.nvme.flush_cmds - before.nvme.flush_cmds);
}

void DigestDeviceStats(rhsd::SsdDevice& ssd, Digest& d) {
  const DeviceSnapshot s = Snapshot(ssd);
  d.field("nvme.read_cmds", s.nvme.read_cmds);
  d.field("nvme.write_cmds", s.nvme.write_cmds);
  d.field("nvme.trim_cmds", s.nvme.trim_cmds);
  d.field("nvme.flush_cmds", s.nvme.flush_cmds);
  d.field("nvme.errors", s.nvme.errors);
  d.field("nvme.busy_ns", s.nvme.busy_ns);
  d.field("ftl.host_reads", s.ftl.host_reads);
  d.field("ftl.host_writes", s.ftl.host_writes);
  d.field("ftl.host_trims", s.ftl.host_trims);
  d.field("ftl.unmapped_reads", s.ftl.unmapped_reads);
  d.field("ftl.flash_reads", s.ftl.flash_reads);
  d.field("ftl.flash_programs", s.ftl.flash_programs);
  d.field("ftl.gc_runs", s.ftl.gc_runs);
  d.field("ftl.gc_relocations", s.ftl.gc_relocations);
  d.field("ftl.gc_erases", s.ftl.gc_erases);
  d.field("ftl.l2p_dram_reads", s.ftl.l2p_dram_reads);
  d.field("ftl.l2p_dram_writes", s.ftl.l2p_dram_writes);
  d.field("ftl.l2p_corruption_errors", s.ftl.l2p_corruption_errors);
  d.field("ftl.reference_tag_mismatches", s.ftl.reference_tag_mismatches);
  d.field("ftl.scrub_runs", s.ftl.scrub_runs);
  d.field("ftl.scrub_repairs", s.ftl.scrub_repairs);
  d.field("dram.reads", s.dram.reads);
  d.field("dram.writes", s.dram.writes);
  d.field("dram.activations", s.dram.activations);
  d.field("dram.row_buffer_hits", s.dram.row_buffer_hits);
  d.field("dram.bitflips", s.dram.bitflips);
  d.field("dram.ecc_corrected", s.dram.ecc_corrected);
  d.field("dram.ecc_uncorrectable", s.dram.ecc_uncorrectable);
  d.field("dram.trr_refreshes", s.dram.trr_refreshes);
  d.field("dram.para_refreshes", s.dram.para_refreshes);
  d.field("dram.cache_hits", s.dram.cache_hits);
  d.field("dram.cache_misses", s.dram.cache_misses);
  d.field("nand.reads", s.nand.reads);
  d.field("nand.programs", s.nand.programs);
  d.field("nand.erases", s.nand.erases);
  for (const rhsd::FlipEvent& f : ssd.dram().flip_events()) {
    d.mix(f.time_ns);
    d.mix(f.global_row);
    d.mix((static_cast<std::uint64_t>(f.byte_offset) << 16) |
          (static_cast<std::uint64_t>(f.bit) << 8) | f.new_value);
  }
  d.field("flip_events", static_cast<std::uint64_t>(
                             ssd.dram().flip_events().size()));
}

}  // namespace perfbench
