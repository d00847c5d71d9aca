#include "ftl/ftl.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"

namespace rhsd {

const char* to_string(FtlDegradation cause) {
  switch (cause) {
    case FtlDegradation::kNone:
      return "none";
    case FtlDegradation::kSpareExhausted:
      return "spare blocks exhausted";
    case FtlDegradation::kJournalExhausted:
      return "journal space exhausted";
  }
  return "unknown";
}

namespace {

/// Garbage collection starts when free blocks drop to this count.
constexpr std::uint32_t kGcLowWatermark = 3;
/// Extra NAND read attempts after an uncorrectable media error
/// (read-retry with shifted reference voltages on real NAND).
constexpr std::uint32_t kReadRetryMax = 2;

std::uint32_t Load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

Ftl::Ftl(FtlConfig config, NandDevice& nand, DramDevice& dram)
    : config_(config),
      nand_(nand),
      dram_(dram),
      layout_(MakeL2pLayout(config.layout, DramAddr(0), config.num_lbas,
                            config.device_key)) {
  RHSD_CHECK_MSG(config_.num_lbas > 0, "FTL needs a nonzero capacity");
  RHSD_CHECK_MSG(config_.hammers_per_io >= 1, "hammers_per_io must be >= 1");
  RHSD_CHECK_MSG(
      layout_->table_bytes() <= dram_.config().geometry.total_bytes(),
      "L2P table does not fit in device DRAM");
  RHSD_CHECK_MSG(nand_.geometry().page_bytes == kBlockSize,
                 "FTL assumes 4 KiB NAND pages");
  RHSD_CHECK_MSG(config_.scrub_interval_ios == 0 || config_.journal.enabled,
                 "the integrity scrub requires the L2P journal");
  if (config_.journal.enabled) {
    journal_ =
        std::make_unique<L2pJournal>(config_.journal, nand_, config_.num_lbas);
  }
  RHSD_CHECK_MSG(static_cast<std::uint64_t>(data_block_count()) *
                         nand_.geometry().pages_per_block >
                     config_.num_lbas,
                 "NAND must be over-provisioned beyond logical capacity");

  // Power-on initialization: the whole table starts unmapped. Uses poke
  // so the bring-up does not count as hammering activity.
  std::vector<std::uint8_t> ff(layout_->table_bytes(), 0xFF);
  dram_.poke(DramAddr(0), ff);

  const std::uint32_t blocks = nand_.geometry().total_blocks();
  page_valid_.assign(nand_.geometry().total_pages(), false);
  block_valid_count_.assign(blocks, 0);
  block_is_free_or_active_.assign(blocks, true);

  if (journal_ != nullptr) {
    // "Firmware boot": probe the reserved region for an existing epoch.
    // Finding one means this NAND carries state from a previous life —
    // hold all IO until recover() rebuilds the mapping.
    StatusOr<JournalLoadResult> probe = journal_->load();
    if (probe.ok() && probe->snapshot_found) {
      needs_recovery_ = true;
      boot_load_ = std::move(probe).value();
      return;  // recover() builds the allocator state
    }
    std::vector<std::uint32_t> empty(config_.num_lbas, kUnmappedPba32);
    const Status fs = journal_->format(empty, /*write_seq=*/0);
    RHSD_CHECK_MSG(fs.ok(), "L2P journal format failed");
  }
  for (std::uint32_t b = 0; b < data_block_count(); ++b) {
    free_blocks_.push_back(b);
  }
}

std::uint32_t Ftl::data_block_count() const {
  return nand_.geometry().total_blocks() -
         (journal_ != nullptr ? journal_->block_count() : 0);
}

std::int64_t Ftl::spare_margin() const {
  const std::uint32_t ppb = nand_.geometry().pages_per_block;
  std::int64_t good = 0;
  for (std::uint32_t b = 0; b < data_block_count(); ++b) {
    if (!nand_.is_bad(b)) ++good;
  }
  return good - static_cast<std::int64_t>((config_.num_lbas + ppb - 1) / ppb +
                                          kGcLowWatermark + 1);
}

std::uint64_t Ftl::spare_data_blocks() const {
  return static_cast<std::uint64_t>(std::max<std::int64_t>(spare_margin(), 0));
}

void Ftl::update_degradation() {
  if (read_only_) return;
  if (spare_margin() < 0) {
    read_only_ = true;
    degradation_ = FtlDegradation::kSpareExhausted;
  }
}

Ftl::EntryLoc Ftl::entry_loc(Lba lba) const {
  const std::uint64_t a = layout_->entry_addr(lba.value()).value();
  const auto& geo = dram_.config().geometry;
  const auto off = static_cast<std::uint32_t>(a % geo.row_bytes);
  return {dram_.mapper().decode(DramAddr(a - off)).global_row(geo), off};
}

Status Ftl::check_lba(Lba lba) const {
  if (lba.value() >= config_.num_lbas) {
    return OutOfRange("LBA " + std::to_string(lba.value()) +
                      " beyond device capacity");
  }
  return Status::Ok();
}

Status Ftl::guard_op(bool mutating) {
  if (powered_off_) {
    return Aborted("device powered off (awaiting reboot)");
  }
  if (injector_ != nullptr &&
      injector_->tick(FaultClass::kPowerLoss).has_value()) {
    powered_off_ = true;
    return Aborted("power loss");
  }
  if (needs_recovery_) {
    return FailedPrecondition("L2P not recovered: call Ftl::recover()");
  }
  if (mutating && read_only_) {
    return FailedPrecondition(std::string("device degraded to read-only (") +
                              to_string(degradation_) + ")");
  }
  return Status::Ok();
}

Status Ftl::l2p_load(Lba lba, std::uint32_t& pba32) {
  std::uint8_t buf[L2pLayout::kEntryBytes];
  // Amplification: firmware touches the entry hammers_per_io times per
  // request (§4.1 used 5 hammers per I/O).  DramStats::reads counts
  // every touch the call issues, a failing one included; the FTL's
  // counter takes the same count.
  const std::uint64_t reads_before = dram_.stats().reads;
  const Status s = dram_.read(layout_->entry_addr(lba.value()), buf,
                              config_.hammers_per_io);
  stats_.l2p_dram_reads += dram_.stats().reads - reads_before;
  if (!s.ok()) {
    ++stats_.l2p_corruption_errors;
    return s;
  }
  pba32 = Load32(buf);
  return Status::Ok();
}

Status Ftl::l2p_store(Lba lba, std::uint32_t pba32) {
  std::uint8_t buf[L2pLayout::kEntryBytes];
  Store32(buf, pba32);
  const std::uint64_t writes_before = dram_.stats().writes;
  const Status s = dram_.write(layout_->entry_addr(lba.value()), buf,
                               config_.hammers_per_io);
  stats_.l2p_dram_writes += dram_.stats().writes - writes_before;
  return s;
}

void Ftl::mark_invalid(Pba pba) {
  const auto idx = static_cast<std::size_t>(pba.value());
  if (idx < page_valid_.size() && page_valid_[idx]) {
    page_valid_[idx] = false;
    --block_valid_count_[nand_.block_of(pba)];
  }
}

void Ftl::mark_valid(Pba pba) {
  const auto idx = static_cast<std::size_t>(pba.value());
  RHSD_CHECK(idx < page_valid_.size());
  if (!page_valid_[idx]) {
    page_valid_[idx] = true;
    ++block_valid_count_[nand_.block_of(pba)];
  }
}

StatusOr<Pba> Ftl::allocate_page() {
  const std::uint32_t pages_per_block = nand_.geometry().pages_per_block;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (have_active_block_ &&
        nand_.write_pointer(active_block_) < pages_per_block) {
      return nand_.make_pba(active_block_,
                            nand_.write_pointer(active_block_));
    }
    if (have_active_block_) {
      // Active block is full: retire it.
      block_is_free_or_active_[active_block_] = false;
      have_active_block_ = false;
    }
    // GC itself allocates pages for relocation; it must not re-enter.
    // GC may adopt (and even fill) a fresh active block, so the loop
    // re-evaluates the active block's state after it runs.
    while (!in_gc_ && free_blocks_.size() <= kGcLowWatermark) {
      const std::uint64_t before = free_blocks_.size();
      const std::uint64_t erases_before = stats_.gc_erases;
      RHSD_RETURN_IF_ERROR(garbage_collect());
      if (stats_.gc_erases == erases_before &&
          free_blocks_.size() <= before) {
        break;  // no progress possible
      }
    }
    if (have_active_block_) continue;  // GC installed a new active block
    if (free_blocks_.empty()) {
      return ResourceExhausted("no free NAND blocks");
    }
    active_block_ = free_blocks_.front();
    free_blocks_.pop_front();
    block_is_free_or_active_[active_block_] = true;
    have_active_block_ = true;
    return nand_.make_pba(active_block_,
                          nand_.write_pointer(active_block_));
  }
  return ResourceExhausted("page allocation failed to converge");
}

StatusOr<Pba> Ftl::program_page(std::uint64_t lpn,
                                std::span<const std::uint8_t> data,
                                std::uint64_t* seq_out) {
  // The sequence is drawn *after* allocation so that any GC relocations
  // the allocation triggered carry older sequences than this page —
  // recovery orders pages for the same LPN strictly by sequence.
  for (int attempt = 0; attempt < 4; ++attempt) {
    RHSD_ASSIGN_OR_RETURN(const Pba dst, allocate_page());
    const std::uint64_t seq = ++write_seq_;
    const Status ps = nand_.program_pba(dst, data, PageOob{lpn, seq});
    if (ps.ok()) {
      ++stats_.flash_programs;
      if (seq_out != nullptr) *seq_out = seq;
      return dst;
    }
    if (ps.code() != StatusCode::kUnavailable) return ps;
    // Program failure: retire the block (relocating its live pages) and
    // write somewhere else.
    RHSD_RETURN_IF_ERROR(retire_bad_block(nand_.block_of(dst)));
  }
  return Unavailable("NAND program retries exhausted");
}

Status Ftl::nand_read_retry(Pba pba, std::span<std::uint8_t> out,
                            PageOob* oob, std::uint32_t* raw_bit_errors) {
  Status s = nand_.read_pba(pba, out, oob, raw_bit_errors);
  for (std::uint32_t attempt = 0;
       !s.ok() && s.code() == StatusCode::kCorruption &&
       attempt < kReadRetryMax;
       ++attempt) {
    ++stats_.read_retries;
    s = nand_.read_pba(pba, out, oob, raw_bit_errors);
    if (s.ok()) ++stats_.read_retry_successes;
  }
  return s;
}

Status Ftl::retire_bad_block(std::uint32_t block) {
  ++stats_.retired_blocks;
  if (have_active_block_ && active_block_ == block) {
    have_active_block_ = false;
  }
  block_is_free_or_active_[block] = false;
  if (const auto it =
          std::find(free_blocks_.begin(), free_blocks_.end(), block);
      it != free_blocks_.end()) {
    free_blocks_.erase(it);
  }
  // Mark the block bad *before* relocating: the relocation programs
  // below can run GC (the dying block is no longer free-or-active, so
  // nothing stops victim selection from picking it), and a not-yet-bad
  // block would be erased and pushed back onto the free list mid-retire.
  // Reads still work on bad blocks, which is all relocation needs.
  nand_.mark_bad(block);
  // Relocate whatever live data the dying block still holds.  Its pages
  // remain readable in this model (as on most real NAND), so this is a
  // normal read-out; unreadable pages keep their mapping and surface as
  // read errors later.
  const std::uint32_t pages_per_block = nand_.geometry().pages_per_block;
  std::vector<std::uint8_t> page(nand_.geometry().page_bytes);
  for (std::uint32_t p = 0; p < pages_per_block; ++p) {
    const Pba src = nand_.make_pba(block, p);
    if (!page_valid_[static_cast<std::size_t>(src.value())]) continue;
    PageOob oob;
    const Status rs = nand_read_retry(src, page, &oob, nullptr);
    if (!rs.ok() || oob.lpn == PageOob::kNoLpn) continue;
    ++stats_.flash_reads;
    std::uint64_t seq = 0;
    RHSD_ASSIGN_OR_RETURN(const Pba dst, program_page(oob.lpn, page, &seq));
    mark_invalid(src);
    mark_valid(dst);
    RHSD_RETURN_IF_ERROR(
        l2p_store(Lba(oob.lpn), static_cast<std::uint32_t>(dst.value())));
    RHSD_RETURN_IF_ERROR(journal_append(
        oob.lpn, static_cast<std::uint32_t>(dst.value()), seq, false));
    ++stats_.gc_relocations;
  }
  update_degradation();
  return Status::Ok();
}

Status Ftl::garbage_collect() {
  // Greedy victim selection: the full block with the fewest valid pages.
  const std::uint32_t blocks = nand_.geometry().total_blocks();
  const std::uint32_t pages_per_block = nand_.geometry().pages_per_block;
  std::uint32_t victim = blocks;
  std::uint32_t best_valid = pages_per_block + 1;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    if (block_is_free_or_active_[b] || nand_.is_bad(b)) continue;
    if (block_valid_count_[b] < best_valid) {
      best_valid = block_valid_count_[b];
      victim = b;
    }
  }
  if (victim == blocks || best_valid >= pages_per_block) {
    // Nothing reclaimable; caller may still have free blocks left.
    return Status::Ok();
  }
  ++stats_.gc_runs;
  in_gc_ = true;
  struct GcGuard {
    bool& flag;
    ~GcGuard() { flag = false; }
  } guard{in_gc_};

  std::vector<std::uint8_t> page(nand_.geometry().page_bytes);
  for (std::uint32_t p = 0; p < pages_per_block; ++p) {
    const Pba src = nand_.make_pba(victim, p);
    if (!page_valid_[static_cast<std::size_t>(src.value())]) continue;
    PageOob oob;
    std::uint32_t raw_errors = 0;
    RHSD_RETURN_IF_ERROR(nand_read_retry(src, page, &oob, &raw_errors));
    ++stats_.flash_reads;
    // GC reads get read-retry / soft-decode treatment in real firmware;
    // we count the media errors but let the relocation proceed.
    stats_.flash_raw_bit_errors += raw_errors;
    RHSD_CHECK_MSG(oob.lpn != PageOob::kNoLpn,
                   "valid page without OOB reverse mapping");
    // Relocate and repoint the mapping (a DRAM write: GC hammers too).
    std::uint64_t seq = 0;
    RHSD_ASSIGN_OR_RETURN(const Pba dst, program_page(oob.lpn, page, &seq));
    mark_invalid(src);
    mark_valid(dst);
    RHSD_RETURN_IF_ERROR(
        l2p_store(Lba(oob.lpn), static_cast<std::uint32_t>(dst.value())));
    RHSD_RETURN_IF_ERROR(journal_append(
        oob.lpn, static_cast<std::uint32_t>(dst.value()), seq, false));
    ++stats_.gc_relocations;
  }
  const Status es = nand_.erase(victim);
  if (es.ok()) {
    ++stats_.gc_erases;
    free_blocks_.push_back(victim);
    block_is_free_or_active_[victim] = true;
  } else if (es.code() == StatusCode::kUnavailable) {
    // Erase failure grew a bad block (the NAND marked it); the victim
    // holds no live data, so just drop it from circulation.
    ++stats_.retired_blocks;
    update_degradation();
  } else {
    return es;
  }
  return Status::Ok();
}

Status Ftl::read(Lba lba, std::span<std::uint8_t> out, FtlIoInfo* info) {
  RHSD_RETURN_IF_ERROR(guard_op(/*mutating=*/false));
  RHSD_RETURN_IF_ERROR(check_lba(lba));
  if (out.size() != kBlockSize) {
    return InvalidArgument("FTL reads are 4 KiB");
  }
  ++stats_.host_reads;
  std::uint32_t pba32 = 0;
  RHSD_RETURN_IF_ERROR(l2p_load(lba, pba32));
  if (pba32 == kUnmappedPba32 ||
      pba32 >= nand_.geometry().total_pages()) {
    // Unmapped (or corrupted-beyond-device) entries read as zeros
    // without a flash access — the fast hammering path of §3.
    ++stats_.unmapped_reads;
    std::memset(out.data(), 0, out.size());
    if (info != nullptr) info->flash_accessed = false;
    maybe_scrub();
    return Status::Ok();
  }
  PageOob oob;
  std::uint32_t raw_errors = 0;
  RHSD_RETURN_IF_ERROR(nand_read_retry(Pba(pba32), out, &oob, &raw_errors));
  ++stats_.flash_reads;
  stats_.flash_raw_bit_errors += raw_errors;
  if (raw_errors > config_.page_ecc_correctable_bits) {
    ++stats_.flash_ecc_uncorrectable;
    return Corruption("uncorrectable flash error reading LBA " +
                      std::to_string(lba.value()) + " (" +
                      std::to_string(raw_errors) + " raw bit errors)");
  }
  if (config_.t10_reference_tag && oob.lpn != lba.value()) {
    // The page we were directed to was written for a different LBA —
    // exactly what a rowhammered L2P entry produces.
    ++stats_.reference_tag_mismatches;
    return Corruption("reference tag mismatch: LBA " +
                      std::to_string(lba.value()) + " mapped to a page of "
                      "LBA " + std::to_string(oob.lpn));
  }
  if (config_.xts_encryption) xts_whiten(lba, out);
  if (info != nullptr) info->flash_accessed = true;
  maybe_scrub();
  return Status::Ok();
}

bool Ftl::plan_pattern_replay(std::span<const Lba> lbas,
                              PatternReplayPlan* plan) {
  *plan = PatternReplayPlan{};
  if (lbas.empty() || powered_off_ || needs_recovery_) return false;
  plan->scrub_enabled =
      config_.scrub_interval_ios > 0 && journal_ != nullptr;
  const bool ecc = dram_.config().mitigations.ecc;
  const std::uint64_t total_pages = nand_.geometry().total_pages();
  for (const Lba lba : lbas) {
    if (!check_lba(lba).ok()) return false;
    plan->lbas.push_back(lba);
    plan->entry_addrs.push_back(layout_->entry_addr(lba.value()));
    // Hazard analysis: could a disturbance flip inside this entry feed
    // back into the replayed reads?  With ECC the entry's check words
    // must stay consistent (a dirty word makes the scalar read correct
    // it — an observable event), so the whole covering word range is a
    // hazard.  Without ECC only a flip that could make the entry read
    // as *mapped* changes behaviour; flips drive bits to their failure
    // values monotonically, so the reachable minimum is the current
    // value with every vulnerable clear-to-0 bit cleared.
    const auto [grow, off] = entry_loc(lba);
    PatternHazard hz;
    hz.global_row = grow;
    if (ecc) {
      hz.byte_lo = off & ~7u;
      hz.byte_hi = (off + L2pLayout::kEntryBytes + 7u) & ~7u;
    } else {
      DisturbanceModel& dm = dram_.disturbance();
      if (!dm.row_is_vulnerable(grow)) continue;
      std::uint32_t clear_mask = 0;
      for (const VulnCell& c : dm.cells(grow)) {
        if (c.byte_offset < off ||
            c.byte_offset >= off + L2pLayout::kEntryBytes) {
          continue;
        }
        if (c.failure_value == 0) {
          clear_mask |= 1u << ((c.byte_offset - off) * 8 + c.bit);
        }
      }
      const std::uint32_t reach_min = debug_lookup(lba) & ~clear_mask;
      if (reach_min == kUnmappedPba32 || reach_min >= total_pages) {
        continue;  // provably stays unmapped under any flip subset
      }
      hz.byte_lo = off;
      hz.byte_hi = off + L2pLayout::kEntryBytes;
    }
    bool dup = false;
    for (const PatternHazard& other : plan->hazards) {
      if (other.global_row == hz.global_row &&
          other.byte_lo == hz.byte_lo && other.byte_hi == hz.byte_hi) {
        dup = true;
        break;
      }
    }
    if (!dup) plan->hazards.push_back(hz);
  }
  return true;
}

bool Ftl::pattern_state_ok(const PatternReplayPlan& plan) const {
  if (powered_off_ || needs_recovery_) return false;
  if (!dram_.reads_replayable(plan.entry_addrs, L2pLayout::kEntryBytes)) {
    return false;
  }
  const std::uint64_t total_pages = nand_.geometry().total_pages();
  for (const Lba lba : plan.lbas) {
    const std::uint32_t pba32 = debug_lookup(lba);
    if (pba32 != kUnmappedPba32 && pba32 < total_pages) return false;
  }
  return true;
}

std::uint64_t Ftl::replay_safe_cmds(const PatternReplayPlan& plan) const {
  std::uint64_t safe = dram_.read_fault_horizon(config_.hammers_per_io);
  if (injector_ != nullptr) {
    safe = std::min(safe, injector_->ops_until_fault(FaultClass::kPowerLoss));
  }
  if (plan.scrub_enabled) {
    safe = std::min<std::uint64_t>(
        safe, config_.scrub_interval_ios - 1 - ios_since_scrub_);
  }
  return safe;
}

bool Ftl::replay_pattern_reads(const PatternReplayPlan& plan,
                               std::uint64_t start_cmd, std::uint64_t n_cmds,
                               const CmdTimes& cmd_times) {
  if (!dram_.replay_reads(plan.entry_addrs, start_cmd, n_cmds,
                          config_.hammers_per_io, cmd_times, plan.hazards)) {
    return false;  // hazard: the caller replays this chunk scalar
  }
  stats_.host_reads += n_cmds;
  stats_.l2p_dram_reads += config_.hammers_per_io * n_cmds;
  stats_.unmapped_reads += n_cmds;
  if (plan.scrub_enabled) {
    ios_since_scrub_ += n_cmds;
    RHSD_CHECK(ios_since_scrub_ < config_.scrub_interval_ios);
  }
  if (injector_ != nullptr) {
    injector_->skip_ops(FaultClass::kPowerLoss, n_cmds);
  }
  return true;
}

void Ftl::xts_whiten(Lba lba, std::span<std::uint8_t> data) const {
  // Toy tweakable stream standing in for AES-XTS [32]: keystream depends
  // on (device key, LBA, offset), so data only decrypts under the LBA it
  // was written for.
  std::uint64_t word_idx = 0;
  for (std::size_t off = 0; off + 8 <= data.size(); off += 8) {
    const std::uint64_t ks =
        Mix64(config_.device_key ^ (lba.value() * 0x9E3779B97F4A7C15ull) ^
              word_idx++);
    std::uint64_t w;
    std::memcpy(&w, data.data() + off, 8);
    w ^= ks;
    std::memcpy(data.data() + off, &w, 8);
  }
}

Status Ftl::write(Lba lba, std::span<const std::uint8_t> data) {
  RHSD_RETURN_IF_ERROR(guard_op(/*mutating=*/true));
  RHSD_RETURN_IF_ERROR(check_lba(lba));
  if (data.size() != kBlockSize) {
    return InvalidArgument("FTL writes are 4 KiB");
  }
  ++stats_.host_writes;

  std::uint64_t seq = 0;
  Pba dst(0);
  if (config_.xts_encryption) {
    std::vector<std::uint8_t> cipher(data.begin(), data.end());
    xts_whiten(lba, cipher);
    RHSD_ASSIGN_OR_RETURN(dst, program_page(lba.value(), cipher, &seq));
  } else {
    RHSD_ASSIGN_OR_RETURN(dst, program_page(lba.value(), data, &seq));
  }

  std::uint32_t old = 0;
  RHSD_RETURN_IF_ERROR(l2p_load(lba, old));
  if (old != kUnmappedPba32 && old < nand_.geometry().total_pages()) {
    mark_invalid(Pba(old));
  }
  mark_valid(dst);
  RHSD_RETURN_IF_ERROR(
      l2p_store(lba, static_cast<std::uint32_t>(dst.value())));
  RHSD_RETURN_IF_ERROR(journal_append(
      lba.value(), static_cast<std::uint32_t>(dst.value()), seq, false));
  maybe_scrub();
  return Status::Ok();
}

Status Ftl::trim(Lba lba) {
  RHSD_RETURN_IF_ERROR(guard_op(/*mutating=*/true));
  RHSD_RETURN_IF_ERROR(check_lba(lba));
  ++stats_.host_trims;
  std::uint32_t old = 0;
  RHSD_RETURN_IF_ERROR(l2p_load(lba, old));
  if (old != kUnmappedPba32 && old < nand_.geometry().total_pages()) {
    mark_invalid(Pba(old));
  }
  // Trims advance the write sequence: the unmap must outrank the stale
  // flash pages the OOB scan would otherwise resurrect, and the record is
  // flushed at once because a trim leaves no other flash artifact (so
  // unmaps survive a power loss exactly).
  const std::uint64_t seq = ++write_seq_;
  RHSD_RETURN_IF_ERROR(l2p_store(lba, kUnmappedPba32));
  RHSD_RETURN_IF_ERROR(
      journal_append(lba.value(), kUnmappedPba32, seq, /*sync=*/true));
  maybe_scrub();
  return Status::Ok();
}

Status Ftl::journal_append(std::uint64_t lpn, std::uint32_t pba32,
                           std::uint64_t seq, bool sync) {
  if (journal_ == nullptr) return Status::Ok();
  ++stats_.journal_records;
  const Status s = journal_->append(JournalRecord{lpn, pba32, seq}, sync);
  if (s.code() == StatusCode::kResourceExhausted ||
      (s.ok() && journal_->needs_snapshot())) {
    // Out of (or nearly out of) record space: roll a fresh epoch.  The
    // snapshot source is the live table, which already contains this
    // record's effect, so nothing is lost if the append itself failed.
    const Status rolled = roll_snapshot();
    if (!rolled.ok()) {
      // The journal's reserved blocks cannot take a fresh epoch (faulted
      // erases/programs or a shrunken half).  Mapping changes from here
      // on would be unrecoverable after a crash, so this is a sticky
      // device-state transition, not a transient per-op error: the
      // device degrades to read-only and mutations fail fast.
      read_only_ = true;
      degradation_ = FtlDegradation::kJournalExhausted;
      return FailedPrecondition(
          std::string("journal epoch roll failed (") + rolled.message() +
          "); device degraded to read-only");
    }
    return rolled;
  }
  return s;
}

Status Ftl::roll_snapshot() {
  const std::vector<std::uint32_t> table = snapshot_table();
  RHSD_RETURN_IF_ERROR(journal_->snapshot(table, write_seq_));
  ++stats_.journal_snapshots;
  return Status::Ok();
}

std::vector<std::uint32_t> Ftl::snapshot_table() const {
  std::vector<std::uint32_t> table(config_.num_lbas, kUnmappedPba32);
  for (std::uint64_t lpn = 0; lpn < config_.num_lbas; ++lpn) {
    table[lpn] = debug_lookup(Lba(lpn));
  }
  return table;
}

void Ftl::maybe_scrub() {
  if (config_.scrub_interval_ios == 0 || journal_ == nullptr) return;
  if (++ios_since_scrub_ < config_.scrub_interval_ios) return;
  ios_since_scrub_ = 0;
  // Best-effort: a scrub that cannot trust the journal aborts and is
  // counted, but never fails the host IO that triggered it.
  (void)scrub(nullptr);
}

bool Ftl::scrub_cacheable() const {
  if (injector_ == nullptr) return true;
  constexpr std::uint64_t kNone = FaultInjector::kNoFault;
  return injector_->next_fault_at(FaultClass::kNandRead) == kNone &&
         injector_->next_fault_at(FaultClass::kNandProgram) == kNone &&
         injector_->next_fault_at(FaultClass::kNandErase) == kNone &&
         injector_->next_fault_at(FaultClass::kPowerLoss) == kNone;
}

Status Ftl::scrub(std::uint64_t* repaired) {
  if (journal_ == nullptr) {
    return FailedPrecondition("scrub requires the L2P journal");
  }
  if (needs_recovery_) {
    return FailedPrecondition("L2P not recovered: call Ftl::recover()");
  }
  ++stats_.scrub_runs;
  RHSD_RETURN_IF_ERROR(journal_->flush());

  // The journal flash changes only through this FTL's own writer, so
  // while the writer position is unchanged — and the fault plan cannot
  // alter the media behind it — the truth parsed by the last load() is
  // still exact and re-reading the flash would be pure overhead.
  const bool cacheable = scrub_cacheable();
  const bool cache_hit = cacheable && scrub_truth_valid_ &&
                         scrub_truth_epoch_ == journal_->epoch() &&
                         scrub_truth_next_page_ == journal_->next_page();
  if (!cache_hit) {
    scrub_truth_valid_ = false;
    scrub_clean_.reset();
    RHSD_ASSIGN_OR_RETURN(JournalLoadResult r, journal_->load());
    if (!r.snapshot_found || r.corrupt_pages > 0) {
      ++stats_.scrub_aborts;
      return Corruption("journal unusable for scrub (corrupt pages: " +
                        std::to_string(r.corrupt_pages) + ")");
    }
    // Authoritative mapping: snapshot plus every flushed record in
    // sequence order.
    scrub_truth_ = r.replay(config_.num_lbas).table;
    if (cacheable) {
      scrub_truth_valid_ = true;
      scrub_truth_epoch_ = journal_->epoch();
      scrub_truth_next_page_ = journal_->next_page();
    }
  }
  if (scrub_locs_.empty()) {
    // Decode every entry's DRAM location once; the layout never changes
    // underneath a live FTL.
    scrub_locs_.resize(config_.num_lbas);
    scrub_row_lpns_.resize(config_.num_lbas);
    for (std::uint64_t lpn = 0; lpn < config_.num_lbas; ++lpn) {
      scrub_locs_[lpn] = entry_loc(Lba(lpn));
      scrub_row_lpns_[lpn] = {scrub_locs_[lpn].row, lpn};
    }
    std::sort(scrub_row_lpns_.begin(), scrub_row_lpns_.end());
  }

  // Which entries to verify.  With the cached truth, every entry held
  // it at the clean mark.  While the DRAM content is unchanged since
  // (same content epoch) none can differ; while disturbance flips are
  // the only change (the epoch moved by the bitflips alone: no write,
  // poke, injected error or ECC correction), only the entries in rows
  // the new FlipEvents name.  Any other change, or flip_events()
  // cleared so that the new events are not all there, verifies every
  // entry.
  const DramStats& ds = dram_.stats();
  const std::vector<FlipEvent>& events = dram_.flip_events();
  bool full = true;
  std::vector<std::uint64_t> lpns;
  if (cache_hit && scrub_clean_.has_value()) {
    const ScrubMark& mark = *scrub_clean_;
    const std::uint64_t flips = ds.bitflips - mark.bitflips;
    if (dram_.content_epoch() - mark.content_epoch == flips &&
        (flips == 0 || events.size() == mark.flip_events + flips)) {
      full = false;
      std::vector<std::uint64_t> rows;
      for (std::size_t i = events.size() - flips; i < events.size(); ++i) {
        rows.push_back(events[i].global_row);
      }
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      for (const std::uint64_t row : rows) {
        auto it = std::lower_bound(
            scrub_row_lpns_.begin(), scrub_row_lpns_.end(),
            std::pair<std::uint64_t, std::uint64_t>{row, 0});
        for (; it != scrub_row_lpns_.end() && it->first == row; ++it) {
          lpns.push_back(it->second);
        }
      }
      std::sort(lpns.begin(), lpns.end());
    }
  }
  std::uint64_t fixed = 0;
  std::uint8_t entry[L2pLayout::kEntryBytes];
  const auto verify = [&](std::uint64_t lpn) {
    dram_.peek_row(scrub_locs_[lpn].row, scrub_locs_[lpn].offset, entry);
    if (Load32(entry) != scrub_truth_[lpn]) {
      // Drifted from the journaled state: a hammer flip or an injected
      // soft error.  Repair in place (poke: maintenance traffic is not
      // modeled as hammering).
      debug_store(Lba(lpn), scrub_truth_[lpn]);
      ++fixed;
    }
  };
  if (full) {
    for (std::uint64_t lpn = 0; lpn < config_.num_lbas; ++lpn) verify(lpn);
  } else {
    for (const std::uint64_t lpn : lpns) verify(lpn);
  }
  stats_.scrub_repairs += fixed;
  // Post-repair readings: the table now equals the truth, and the
  // repairs' own pokes are inside them.
  if (cacheable) {
    scrub_clean_ = ScrubMark{dram_.content_epoch(), ds.bitflips,
                             dram_.flip_events().size()};
  } else {
    scrub_clean_.reset();
  }
  if (repaired != nullptr) *repaired = fixed;
  return Status::Ok();
}

Status Ftl::recover(FtlRecoveryReport* report) {
  FtlRecoveryReport rep;
  if (journal_ == nullptr) {
    return FailedPrecondition("recovery requires the L2P journal");
  }
  if (!needs_recovery_) {
    // Fresh (or already recovered) device: nothing to reconstruct.
    if (report != nullptr) *report = std::move(rep);
    return Status::Ok();
  }
  JournalLoadResult r;
  if (boot_load_.has_value()) {
    r = std::move(*boot_load_);
    boot_load_.reset();
  } else {
    RHSD_ASSIGN_OR_RETURN(r, journal_->load());
  }
  rep.snapshot_found = r.snapshot_found;
  rep.epoch = r.epoch;
  rep.corrupt_journal_pages = r.corrupt_pages;

  // 1. Replay journal records newer than the snapshot, in sequence
  //    order.
  const std::uint64_t n = config_.num_lbas;
  JournalLoadResult::Replay journal = r.replay(n);
  std::vector<std::uint32_t>& table = journal.table;
  std::vector<std::uint64_t>& last_seq = journal.last_seq;
  std::uint64_t max_seq = journal.max_seq;
  rep.records_applied = journal.applied;
  rep.invalid_records = journal.invalid;

  // 2. OOB scan: every programmed data page names its owner and write
  //    sequence, which re-adopts journaled-but-unflushed writes (data
  //    is always programmed before its record is appended).
  const std::uint32_t ppb = nand_.geometry().pages_per_block;
  const std::uint64_t total_pages = nand_.geometry().total_pages();
  std::vector<std::uint64_t> page_owner(total_pages, PageOob::kNoLpn);
  std::vector<std::uint8_t> page(nand_.geometry().page_bytes);
  for (std::uint32_t b = 0; b < data_block_count(); ++b) {
    if (nand_.is_bad(b)) continue;  // retired blocks hold no live data
    const std::uint32_t wp = nand_.write_pointer(b);
    for (std::uint32_t p = 0; p < wp; ++p) {
      PageOob oob;
      const Status rs = nand_.read(b, p, page, &oob);
      if (!rs.ok()) {
        ++rep.unreadable_pages;
        continue;
      }
      if (oob.lpn == PageOob::kNoLpn || oob.lpn >= n) continue;
      const std::uint64_t pba = nand_.make_pba(b, p).value();
      page_owner[pba] = oob.lpn;
      max_seq = std::max(max_seq, oob.write_seq);
      if (oob.write_seq > last_seq[oob.lpn]) {
        table[oob.lpn] = static_cast<std::uint32_t>(pba);
        last_seq[oob.lpn] = oob.write_seq;
        ++rep.oob_adopted;
      }
    }
  }

  // 3. Validate: every mapping must point at a readable page that
  //    claims the same owner; anything else is quarantined to unmapped
  //    and reported as lost.
  for (std::uint64_t lpn = 0; lpn < n; ++lpn) {
    const std::uint32_t pba = table[lpn];
    if (pba == kUnmappedPba32) continue;
    const bool sane = pba < total_pages &&
                      nand_.block_of(Pba(pba)) < data_block_count() &&
                      page_owner[pba] == lpn;
    if (!sane) {
      table[lpn] = kUnmappedPba32;
      rep.lost_lbas.push_back(lpn);
    }
  }

  // 4. Rebuild the allocator: validity from the recovered table, free
  //    list from fully-erased blocks, the first partially-written good
  //    block resumes as the active block.
  free_blocks_.clear();
  have_active_block_ = false;
  page_valid_.assign(total_pages, false);
  const std::uint32_t blocks = nand_.geometry().total_blocks();
  block_valid_count_.assign(blocks, 0);
  block_is_free_or_active_.assign(blocks, false);
  for (std::uint32_t b = data_block_count(); b < blocks; ++b) {
    block_is_free_or_active_[b] = true;  // journal region: never GC'd
  }
  for (std::uint64_t lpn = 0; lpn < n; ++lpn) {
    if (table[lpn] != kUnmappedPba32) mark_valid(Pba(table[lpn]));
  }
  for (std::uint32_t b = 0; b < data_block_count(); ++b) {
    if (nand_.is_bad(b)) continue;
    const std::uint32_t wp = nand_.write_pointer(b);
    if (wp == 0) {
      free_blocks_.push_back(b);
      block_is_free_or_active_[b] = true;
    } else if (wp < ppb && !have_active_block_) {
      active_block_ = b;
      have_active_block_ = true;
      block_is_free_or_active_[b] = true;
    }
    // Other partial/full blocks stay closed; GC reclaims them.
  }
  write_seq_ = max_seq;

  // 5. Restore the table into DRAM (poke: bring-up, not hammering) and
  //    seal the recovery with a fresh epoch.
  for (std::uint64_t lpn = 0; lpn < n; ++lpn) {
    debug_store(Lba(lpn), table[lpn]);
  }
  needs_recovery_ = false;
  powered_off_ = false;
  update_degradation();
  RHSD_RETURN_IF_ERROR(journal_->snapshot(table, write_seq_));
  ++stats_.journal_snapshots;
  if (report != nullptr) *report = std::move(rep);
  return Status::Ok();
}

std::uint32_t Ftl::debug_lookup(Lba lba) const {
  RHSD_CHECK(lba.value() < config_.num_lbas);
  std::uint8_t buf[L2pLayout::kEntryBytes];
  dram_.peek(layout_->entry_addr(lba.value()), buf);
  return Load32(buf);
}

void Ftl::debug_store(Lba lba, std::uint32_t pba32) {
  RHSD_CHECK(lba.value() < config_.num_lbas);
  std::uint8_t buf[L2pLayout::kEntryBytes];
  Store32(buf, pba32);
  dram_.poke(layout_->entry_addr(lba.value()), buf);
}

}  // namespace rhsd
