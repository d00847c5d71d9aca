#include "ftl/l2p_journal.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32c.hpp"

namespace rhsd {
namespace {

std::uint32_t Load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t Load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

void Store64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

JournalLoadResult::Replay JournalLoadResult::replay(std::uint64_t num_lbas) {
  Replay out;
  out.table = snapshot_found
                  ? std::move(table)
                  : std::vector<std::uint32_t>(num_lbas, kUnmappedPba32);
  out.last_seq.assign(num_lbas, snapshot_write_seq);
  out.max_seq = snapshot_write_seq;
  std::stable_sort(records.begin(), records.end(),
                   [](const JournalRecord& a, const JournalRecord& b) {
                     return a.seq < b.seq;
                   });
  for (const JournalRecord& rec : records) {
    if (rec.lpn >= num_lbas) {
      ++out.invalid;
      continue;
    }
    out.max_seq = std::max(out.max_seq, rec.seq);
    if (rec.seq > out.last_seq[rec.lpn]) {
      out.table[rec.lpn] = rec.pba32;
      out.last_seq[rec.lpn] = rec.seq;
      ++out.applied;
    }
  }
  return out;
}

L2pJournal::L2pJournal(L2pJournalConfig config, NandDevice& nand,
                       std::uint64_t num_lbas)
    : config_(config), nand_(nand), num_lbas_(num_lbas) {
  RHSD_CHECK_MSG(config_.blocks >= 2 && config_.blocks % 2 == 0,
                 "journal needs an even number of blocks, at least 2");
  RHSD_CHECK_MSG(config_.blocks < nand_.geometry().total_blocks(),
                 "journal cannot consume the whole NAND");
  first_block_ = nand_.geometry().total_blocks() - config_.blocks;
  half_blocks_ = config_.blocks / 2;
  RHSD_CHECK_MSG(
      snapshot_pages() + kSnapshotHeadroomPages < pages_per_half(),
      "journal half too small for a snapshot of " +
          std::to_string(num_lbas_) + " LBAs: raise L2pJournalConfig::blocks");
}

std::uint32_t L2pJournal::payload_bytes() const {
  return nand_.geometry().page_bytes - kHeaderBytes - 4;
}

std::uint32_t L2pJournal::snap_entries_per_page() const {
  return payload_bytes() / 4;
}

std::uint32_t L2pJournal::records_per_page() const {
  return payload_bytes() / kRecordBytes;
}

std::uint32_t L2pJournal::pages_per_half() const {
  return half_blocks_ * nand_.geometry().pages_per_block;
}

std::uint32_t L2pJournal::snapshot_pages() const {
  const std::uint32_t per_page = snap_entries_per_page();
  const auto data_pages = static_cast<std::uint32_t>(
      (num_lbas_ + per_page - 1) / per_page);
  return 1 + data_pages;  // header page + data pages
}

std::uint32_t L2pJournal::half_block(std::uint32_t half,
                                     std::uint32_t page) const {
  return first_block_ + half * half_blocks_ +
         page / nand_.geometry().pages_per_block;
}

Status L2pJournal::erase_half(std::uint32_t half) {
  for (std::uint32_t b = 0; b < half_blocks_; ++b) {
    RHSD_RETURN_IF_ERROR(
        nand_.erase(first_block_ + half * half_blocks_ + b));
  }
  return Status::Ok();
}

Status L2pJournal::write_page(std::uint32_t kind, std::uint32_t index,
                              std::uint32_t count,
                              std::span<const std::uint8_t> payload) {
  const std::uint32_t page_bytes = nand_.geometry().page_bytes;
  RHSD_CHECK(payload.size() <= payload_bytes());
  if (next_page_ >= pages_per_half()) {
    return ResourceExhausted("journal half full (epoch " +
                             std::to_string(epoch_) + ")");
  }
  std::vector<std::uint8_t> page(page_bytes, 0);
  Store32(&page[0], kMagic);
  Store32(&page[4], kind);
  Store64(&page[8], epoch_);
  Store32(&page[16], index);
  Store32(&page[20], count);
  std::memcpy(&page[kHeaderBytes], payload.data(), payload.size());
  Store32(&page[page_bytes - 4],
          Crc32c(std::span<const std::uint8_t>(page.data(), page_bytes - 4)));
  RHSD_RETURN_IF_ERROR(nand_.program(
      half_block(active_half_, next_page_),
      next_page_ % nand_.geometry().pages_per_block, page,
      PageOob{/*lpn=*/PageOob::kNoLpn, /*write_seq=*/0}));
  ++next_page_;
  return Status::Ok();
}

L2pJournal::PageView L2pJournal::read_page(std::uint32_t half,
                                           std::uint32_t page,
                                           std::span<std::uint8_t> buf) {
  PageView v;
  const std::uint32_t page_bytes = nand_.geometry().page_bytes;
  RHSD_CHECK(buf.size() == page_bytes);
  const Status s = nand_.read(half_block(half, page),
                              page % nand_.geometry().pages_per_block, buf);
  if (!s.ok()) return v;  // unreadable == corrupt
  if (std::all_of(buf.begin(), buf.end(),
                  [](std::uint8_t b) { return b == 0xFF; })) {
    v.erased = true;
    return v;
  }
  if (Load32(&buf[0]) != kMagic) return v;
  if (Load32(&buf[page_bytes - 4]) !=
      Crc32c(std::span<const std::uint8_t>(buf.data(), page_bytes - 4))) {
    return v;
  }
  v.valid = true;
  v.kind = Load32(&buf[4]);
  v.epoch = Load64(&buf[8]);
  v.index = Load32(&buf[16]);
  v.count = Load32(&buf[20]);
  return v;
}

Status L2pJournal::write_snapshot(std::span<const std::uint32_t> table,
                                  std::uint64_t write_seq) {
  RHSD_CHECK(table.size() == num_lbas_);
  const std::uint32_t per_page = snap_entries_per_page();
  const std::uint32_t data_pages = snapshot_pages() - 1;

  // Header page: capacity, sequence baseline, and the page count a
  // loader must find intact before trusting the epoch.
  std::vector<std::uint8_t> payload(8 + 8 + 4);
  Store64(&payload[0], num_lbas_);
  Store64(&payload[8], write_seq);
  Store32(&payload[16], data_pages);
  RHSD_RETURN_IF_ERROR(write_page(kKindSnapshotHeader, 0,
                                  /*count=*/1, payload));

  for (std::uint32_t i = 0; i < data_pages; ++i) {
    const std::uint64_t first = static_cast<std::uint64_t>(i) * per_page;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(per_page, num_lbas_ - first));
    payload.assign(static_cast<std::size_t>(n) * 4, 0);
    for (std::uint32_t j = 0; j < n; ++j) {
      Store32(&payload[static_cast<std::size_t>(j) * 4], table[first + j]);
    }
    RHSD_RETURN_IF_ERROR(write_page(kKindSnapshotData, i, n, payload));
  }
  ++stats_.snapshots;
  record_index_ = 0;
  records_since_snapshot_ = 0;
  return Status::Ok();
}

Status L2pJournal::format(std::span<const std::uint32_t> table,
                          std::uint64_t write_seq) {
  RHSD_RETURN_IF_ERROR(erase_half(0));
  RHSD_RETURN_IF_ERROR(erase_half(1));
  epoch_ = 0;
  active_half_ = 0;
  next_page_ = 0;
  pending_.clear();
  return write_snapshot(table, write_seq);
}

Status L2pJournal::append(const JournalRecord& record, bool sync) {
  pending_.push_back(record);
  ++stats_.records;
  ++records_since_snapshot_;
  if (pending_.size() >= records_per_page()) {
    RHSD_RETURN_IF_ERROR(flush());
  } else if (sync) {
    ++stats_.sync_flushes;
    RHSD_RETURN_IF_ERROR(flush());
  }
  return Status::Ok();
}

Status L2pJournal::flush() {
  while (!pending_.empty()) {
    const auto n = static_cast<std::uint32_t>(std::min<std::size_t>(
        pending_.size(), records_per_page()));
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(n) * kRecordBytes, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint8_t* p = &payload[static_cast<std::size_t>(i) * kRecordBytes];
      Store64(p, pending_[i].lpn);
      Store32(p + 8, pending_[i].pba32);
      Store64(p + 12, pending_[i].seq);
    }
    RHSD_RETURN_IF_ERROR(write_page(kKindRecords, record_index_, n, payload));
    ++record_index_;
    ++stats_.record_pages;
    pending_.erase(pending_.begin(), pending_.begin() + n);
  }
  return Status::Ok();
}

bool L2pJournal::needs_snapshot() const {
  const std::uint32_t remaining = pages_per_half() - next_page_;
  if (remaining <= kSnapshotHeadroomPages) return true;
  return config_.snapshot_every_records > 0 &&
         records_since_snapshot_ >= config_.snapshot_every_records;
}

Status L2pJournal::snapshot(std::span<const std::uint32_t> table,
                            std::uint64_t write_seq) {
  // The snapshot source already reflects every buffered record; rolling
  // supersedes them.
  pending_.clear();
  const std::uint32_t target = 1 - active_half_;
  RHSD_RETURN_IF_ERROR(erase_half(target));
  // Point of no return for the *old* epoch only after the new one is
  // complete: a crash from here until write_snapshot() finishes leaves
  // the old half untouched and the new half incomplete, and load()
  // falls back to the old epoch.
  active_half_ = target;
  next_page_ = 0;
  ++epoch_;
  return write_snapshot(table, write_seq);
}

StatusOr<JournalLoadResult> L2pJournal::load() {
  ++stats_.loads;
  const std::uint32_t page_bytes = nand_.geometry().page_bytes;
  std::vector<std::uint8_t> buf(page_bytes);

  JournalLoadResult best;
  std::uint32_t best_half = 0;
  std::uint32_t best_next_page = 0;
  std::uint32_t best_record_pages = 0;
  std::uint32_t total_corrupt = 0;

  for (std::uint32_t half = 0; half < 2; ++half) {
    PageView header = read_page(half, 0, buf);
    if (!header.valid || header.kind != kKindSnapshotHeader) {
      if (!header.valid && !header.erased) ++total_corrupt;
      continue;
    }
    const std::uint64_t lbas = Load64(&buf[kHeaderBytes]);
    const std::uint64_t snap_seq = Load64(&buf[kHeaderBytes + 8]);
    const std::uint32_t data_pages = Load32(&buf[kHeaderBytes + 16]);
    if (lbas != num_lbas_ || 1 + data_pages > pages_per_half()) {
      ++total_corrupt;
      continue;
    }
    const std::uint64_t epoch = header.epoch;

    JournalLoadResult r;
    r.epoch = epoch;
    r.snapshot_write_seq = snap_seq;
    r.table.assign(num_lbas_, kUnmappedPba32);
    bool complete = true;
    const std::uint32_t per_page = snap_entries_per_page();
    for (std::uint32_t i = 0; i < data_pages; ++i) {
      PageView pv = read_page(half, 1 + i, buf);
      if (!pv.valid || pv.kind != kKindSnapshotData || pv.epoch != epoch ||
          pv.index != i || pv.count > per_page) {
        if (!pv.valid && !pv.erased) ++total_corrupt;
        complete = false;
        break;
      }
      const std::uint64_t first = static_cast<std::uint64_t>(i) * per_page;
      for (std::uint32_t j = 0; j < pv.count && first + j < num_lbas_; ++j) {
        r.table[first + j] =
            Load32(&buf[kHeaderBytes + static_cast<std::size_t>(j) * 4]);
      }
    }
    if (!complete) continue;  // torn snapshot: this half is unusable
    r.snapshot_found = true;

    // Records follow the snapshot until the first erased or invalid
    // page.  Pages are programmed strictly in order, so stopping at the
    // first bad page cannot skip older records.
    std::uint32_t page = 1 + data_pages;
    std::uint32_t rec_pages = 0;
    for (; page < pages_per_half(); ++page) {
      PageView pv = read_page(half, page, buf);
      if (pv.erased) break;
      if (!pv.valid || pv.kind != kKindRecords || pv.epoch != epoch ||
          pv.count > records_per_page()) {
        ++r.corrupt_pages;
        break;
      }
      for (std::uint32_t j = 0; j < pv.count; ++j) {
        const std::uint8_t* p =
            &buf[kHeaderBytes + static_cast<std::size_t>(j) * kRecordBytes];
        r.records.push_back(
            JournalRecord{Load64(p), Load32(p + 8), Load64(p + 12)});
      }
      ++rec_pages;
    }

    if (!best.snapshot_found || r.epoch > best.epoch) {
      best = std::move(r);
      best_half = half;
      best_next_page = page;
      best_record_pages = rec_pages;
    }
  }

  best.corrupt_pages += total_corrupt;
  stats_.corrupt_pages += best.corrupt_pages;
  if (best.snapshot_found) {
    // Position the writer on the recovered epoch.  Appending resumes
    // after the last good page; a corrupt tail page is skipped (its
    // block's write pointer may sit past it, so resume from the NAND's
    // own write pointer within that block).
    epoch_ = best.epoch;
    active_half_ = best_half;
    const std::uint32_t ppb = nand_.geometry().pages_per_block;
    std::uint32_t resume = best_next_page;
    const std::uint32_t blk = half_block(best_half, resume);
    const std::uint32_t wp = nand_.write_pointer(blk);
    const std::uint32_t base = (resume / ppb) * ppb;
    resume = std::max(resume, base + std::min(wp, ppb));
    next_page_ = std::min(resume, pages_per_half());
    record_index_ = best_record_pages;
    records_since_snapshot_ = best.records.size();
    pending_.clear();
  }
  return best;
}

}  // namespace rhsd
