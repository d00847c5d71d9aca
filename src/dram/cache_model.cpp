#include "dram/cache_model.hpp"

namespace rhsd {

CacheModel::CacheModel(CacheConfig config) : config_(config) {
  RHSD_CHECK(config_.ways > 0);
  RHSD_CHECK(config_.sets > 0);
  lines_.resize(static_cast<std::size_t>(config_.sets) * config_.ways);
}

bool CacheModel::access(DramAddr addr) {
  const std::uint64_t id = line_id(addr);
  const std::uint64_t set = id % config_.sets;
  const std::uint64_t tag = id / config_.sets;
  Line* base = &lines_[set * config_.ways];

  Line* victim = base;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = ++use_counter_;
      ++hits_;
      return true;
    }
    if (!line.valid) {
      victim = &line;
    } else if (victim->valid && line.lru < victim->lru) {
      victim = &line;
    }
  }
  ++misses_;
  victim->valid = true;
  victim->tag = tag;
  victim->lru = ++use_counter_;
  return false;
}

void CacheModel::invalidate(DramAddr addr) {
  const std::uint64_t id = line_id(addr);
  const std::uint64_t set = id % config_.sets;
  const std::uint64_t tag = id / config_.sets;
  Line* base = &lines_[set * config_.ways];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].valid = false;
      return;
    }
  }
}

bool CacheModel::contains(DramAddr addr) const {
  const std::uint64_t id = line_id(addr);
  const std::uint64_t set = id % config_.sets;
  const std::uint64_t tag = id / config_.sets;
  const Line* base = &lines_[set * config_.ways];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void CacheModel::set_last_use(DramAddr addr, std::uint64_t stamp) {
  const std::uint64_t id = line_id(addr);
  const std::uint64_t set = id % config_.sets;
  const std::uint64_t tag = id / config_.sets;
  Line* base = &lines_[set * config_.ways];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].lru = stamp;
      return;
    }
  }
  RHSD_CHECK_MSG(false, "set_last_use on a non-resident line");
}

}  // namespace rhsd
