// Tests for the set-associative cache model (the §5 "enable caches on
// the internal CPUs" mitigation).
#include <gtest/gtest.h>

#include "dram/cache_model.hpp"

namespace rhsd {
namespace {

TEST(Cache, MissThenHit) {
  CacheModel cache(CacheConfig{64, 2, 4});
  EXPECT_FALSE(cache.access(DramAddr(0)));
  EXPECT_TRUE(cache.access(DramAddr(0)));
  EXPECT_TRUE(cache.access(DramAddr(63)));   // same line
  EXPECT_FALSE(cache.access(DramAddr(64)));  // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEvictionWithinSet) {
  // 2-way, 1 set: third distinct line evicts the least recently used.
  CacheModel cache(CacheConfig{64, 2, 1});
  EXPECT_FALSE(cache.access(DramAddr(0)));    // A
  EXPECT_FALSE(cache.access(DramAddr(64)));   // B
  EXPECT_TRUE(cache.access(DramAddr(0)));     // A again (B is LRU)
  EXPECT_FALSE(cache.access(DramAddr(128)));  // C evicts B
  EXPECT_TRUE(cache.access(DramAddr(0)));     // A still cached
  EXPECT_FALSE(cache.access(DramAddr(64)));   // B was evicted
}

TEST(Cache, SetsIsolateLines) {
  // 1-way, 2 sets: alternating lines land in different sets and both
  // stay resident.
  CacheModel cache(CacheConfig{64, 1, 2});
  EXPECT_FALSE(cache.access(DramAddr(0)));   // set 0
  EXPECT_FALSE(cache.access(DramAddr(64)));  // set 1
  EXPECT_TRUE(cache.access(DramAddr(0)));
  EXPECT_TRUE(cache.access(DramAddr(64)));
}

TEST(Cache, InvalidateDropsLine) {
  CacheModel cache(CacheConfig{64, 2, 4});
  (void)cache.access(DramAddr(0));
  EXPECT_TRUE(cache.access(DramAddr(0)));
  cache.invalidate(DramAddr(32));  // same line as 0
  EXPECT_FALSE(cache.access(DramAddr(0)));
}

TEST(Cache, InvalidateMissingLineIsNoop) {
  CacheModel cache(CacheConfig{64, 2, 4});
  cache.invalidate(DramAddr(0));  // nothing cached yet
  EXPECT_FALSE(cache.access(DramAddr(0)));
}

TEST(Cache, CapacityBytes) {
  EXPECT_EQ((CacheConfig{64, 8, 128}).capacity_bytes(), 64u * 1024);
}

TEST(Cache, RepeatedAccessPatternFullyAbsorbed) {
  // The rowhammer-relevant property: a tight loop over few addresses
  // stops reaching DRAM entirely after the first pass.
  CacheModel cache(CacheConfig{});
  const std::uint64_t addrs[] = {0, 4096, 8192};
  for (const auto a : addrs) (void)cache.access(DramAddr(a));
  const std::uint64_t misses_after_warmup = cache.misses();
  for (int round = 0; round < 1000; ++round) {
    for (const auto a : addrs) {
      EXPECT_TRUE(cache.access(DramAddr(a)));
    }
  }
  EXPECT_EQ(cache.misses(), misses_after_warmup);
}

TEST(Cache, RejectsZeroedConfig) {
  EXPECT_THROW(CacheModel(CacheConfig{0, 1, 1}), CheckFailure);
  EXPECT_THROW(CacheModel(CacheConfig{64, 0, 1}), CheckFailure);
  EXPECT_THROW(CacheModel(CacheConfig{64, 1, 0}), CheckFailure);
}

}  // namespace
}  // namespace rhsd
