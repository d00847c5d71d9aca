// Tests for the synthetic workload generator.
#include <gtest/gtest.h>

#include <map>

#include "sim/workload.hpp"

namespace rhsd {
namespace {

WorkloadConfig Base(AccessPattern pattern) {
  WorkloadConfig c;
  c.pattern = pattern;
  c.working_set = 1000;
  c.seed = 5;
  return c;
}

TEST(Workload, AddressesStayInWorkingSet) {
  for (const AccessPattern pattern :
       {AccessPattern::kSequential, AccessPattern::kRandom,
        AccessPattern::kZipfLike, AccessPattern::kHotCold}) {
    WorkloadGenerator gen(Base(pattern));
    for (int i = 0; i < 5000; ++i) {
      EXPECT_LT(gen.next().slba, 1000u) << to_string(pattern);
    }
  }
}

TEST(Workload, DeterministicPerSeed) {
  WorkloadGenerator a(Base(AccessPattern::kZipfLike));
  WorkloadGenerator b(Base(AccessPattern::kZipfLike));
  for (int i = 0; i < 500; ++i) {
    const WorkloadOp oa = a.next();
    const WorkloadOp ob = b.next();
    EXPECT_EQ(oa.slba, ob.slba);
    EXPECT_EQ(oa.is_write, ob.is_write);
  }
}

TEST(Workload, SequentialWrapsAround) {
  WorkloadConfig c = Base(AccessPattern::kSequential);
  c.working_set = 5;
  WorkloadGenerator gen(c);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t expect = 0; expect < 5; ++expect) {
      EXPECT_EQ(gen.next().slba, expect);
    }
  }
}

TEST(Workload, WriteFractionRespected) {
  WorkloadConfig c = Base(AccessPattern::kRandom);
  c.write_fraction = 0.3;
  WorkloadGenerator gen(c);
  int writes = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) writes += gen.next().is_write;
  EXPECT_NEAR(writes / static_cast<double>(n), 0.3, 0.02);
}

TEST(Workload, ZipfLikeSkewsTowardLowAddresses) {
  WorkloadGenerator gen(Base(AccessPattern::kZipfLike));
  std::uint64_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (gen.next().slba < 100) ++low;  // lowest 10% of the space
  }
  // With skew 4, u^4 < 0.1 for u < 0.56 — most accesses land low.
  EXPECT_GT(low, static_cast<std::uint64_t>(n) / 2);
}

TEST(Workload, HotColdSplit) {
  WorkloadConfig c = Base(AccessPattern::kHotCold);
  c.hot_fraction = 0.1;
  WorkloadGenerator gen(c);
  int hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (gen.next().slba < 100) ++hot;  // the hot 10%
  }
  EXPECT_NEAR(hot / static_cast<double>(n), 0.9, 0.02);
}

TEST(Workload, RejectsBadConfig) {
  WorkloadConfig c = Base(AccessPattern::kRandom);
  c.working_set = 0;
  EXPECT_THROW(WorkloadGenerator{c}, CheckFailure);
  c = Base(AccessPattern::kRandom);
  c.write_fraction = 1.5;
  EXPECT_THROW(WorkloadGenerator{c}, CheckFailure);
  c = Base(AccessPattern::kZipfLike);
  c.zipf_skew = 0.5;
  EXPECT_THROW(WorkloadGenerator{c}, CheckFailure);
}

}  // namespace
}  // namespace rhsd
