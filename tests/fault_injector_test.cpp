// Tests for the deterministic fault-injection framework: plan
// construction, per-class operation streams, window semantics, the
// injection log, and bit-for-bit replayability of random plans.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"

namespace rhsd {
namespace {

TEST(FaultPlan, HandBuiltEventsFireAtExactIndices) {
  FaultPlan plan;
  plan.add(FaultClass::kNandRead, /*op_index=*/2);
  FaultInjector injector(plan);

  EXPECT_FALSE(injector.tick(FaultClass::kNandRead).has_value());  // op 0
  EXPECT_FALSE(injector.tick(FaultClass::kNandRead).has_value());  // op 1
  const auto fault = injector.tick(FaultClass::kNandRead);         // op 2
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->cls, FaultClass::kNandRead);
  EXPECT_EQ(fault->op_index, 2u);
  EXPECT_FALSE(injector.tick(FaultClass::kNandRead).has_value());  // op 3
  EXPECT_EQ(injector.ops(FaultClass::kNandRead), 4u);
}

TEST(FaultPlan, CountSpansConsecutiveOperations) {
  FaultPlan plan;
  plan.add(FaultClass::kNandProgram, /*op_index=*/5, /*count=*/3);
  FaultInjector injector(plan);

  for (std::uint64_t op = 0; op < 10; ++op) {
    // The lookahead counts the fault-free ops left before the window.
    const std::uint64_t away =
        op < 5 ? 5 - op : op < 8 ? 0 : FaultInjector::kNoFault;
    EXPECT_EQ(injector.ops_until_fault(FaultClass::kNandProgram), away)
        << "op " << op;
    const bool faulted =
        injector.tick(FaultClass::kNandProgram).has_value();
    EXPECT_EQ(faulted, op >= 5 && op < 8) << "op " << op;
  }
}

TEST(FaultPlan, ClassStreamsAreIndependent) {
  FaultPlan plan;
  plan.add(FaultClass::kNandErase, /*op_index=*/0);
  FaultInjector injector(plan);

  // Heavy traffic in other classes never consumes the erase event.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.tick(FaultClass::kNandRead).has_value());
    EXPECT_FALSE(injector.tick(FaultClass::kNvmeTimeout).has_value());
  }
  EXPECT_TRUE(injector.tick(FaultClass::kNandErase).has_value());
  EXPECT_EQ(injector.ops(FaultClass::kNandRead), 100u);
  EXPECT_EQ(injector.ops(FaultClass::kNandErase), 1u);
}

TEST(FaultPlan, ParamTravelsWithTheEvent) {
  const std::uint64_t param = (17u << 3) | 5u;  // byte 17, bit 5
  FaultPlan plan;
  plan.add(FaultClass::kDramBitError, 0, 1, param);
  FaultInjector injector(plan);

  const auto fault = injector.tick(FaultClass::kDramBitError);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->param, param);
}

TEST(FaultInjector, LogRecordsEveryInjection) {
  FaultPlan plan;
  plan.add(FaultClass::kNandRead, 1);
  plan.add(FaultClass::kNvmeDrop, 0, 1, 7);
  FaultInjector injector(plan);

  (void)injector.tick(FaultClass::kNvmeDrop);
  (void)injector.tick(FaultClass::kNandRead);
  (void)injector.tick(FaultClass::kNandRead);

  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_EQ(injector.log()[0].cls, FaultClass::kNvmeDrop);
  EXPECT_EQ(injector.log()[0].op_index, 0u);
  EXPECT_EQ(injector.log()[0].param, 7u);
  EXPECT_EQ(injector.log()[1].cls, FaultClass::kNandRead);
  EXPECT_EQ(injector.log()[1].op_index, 1u);
}

TEST(FaultInjector, ResetReplaysTheSamePlan) {
  FaultPlan plan;
  plan.add(FaultClass::kNandProgram, 3, 2);
  FaultInjector injector(plan);

  std::string first;
  for (int i = 0; i < 8; ++i) {
    first += injector.tick(FaultClass::kNandProgram).has_value() ? 'F' : '.';
  }
  injector.reset();
  EXPECT_EQ(injector.ops(FaultClass::kNandProgram), 0u);
  EXPECT_TRUE(injector.log().empty());

  std::string second;
  for (int i = 0; i < 8; ++i) {
    second +=
        injector.tick(FaultClass::kNandProgram).has_value() ? 'F' : '.';
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, "...FF...");
}

TEST(FaultInjector, OutOfOrderEventsAreSortedPerClass) {
  FaultPlan plan;
  plan.add(FaultClass::kNandRead, 6);
  plan.add(FaultClass::kNandRead, 2);
  FaultInjector injector(plan);

  std::string fired;
  for (int i = 0; i < 8; ++i) {
    fired += injector.tick(FaultClass::kNandRead).has_value() ? 'F' : '.';
  }
  EXPECT_EQ(fired, "..F...F.");
}

TEST(FaultPlan, RandomPlanIsReproducible) {
  FaultRates rates;
  rates.nand_read = 0.05;
  rates.nvme_timeout = 0.02;
  rates.power_losses = 1.0;

  const FaultPlan a = FaultPlan::Random(1234, rates, 10'000);
  const FaultPlan b = FaultPlan::Random(1234, rates, 10'000);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].cls, b.events()[i].cls);
    EXPECT_EQ(a.events()[i].op_index, b.events()[i].op_index);
    EXPECT_EQ(a.events()[i].count, b.events()[i].count);
    EXPECT_EQ(a.events()[i].param, b.events()[i].param);
  }

  // A different seed yields a different schedule.
  const FaultPlan c = FaultPlan::Random(1235, rates, 10'000);
  bool differs = c.events().size() != a.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].op_index != c.events()[i].op_index ||
              a.events()[i].cls != c.events()[i].cls;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RandomRatesScaleEventCounts) {
  FaultRates none;
  EXPECT_TRUE(FaultPlan::Random(7, none, 10'000).empty());

  FaultRates certain;
  certain.nand_erase = 1.0;
  const FaultPlan every = FaultPlan::Random(7, certain, 100);
  std::uint64_t erase_events = 0;
  for (const FaultEvent& e : every.events()) {
    ASSERT_EQ(e.cls, FaultClass::kNandErase);
    erase_events += e.count;
  }
  EXPECT_EQ(erase_events, 100u);

  // An integer power-loss rate schedules exactly that many losses, at
  // distinct indices (the device dies and reboots with each one).
  FaultRates power;
  power.power_losses = 50.0;
  const FaultPlan pl = FaultPlan::Random(9, power, 1000);
  std::set<std::uint64_t> loss_indices;
  for (const FaultEvent& e : pl.events()) {
    if (e.cls != FaultClass::kPowerLoss) continue;
    EXPECT_LT(e.op_index, 1000u);
    EXPECT_TRUE(loss_indices.insert(e.op_index).second)
        << "duplicate power-loss index " << e.op_index;
  }
  EXPECT_EQ(loss_indices.size(), 50u);
}

TEST(FaultPlan, ClassNamesAreHumanReadable) {
  EXPECT_STREQ(to_string(FaultClass::kNandRead), "nand-read");
  EXPECT_STREQ(to_string(FaultClass::kPowerLoss), "power-loss");
}

}  // namespace
}  // namespace rhsd
