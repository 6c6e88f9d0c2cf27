#include "analysis/equivalence.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/access_recorder.h"
#include "target/target_types.h"

namespace goofi::analysis {
namespace {

using sim::AccessEvent;

TEST(BuildAccessIntervalsTest, NoEventsMeansNoIntervals) {
  EXPECT_TRUE(BuildAccessIntervals({}).empty());
}

TEST(BuildAccessIntervalsTest, EveryAccessClosesAnInterval) {
  // Write at t=3, read at t=7, read at t=9: three classes, reads
  // included — injections before and after a read reach different
  // first uses, so a read is a boundary just like a write.
  const std::vector<AccessEvent> events = {
      {3, true}, {7, false}, {9, false}};
  const std::vector<EquivInterval> intervals = BuildAccessIntervals(events);
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_EQ(intervals[0].lo, 0u);
  EXPECT_EQ(intervals[0].hi, 3u);
  EXPECT_EQ(intervals[1].lo, 4u);
  EXPECT_EQ(intervals[1].hi, 7u);
  EXPECT_EQ(intervals[2].lo, 8u);
  EXPECT_EQ(intervals[2].hi, 9u);
  EXPECT_EQ(intervals[1].weight(), 4u);
  // The closing access decides liveness: only the reads close live
  // intervals.
  EXPECT_FALSE(intervals[0].read_closed);
  EXPECT_TRUE(intervals[1].read_closed);
  EXPECT_TRUE(intervals[2].read_closed);
}

TEST(BuildAccessIntervalsTest, SameTimeAccessesCollapse) {
  // An instruction that reads then writes the same location emits two
  // events with one time; they delimit a single class boundary.
  const std::vector<AccessEvent> events = {
      {2, false}, {2, true}, {5, false}};
  const std::vector<EquivInterval> intervals = BuildAccessIntervals(events);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].lo, 0u);
  EXPECT_EQ(intervals[0].hi, 2u);
  EXPECT_EQ(intervals[1].lo, 3u);
  EXPECT_EQ(intervals[1].hi, 5u);
  // The first event at t=2 is the read: a flip before it is consumed.
  EXPECT_TRUE(intervals[0].read_closed);
}

TEST(FaultSpacePartitionTest, RegisterLookupFindsTheEnclosingInterval) {
  sim::AccessRecorder recorder;
  recorder.OnRegisterWrite(3, 0, 7, 2);
  recorder.OnRegisterRead(3, 6);
  recorder.OnRegisterRead(3, 11);
  FaultSpacePartition partition;
  partition.Build(recorder, 20);

  const target::FaultTarget target{"cpu.regs.r3", 5};
  const auto first = partition.IntervalOf(target, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->lo, 0u);
  EXPECT_EQ(first->hi, 2u);
  const auto middle = partition.IntervalOf(target, 4);
  ASSERT_TRUE(middle.has_value());
  EXPECT_EQ(middle->lo, 3u);
  EXPECT_EQ(middle->hi, 6u);
  // Past the last access the fault is never consumed: no class.
  EXPECT_FALSE(partition.IntervalOf(target, 12).has_value());
  // A register the trace never touched has no classes either.
  EXPECT_FALSE(
      partition.IntervalOf({"cpu.regs.r9", 0}, 1).has_value());
  EXPECT_EQ(partition.register_intervals(3).size(), 3u);
}

TEST(FaultSpacePartitionTest, MemoryLookupResolvesByteAndBitToTheWord) {
  sim::AccessRecorder recorder;
  recorder.OnMemoryWrite(0x10004, 4, 0, 3);
  recorder.OnMemoryRead(0x10004, 4, 8);
  FaultSpacePartition partition;
  partition.Build(recorder, 20);

  // Byte-granularity locations with a bit offset land in their word:
  // mem@0x10005 bit 9 is byte 0x10006, word 0x10004.
  const auto interval =
      partition.IntervalOf({"mem@0x10005", 9}, 5);
  ASSERT_TRUE(interval.has_value());
  EXPECT_EQ(interval->lo, 4u);
  EXPECT_EQ(interval->hi, 8u);
  EXPECT_FALSE(partition.IntervalOf({"mem@0x20000", 0}, 5).has_value());
  ASSERT_EQ(partition.memory_intervals().size(), 1u);
  EXPECT_EQ(partition.memory_intervals().at(0x10004).size(), 2u);
}

TEST(FaultSpacePartitionTest, UnmodeledLocationsHaveNoIntervals) {
  sim::AccessRecorder recorder;
  recorder.OnRegisterWrite(1, 0, 7, 2);
  FaultSpacePartition partition;
  partition.Build(recorder, 10);
  EXPECT_FALSE(partition.IntervalOf({"cpu.ir", 3}, 1).has_value());
  EXPECT_FALSE(partition.IntervalOf({"cpu.regs.r0", 0}, 1).has_value());
  EXPECT_FALSE(partition.IntervalOf({"cpu.regs.r16", 0}, 1).has_value());
  EXPECT_FALSE(
      partition.IntervalOf({"icache.set0.word0.data", 0}, 1).has_value());
}

TEST(EquivalenceClassIdTest, RoundTripsThroughTheTextForm) {
  const target::FaultTarget target{"cpu.regs.r12", 31};
  const std::string id = EquivalenceClassId(target, 17, 123);
  EXPECT_EQ(id, "cpu.regs.r12:b31:[17,123]");
  const auto key = ParseEquivalenceClassId(id);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key->target.location, "cpu.regs.r12");
  EXPECT_EQ(key->target.bit, 31u);
  EXPECT_EQ(key->lo, 17u);
  EXPECT_EQ(key->hi, 123u);
  EXPECT_EQ(key->weight(), 107u);
}

TEST(EquivalenceClassIdTest, MemoryLocationsRoundTripToo) {
  const auto key =
      ParseEquivalenceClassId("mem@0x00010004:b7:[0,0]");
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key->target.location, "mem@0x00010004");
  EXPECT_EQ(key->target.bit, 7u);
  EXPECT_EQ(key->weight(), 1u);
}

TEST(EquivalenceClassIdTest, MalformedIdsAreRejected) {
  EXPECT_FALSE(ParseEquivalenceClassId("").ok());
  EXPECT_FALSE(ParseEquivalenceClassId("cpu.regs.r1").ok());
  EXPECT_FALSE(ParseEquivalenceClassId("cpu.regs.r1:[0,4]").ok());
  EXPECT_FALSE(ParseEquivalenceClassId("cpu.regs.r1:b3:[4,0]").ok());
  EXPECT_FALSE(ParseEquivalenceClassId("cpu.regs.r1:b3:[0,4").ok());
  EXPECT_FALSE(ParseEquivalenceClassId(":b3:[0,4]").ok());
}

}  // namespace
}  // namespace goofi::analysis
