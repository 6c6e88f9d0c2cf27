// Pre-injection liveness, read off the def-use index: a time is live
// iff it precedes the end of the run and its def-use interval is closed
// by a read. The cases below pin that rule down on hand-built streams,
// and a fixed-seed differential test compares it with the merged live
// spans of the rule's original formulation ("a read at r whose last
// earlier write was at w makes [w+1, r] live").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/equivalence.h"
#include "sim/access_recorder.h"
#include "target/target_types.h"
#include "util/rng.h"
#include "util/strings.h"

namespace goofi::analysis {
namespace {

using sim::AccessEvent;

const target::FaultTarget kR1{"cpu.regs.r1", 0};

// The index of one event stream, fed to r1. end_time 0 means no
// end-of-run cutoff, so the stream alone decides liveness.
FaultSpacePartition IndexOf(const std::vector<AccessEvent>& events,
                            std::uint64_t end_time = 0) {
  sim::AccessRecorder recorder;
  for (const AccessEvent& event : events) {
    if (event.is_write) {
      recorder.OnRegisterWrite(1, 0, 0, event.time);
    } else {
      recorder.OnRegisterRead(1, event.time);
    }
  }
  FaultSpacePartition index;
  index.Build(recorder, end_time);
  return index;
}

std::uint64_t LiveTime(const FaultSpacePartition& index, unsigned reg = 1) {
  std::uint64_t live = 0;
  for (const EquivInterval& interval : index.register_intervals(reg)) {
    if (interval.read_closed) live += interval.weight();
  }
  return live;
}

bool MemoryLive(const FaultSpacePartition& index, std::uint32_t address,
                std::uint64_t time) {
  return index.IsLive({StrFormat("mem@0x%08x", address), 0}, time);
}

TEST(LivenessIntervalsTest, BuildFromReadsAndWrites) {
  // write@5, read@10, write@12, read@20  =>  live [6,10] and [13,20].
  const FaultSpacePartition index =
      IndexOf({{5, true}, {10, false}, {12, true}, {20, false}});
  const std::vector<EquivInterval>& intervals = index.register_intervals(1);
  ASSERT_EQ(intervals.size(), 4u);
  EXPECT_FALSE(intervals[0].read_closed);
  EXPECT_TRUE(intervals[1].read_closed);
  EXPECT_FALSE(intervals[2].read_closed);
  EXPECT_TRUE(intervals[3].read_closed);
  EXPECT_FALSE(index.IsLive(kR1, 5));
  EXPECT_TRUE(index.IsLive(kR1, 6));
  EXPECT_TRUE(index.IsLive(kR1, 10));
  EXPECT_FALSE(index.IsLive(kR1, 11));
  EXPECT_FALSE(index.IsLive(kR1, 12));
  EXPECT_TRUE(index.IsLive(kR1, 13));
  EXPECT_TRUE(index.IsLive(kR1, 20));
  EXPECT_FALSE(index.IsLive(kR1, 21));
  EXPECT_EQ(LiveTime(index), 5u + 8u);
}

TEST(LivenessIntervalsTest, ReadBeforeAnyWriteIsLiveFromZero) {
  const FaultSpacePartition index = IndexOf({{7, false}});
  EXPECT_TRUE(index.IsLive(kR1, 0));
  EXPECT_TRUE(index.IsLive(kR1, 7));
  EXPECT_FALSE(index.IsLive(kR1, 8));
}

TEST(LivenessIntervalsTest, WriteOnlyLocationIsNeverLive) {
  const FaultSpacePartition index = IndexOf({{3, true}, {9, true}});
  for (std::uint64_t time = 0; time < 12; ++time) {
    EXPECT_FALSE(index.IsLive(kR1, time)) << time;
  }
  EXPECT_EQ(LiveTime(index), 0u);
}

TEST(LivenessIntervalsTest, ReadAndWriteSameInstruction) {
  // "add r1, r1, r2" at t=4: read r1 then write r1 (program order).
  // Injection at t<=4 reaches the read; the write covers [5, 8] for the
  // next read, so [0, 8] is live without a gap.
  const FaultSpacePartition index =
      IndexOf({{4, false}, {4, true}, {8, false}});
  EXPECT_TRUE(index.IsLive(kR1, 0));
  EXPECT_TRUE(index.IsLive(kR1, 4));
  EXPECT_TRUE(index.IsLive(kR1, 5));
  EXPECT_TRUE(index.IsLive(kR1, 8));
  EXPECT_FALSE(index.IsLive(kR1, 9));
  // The opposite order — the write lands first — overwrites the flip
  // before the read sees it.
  const FaultSpacePartition write_first =
      IndexOf({{4, true}, {4, false}, {8, false}});
  EXPECT_FALSE(write_first.IsLive(kR1, 0));
  EXPECT_FALSE(write_first.IsLive(kR1, 4));
  EXPECT_TRUE(write_first.IsLive(kR1, 5));
  EXPECT_EQ(LiveTime(write_first), 4u);
}

TEST(LivenessIntervalsTest, AdjacentSpansMerge) {
  // read@5, write@5, read@6: [0,5] and [6,6] are both live, one
  // unbroken span [0,6] of seven live times.
  const FaultSpacePartition index =
      IndexOf({{5, false}, {5, true}, {6, false}});
  for (std::uint64_t time = 0; time <= 6; ++time) {
    EXPECT_TRUE(index.IsLive(kR1, time)) << time;
  }
  EXPECT_FALSE(index.IsLive(kR1, 7));
  EXPECT_EQ(LiveTime(index), 7u);
  // Consecutive reads: every interval up to the last read is live.
  const FaultSpacePartition reads =
      IndexOf({{2, true}, {4, false}, {5, false}, {9, false}});
  EXPECT_FALSE(reads.IsLive(kR1, 2));
  for (std::uint64_t time = 3; time <= 9; ++time) {
    EXPECT_TRUE(reads.IsLive(kR1, time)) << time;
  }
  EXPECT_EQ(LiveTime(reads), 7u);
}

TEST(LivenessIntervalsTest, ContainsOnEmptyIntervals) {
  const FaultSpacePartition index = IndexOf({});
  EXPECT_TRUE(index.register_intervals(1).empty());
  EXPECT_FALSE(index.IsLive(kR1, 0));
  EXPECT_FALSE(index.IsLive(kR1, 42));
  EXPECT_EQ(LiveTime(index), 0u);
}

TEST(LivenessIntervalsTest, SinglePointSpanBoundaries) {
  // write@6, read@7: the only live time is 7.
  const FaultSpacePartition index = IndexOf({{6, true}, {7, false}});
  EXPECT_FALSE(index.IsLive(kR1, 6));
  EXPECT_TRUE(index.IsLive(kR1, 7));
  EXPECT_FALSE(index.IsLive(kR1, 8));
  EXPECT_EQ(LiveTime(index), 1u);
}

// The rule's original formulation, kept here as the reference: sorted,
// disjoint, merged inclusive live spans of one event stream.
std::vector<std::pair<std::uint64_t, std::uint64_t>> ReferenceLiveSpans(
    const std::vector<AccessEvent>& events) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  std::uint64_t window_start = 0;  // first live time for the next read
  for (const AccessEvent& event : events) {
    if (event.is_write) {
      window_start = event.time + 1;
      continue;
    }
    if (window_start > event.time) continue;  // written, then read, same t
    if (!spans.empty() && spans.back().second + 1 >= window_start) {
      spans.back().second = std::max(spans.back().second, event.time);
    } else {
      spans.emplace_back(window_start, event.time);
    }
  }
  return spans;
}

TEST(LivenessIntervalsTest, MatchesMergedSpansOnRandomStreams) {
  Rng rng(20031);
  for (int stream = 0; stream < 20000; ++stream) {
    // Nondecreasing times with frequent repeats, so one time often
    // carries a read and a write in either order.
    std::vector<AccessEvent> events(rng.NextBelow(24));
    std::uint64_t time = rng.NextBelow(4);
    for (AccessEvent& event : events) {
      time += rng.NextBelow(3) == 0 ? 0 : 1 + rng.NextBelow(5);
      event = {time, rng.NextBool()};
    }
    const std::uint64_t end_time = time + 3;
    const FaultSpacePartition index = IndexOf(events, end_time);
    const auto spans = ReferenceLiveSpans(events);
    std::uint64_t reference_live = 0;
    for (const auto& [first, last] : spans) reference_live += last - first + 1;

    for (std::uint64_t t = 0; t < end_time + 2; ++t) {
      const bool in_span =
          std::any_of(spans.begin(), spans.end(), [t](const auto& span) {
            return span.first <= t && t <= span.second;
          });
      ASSERT_EQ(index.IsLive(kR1, t), in_span && t < end_time)
          << "stream " << stream << ", t=" << t;
    }
    ASSERT_EQ(LiveTime(index), reference_live) << "stream " << stream;
    ASSERT_EQ(index.RegisterLiveFraction(),
              static_cast<double>(reference_live) /
                  (15.0 * static_cast<double>(end_time)))
        << "stream " << stream;
  }
}

TEST(PreInjectionAnalysisTest, BuildsFromRecorder) {
  sim::AccessRecorder recorder;
  recorder.OnRegisterWrite(3, 0, 1, 2);
  recorder.OnRegisterRead(3, 9);
  recorder.OnMemoryWrite(0x1000, 4, 5, 4);
  recorder.OnMemoryRead(0x1000, 4, 11);
  FaultSpacePartition index;
  index.Build(recorder, /*end_time=*/20);

  EXPECT_TRUE(index.IsLive({"cpu.regs.r3", 0}, 5));
  EXPECT_FALSE(index.IsLive({"cpu.regs.r3", 0}, 2));
  EXPECT_FALSE(index.IsLive({"cpu.regs.r3", 0}, 10));
  EXPECT_FALSE(index.IsLive({"cpu.regs.r4", 0}, 5));  // untouched register
  EXPECT_FALSE(index.IsLive({"cpu.regs.r0", 0}, 5));  // r0 never live

  EXPECT_TRUE(MemoryLive(index, 0x1000, 7));
  EXPECT_TRUE(MemoryLive(index, 0x1002, 7));  // same word
  EXPECT_FALSE(MemoryLive(index, 0x1000, 12));
  EXPECT_FALSE(MemoryLive(index, 0x2000, 7));  // never accessed: dead
}

TEST(PreInjectionAnalysisTest, FaultTargetResolution) {
  sim::AccessRecorder recorder;
  recorder.OnRegisterWrite(5, 0, 1, 1);
  recorder.OnRegisterRead(5, 6);
  recorder.OnMemoryWrite(0x10020, 4, 5, 3);
  recorder.OnMemoryRead(0x10020, 4, 9);
  FaultSpacePartition index;
  index.Build(recorder, 20);

  EXPECT_TRUE(index.IsLive({"cpu.regs.r5", 12}, 4));
  EXPECT_FALSE(index.IsLive({"cpu.regs.r5", 12}, 8));
  // Byte addressing within a word: bit 10 lives in byte +1, same word.
  EXPECT_TRUE(index.IsLive({"mem@0x00010020", 10}, 5));
  EXPECT_FALSE(index.IsLive({"mem@0x00010020", 10}, 15));
  // Bit 40 lives in byte +5: the next word, which the run never reads.
  EXPECT_FALSE(index.IsLive({"mem@0x00010020", 40}, 5));
  // Non-architectural locations are conservatively live.
  EXPECT_TRUE(index.IsLive({"icache.line3.data2", 7}, 5));
  EXPECT_TRUE(index.IsLive({"cpu.ir", 7}, 5));
  EXPECT_TRUE(index.IsLive({"cpu.ir", 7}, 25));  // even past the end
  // Nonsense registers and addresses are not.
  EXPECT_FALSE(index.IsLive({"cpu.regs.r77", 0}, 5));
  EXPECT_FALSE(index.IsLive({"cpu.regs.rx", 0}, 5));
  EXPECT_FALSE(index.IsLive({"mem@nowhere", 0}, 5));
}

TEST(PreInjectionAnalysisTest, EmptyTraceHasNoLiveness) {
  const sim::AccessRecorder recorder;
  FaultSpacePartition index;
  index.Build(recorder, /*end_time=*/0);
  for (unsigned reg = 0; reg < 16; ++reg) {
    EXPECT_FALSE(index.IsLive({StrFormat("cpu.regs.r%u", reg), 0}, 0));
  }
  EXPECT_FALSE(MemoryLive(index, 0x10000, 0));
  EXPECT_TRUE(index.memory_intervals().empty());
  EXPECT_EQ(index.RegisterLiveFraction(), 0.0);
}

TEST(PreInjectionAnalysisTest, RzeroIsNeverLiveEvenIfEventsClaimSo) {
  // The recorder drops r0 events itself, but the index must stay safe
  // even against a tracer that reports them.
  sim::AccessRecorder recorder;
  recorder.OnRegisterRead(0, 5);
  recorder.OnRegisterWrite(0, 0, 1, 2);
  FaultSpacePartition index;
  index.Build(recorder, 10);
  EXPECT_TRUE(index.register_intervals(0).empty());
  EXPECT_FALSE(index.IsLive({"cpu.regs.r0", 0}, 3));
}

TEST(PreInjectionAnalysisTest, AccessesAtOrAfterEndTimeAreNotLive) {
  // A read event at the end of the run keeps earlier times live, but an
  // injection at t >= end_time happens after the workload halted and
  // can never be read.
  sim::AccessRecorder recorder;
  recorder.OnRegisterRead(2, 9);  // last instruction of a 10-long run
  recorder.OnRegisterRead(3, 12);  // a stray event past the end
  recorder.OnMemoryWrite(0x10000, 4, 1, 1);
  recorder.OnMemoryRead(0x10000, 4, 9);
  FaultSpacePartition index;
  index.Build(recorder, /*end_time=*/10);
  EXPECT_TRUE(index.IsLive({"cpu.regs.r2", 0}, 9));
  EXPECT_FALSE(index.IsLive({"cpu.regs.r2", 0}, 10));
  EXPECT_FALSE(index.IsLive({"cpu.regs.r2", 0}, 11));
  EXPECT_FALSE(index.IsLive({"cpu.regs.r3", 0}, 11));
  EXPECT_TRUE(MemoryLive(index, 0x10000, 9));
  EXPECT_FALSE(MemoryLive(index, 0x10000, 10));
}

TEST(PreInjectionAnalysisTest, RegisterLiveFraction) {
  sim::AccessRecorder recorder;
  // r1 live for [0,9] out of end_time 100 => 10/100 of one register;
  // over 15 registers: 10 / 1500. r2 is written only: no live time.
  recorder.OnRegisterRead(1, 9);
  recorder.OnRegisterWrite(2, 0, 1, 50);
  FaultSpacePartition index;
  index.Build(recorder, 100);
  EXPECT_EQ(LiveTime(index, 1), 10u);
  EXPECT_EQ(LiveTime(index, 2), 0u);
  EXPECT_EQ(index.RegisterLiveFraction(), 10.0 / 1500.0);
}

}  // namespace
}  // namespace goofi::analysis
