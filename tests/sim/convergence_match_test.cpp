// Checkpoint fork's convergence test, one field at a time. A forked run
// stops early once its state matches the golden run's at a boundary, so
// the match must compare every field that a capture stores and that
// decides the rest of the run, and nothing else. Each case starts from a
// restored mid-run capture (which matches) and changes one field of the
// golden side: a compared field must break the match, an excluded one
// (cache statistics, injector tallies, the emitted prefix both runs
// share, memory) must not.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/assembler.h"
#include "sim/snapshot.h"

namespace goofi::sim {
namespace {

// `log` with word `i` flipped in bit 0.
WordLog::Prefix Flipped(const WordLog::Prefix& log, std::size_t i) {
  std::vector<std::uint32_t> words = log.ToVector();
  words[i] ^= 1;
  return WordLog::Prefix(std::move(words));
}

struct CpuCase {
  std::string name;
  std::function<void(CpuState&)> change;
};

class CpuConvergenceMatchTest : public ::testing::Test {
 protected:
  // Emits, stores and loads through the dcache in a loop, so a mid-run
  // capture has live registers, latches, both caches and an emitted
  // history.
  void SetUp() override {
    ASSERT_TRUE(cpu_.memory()
                    .AddSegment({"code", 0, 0x4000, true, false, true,
                                 false})
                    .ok());
    ASSERT_TRUE(cpu_.memory()
                    .AddSegment({"data", 0x10000, 0x4000, true, true,
                                 false, false})
                    .ok());
    const auto program = Assemble(R"(
  li r2, 0x10000
  li r3, 0
loop:
  addi r3, r3, 7
  st r3, [r2]
  ld r4, [r2]
  mov r1, r4
  sys 4          ; emit r1
  b loop
)");
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ASSERT_TRUE(program->LoadInto(cpu_.memory()).ok());
    cpu_.Reset(program->entry);
    for (int i = 0; i < 40; ++i) cpu_.Step();
    golden_ = cpu_.CaptureState();
    ASSERT_GE(golden_.emitted.size(), 4u);
    for (int i = 0; i < 25; ++i) cpu_.Step();
    ASSERT_TRUE(cpu_.RestoreState(golden_).ok());
  }

  // The emitted words both runs share: the first half of the history.
  std::size_t EmittedFrom() const { return golden_.emitted.size() / 2; }

  bool MatchesAfter(const std::function<void(CpuState&)>& change) const {
    CpuState golden = golden_;
    change(golden);
    return cpu_.MatchesExceptMemory(golden, EmittedFrom());
  }

  Cpu cpu_;
  CpuState golden_;
};

TEST_F(CpuConvergenceMatchTest, RestoredCaptureMatches) {
  EXPECT_TRUE(cpu_.MatchesExceptMemory(golden_, EmittedFrom()));
  EXPECT_TRUE(cpu_.MatchesExceptMemory(golden_, 0));
}

TEST_F(CpuConvergenceMatchTest, EveryRegisterLatchAndCounterIsCompared) {
  std::vector<CpuCase> cases;
  for (std::size_t r = 1; r < 16; ++r) {
    cases.push_back({"r" + std::to_string(r),
                     [r](CpuState& s) { s.regs[r] ^= 1; }});
  }
  cases.push_back({"pc", [](CpuState& s) { s.pc += 4; }});
  cases.push_back({"ir", [](CpuState& s) { s.ir ^= 1; }});
  cases.push_back({"mar", [](CpuState& s) { s.mar ^= 1; }});
  cases.push_back({"mdr", [](CpuState& s) { s.mdr ^= 1; }});
  cases.push_back({"wdt", [](CpuState& s) { s.wdt ^= 1; }});
  cases.push_back(
      {"ir_valid", [](CpuState& s) { s.ir_valid = !s.ir_valid; }});
  cases.push_back({"halted", [](CpuState& s) { s.halted = !s.halted; }});
  cases.push_back({"instret", [](CpuState& s) { ++s.instret; }});
  cases.push_back({"iterations", [](CpuState& s) { ++s.iterations; }});
  cases.push_back({"recoveries", [](CpuState& s) { ++s.recoveries; }});
  for (const CpuCase& c : cases) {
    EXPECT_FALSE(MatchesAfter(c.change)) << c.name;
  }
}

TEST_F(CpuConvergenceMatchTest, OneEdmEventBreaksTheMatch) {
  EXPECT_FALSE(MatchesAfter([](CpuState& s) {
    EdmEvent event;
    event.type = EdmType::kDcacheParity;
    event.time = s.instret;
    s.edm_events.push_back(event);
  }));
}

TEST_F(CpuConvergenceMatchTest, EmittedWordsPastTheSharedPrefixAreCompared) {
  const std::size_t from = EmittedFrom();
  for (std::size_t i = from; i < golden_.emitted.size(); ++i) {
    EXPECT_FALSE(MatchesAfter(
        [i](CpuState& s) { s.emitted = Flipped(s.emitted, i); }))
        << "emitted[" << i << "]";
  }
  EXPECT_FALSE(MatchesAfter([](CpuState& s) {
    std::vector<std::uint32_t> words = s.emitted.ToVector();
    words.push_back(0);
    s.emitted = WordLog::Prefix(std::move(words));
  }));
  for (std::size_t i = 0; i < from; ++i) {
    EXPECT_TRUE(MatchesAfter(
        [i](CpuState& s) { s.emitted = Flipped(s.emitted, i); }))
        << "emitted[" << i << "] lies in the shared prefix";
  }
}

TEST_F(CpuConvergenceMatchTest, EveryCacheArrayIsCompared) {
  std::vector<CpuCase> cases;
  for (const bool icache : {true, false}) {
    const std::string unit = icache ? "icache" : "dcache";
    auto cache_of = [icache](CpuState& s) -> CacheState& {
      return icache ? s.icache : s.dcache;
    };
    cases.push_back({unit + " word", [cache_of](CpuState& s) {
                       cache_of(s).lines[1].words[2] ^= 1;
                     }});
    cases.push_back({unit + " parity", [cache_of](CpuState& s) {
                       std::vector<bool>& bits = cache_of(s).lines[1].parity;
                       bits[0] = !bits[0];
                     }});
    cases.push_back({unit + " tag", [cache_of](CpuState& s) {
                       cache_of(s).lines[1].tag ^= 1;
                     }});
    cases.push_back({unit + " valid", [cache_of](CpuState& s) {
                       CacheLine& line = cache_of(s).lines[1];
                       line.valid = !line.valid;
                     }});
  }
  for (const CpuCase& c : cases) {
    EXPECT_FALSE(MatchesAfter(c.change)) << c.name;
  }
}

TEST_F(CpuConvergenceMatchTest, CacheStatisticsAndMemoryAreNotCompared) {
  EXPECT_TRUE(MatchesAfter([](CpuState& s) {
    ++s.icache.stats.hits;
    ++s.icache.stats.misses;
    ++s.icache.stats.parity_errors;
    ++s.dcache.stats.hits;
    ++s.dcache.stats.misses;
    ++s.dcache.stats.parity_errors;
  }));
  // Memory belongs to Memory::DiffersOnlyWhere, which knows which words
  // may differ.
  EXPECT_TRUE(MatchesAfter([](CpuState& s) {
    std::shared_ptr<const std::uint8_t[]>& page = s.memory.backings[1].pages[0];
    auto flipped = std::make_shared<std::uint8_t[]>(kMemoryPageBytes);
    std::copy(page.get(), page.get() + kMemoryPageBytes, flipped.get());
    flipped[0] ^= 1;
    page = flipped;
  }));
}

TEST(InjectorConvergenceMatchTest, ArmedFaultsAndCountersAreCompared) {
  AccessPathInjector injector;
  injector.PostWrite(MemUnit::kMainMemory, nullptr, 0x40, 1);
  (void)injector.PreRead(MemUnit::kMainMemory, nullptr, 0x40,
                         AccessKind::kRead);
  ArmedCacheFault fault;
  fault.unit = MemUnit::kDcache;
  fault.array = CacheArray::kData;
  fault.set = 3;
  fault.word = 1;
  fault.bit = 17;
  fault.kind = ArmedFaultKind::kIntermittent;
  fault.period = 2;
  fault.remaining = 3;
  injector.Arm(fault);
  // One in-flight application on main memory, so both tallies are
  // non-zero in the capture.
  ArmedCacheFault inflight;
  inflight.unit = MemUnit::kMainMemory;
  inflight.array = CacheArray::kInflight;
  inflight.set = 0x40;
  inflight.bit = 4;
  injector.Arm(inflight);
  (void)injector.PreRead(MemUnit::kMainMemory, nullptr, 0x40,
                         AccessKind::kRead);
  const FaultInjectorState golden = injector.CaptureState();
  ASSERT_EQ(golden.armed.size(), 1u);
  ASSERT_GT(golden.applied, 0u);
  ASSERT_GT(golden.inflight_flips, 0u);

  AccessPathInjector live;
  live.RestoreState(golden);
  EXPECT_TRUE(live.MatchesState(golden));

  auto matches_after = [&live, &golden](
                           const std::function<void(FaultInjectorState&)>&
                               change) {
    FaultInjectorState changed = golden;
    change(changed);
    return live.MatchesState(changed);
  };
  EXPECT_FALSE(matches_after(
      [](FaultInjectorState& s) { s.armed[0].remaining -= 1; }));
  EXPECT_FALSE(matches_after(
      [](FaultInjectorState& s) { s.armed[0].next_access += 1; }));
  EXPECT_FALSE(
      matches_after([](FaultInjectorState& s) { s.armed[0].bit ^= 1; }));
  EXPECT_FALSE(
      matches_after([](FaultInjectorState& s) { s.armed.pop_back(); }));
  for (std::size_t unit = 0; unit < kMemUnitCount; ++unit) {
    EXPECT_FALSE(matches_after([unit](FaultInjectorState& s) {
      ++s.unit_accesses[unit];
    })) << "unit " << unit;
  }
  EXPECT_TRUE(matches_after([](FaultInjectorState& s) { ++s.applied; }));
  EXPECT_TRUE(
      matches_after([](FaultInjectorState& s) { ++s.inflight_flips; }));
}

}  // namespace
}  // namespace goofi::sim
