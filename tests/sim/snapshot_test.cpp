// Snapshot round-trip proofs for every sim component: CaptureState();
// mutate; RestoreState() must be bit-exact, because checkpoint-fork
// execution (target/golden_run.h) rides on a restored simulator being
// indistinguishable from one that replayed from reset. Each component
// is also checked for the loud-failure half of the contract: restoring
// onto mismatched geometry is an error, never silent corruption.
#include "sim/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/assembler.h"
#include "sim/scan_chain.h"

namespace goofi::sim {
namespace {

// ---- field-by-field state comparisons ---------------------------------
// The tests compare every member rather than the structs' operator==, so
// a field that misses Capture/Restore shows up as a named failure.

void ExpectCacheStateEq(const CacheState& a, const CacheState& b,
                        const std::string& label) {
  EXPECT_EQ(a.stats.hits, b.stats.hits) << label;
  EXPECT_EQ(a.stats.misses, b.stats.misses) << label;
  EXPECT_EQ(a.stats.parity_errors, b.stats.parity_errors) << label;
  ASSERT_EQ(a.lines.size(), b.lines.size()) << label;
  for (std::size_t i = 0; i < a.lines.size(); ++i) {
    EXPECT_EQ(a.lines[i].valid, b.lines[i].valid) << label << " line " << i;
    EXPECT_EQ(a.lines[i].tag, b.lines[i].tag) << label << " line " << i;
    EXPECT_EQ(a.lines[i].words, b.lines[i].words) << label << " line " << i;
    EXPECT_EQ(a.lines[i].parity, b.lines[i].parity)
        << label << " line " << i;
  }
}

void ExpectMemoryStateEq(const MemoryState& a, const MemoryState& b) {
  ASSERT_EQ(a.backings.size(), b.backings.size());
  for (std::size_t i = 0; i < a.backings.size(); ++i) {
    EXPECT_EQ(a.backings[i], b.backings[i]) << "segment " << i;
  }
}

void ExpectCpuStateEq(const CpuState& a, const CpuState& b) {
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.ir, b.ir);
  EXPECT_EQ(a.mar, b.mar);
  EXPECT_EQ(a.mdr, b.mdr);
  EXPECT_EQ(a.wdt, b.wdt);
  EXPECT_EQ(a.ir_valid, b.ir_valid);
  EXPECT_EQ(a.halted, b.halted);
  EXPECT_EQ(a.instret, b.instret);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.emitted, b.emitted);
  ASSERT_EQ(a.edm_events.size(), b.edm_events.size());
  for (std::size_t i = 0; i < a.edm_events.size(); ++i) {
    EXPECT_EQ(a.edm_events[i].type, b.edm_events[i].type) << i;
    EXPECT_EQ(a.edm_events[i].time, b.edm_events[i].time) << i;
    EXPECT_EQ(a.edm_events[i].pc, b.edm_events[i].pc) << i;
    EXPECT_EQ(a.edm_events[i].detail, b.edm_events[i].detail) << i;
  }
  ExpectMemoryStateEq(a.memory, b.memory);
  ExpectCacheStateEq(a.icache, b.icache, "icache");
  ExpectCacheStateEq(a.dcache, b.dcache, "dcache");
}

// ---- Cache ------------------------------------------------------------

class CacheSnapshotTest : public ::testing::Test {
 protected:
  CacheSnapshotTest() : cache_({4, 4, 24}) {
    EXPECT_TRUE(
        memory_.AddSegment({"ram", 0, 0x10000, true, true, true, false})
            .ok());
    for (std::uint32_t address = 0; address < 0x400; address += 4) {
      EXPECT_TRUE(memory_.PokeWord(address, address ^ 0xA5A5A5A5u));
    }
  }

  void Read(Cache& cache, std::uint32_t address,
            bool* parity_error = nullptr) {
    std::uint32_t value = 0;
    bool parity = false;
    EXPECT_EQ(cache.ReadWord(memory_, address, &value, AccessKind::kRead,
                             &parity),
              MemFault::kNone);
    if (parity_error != nullptr) *parity_error = parity;
  }

  Memory memory_;
  Cache cache_;
};

TEST_F(CacheSnapshotTest, RoundTripIsBitExact) {
  // Fill some lines and accumulate stats.
  Read(cache_, 0x00);
  Read(cache_, 0x10);
  Read(cache_, 0x10);  // hit
  Read(cache_, 0x40);  // evicts line 0's tag 0
  const CacheState saved = cache_.CaptureState();

  // Mutate everything a fault model can touch: array bits, parity,
  // residency, statistics.
  cache_.line(1).words[2] ^= 0x80;
  cache_.line(1).parity[3] = !cache_.line(1).parity[3];
  cache_.line(0).tag ^= 1;
  cache_.Invalidate();
  Read(cache_, 0x20);

  ASSERT_TRUE(cache_.RestoreState(saved).ok());
  ExpectCacheStateEq(cache_.CaptureState(), saved, "restored");
}

TEST_F(CacheSnapshotTest, StoredParityBitsAreStateNotRecomputed) {
  Read(cache_, 0x10);
  // Flip a stored parity bit: the classic cache-array SCIFI fault.
  cache_.line(1).parity[0] = !cache_.line(1).parity[0];
  const CacheState saved = cache_.CaptureState();

  Cache fresh({4, 4, 24});
  ASSERT_TRUE(fresh.RestoreState(saved).ok());
  // The restored cache must reproduce the fault's detection: a read hit
  // on the poisoned word raises a parity error, proving Restore carried
  // the parity bit itself rather than recomputing it from the data.
  bool parity_error = false;
  Read(fresh, 0x10, &parity_error);
  EXPECT_TRUE(parity_error);
  EXPECT_EQ(fresh.stats().parity_errors, 1u);
}

TEST_F(CacheSnapshotTest, RestoreRejectsGeometryMismatch) {
  const CacheState saved = cache_.CaptureState();
  Cache more_lines({8, 4, 24});
  EXPECT_FALSE(more_lines.RestoreState(saved).ok());
  Cache wider_lines({4, 8, 24});
  EXPECT_FALSE(wider_lines.RestoreState(saved).ok());

  CacheState malformed = saved;
  malformed.lines[2].words.pop_back();
  EXPECT_FALSE(cache_.RestoreState(malformed).ok());
}

// ---- Memory -----------------------------------------------------------

TEST(MemorySnapshotTest, RoundTripIsBitExact) {
  Memory memory;
  ASSERT_TRUE(
      memory.AddSegment({"code", 0, 0x100, true, false, true, false}).ok());
  ASSERT_TRUE(memory.AddSegment({"data", 0x10000, 0x100, true, true, false,
                                 false}).ok());
  ASSERT_TRUE(memory.PokeWord(0x10, 0xDEADBEEF));
  ASSERT_TRUE(memory.Poke(0x10020, 0x5A));
  const MemoryState saved = memory.CaptureState();

  ASSERT_TRUE(memory.PokeWord(0x10, 0));
  ASSERT_TRUE(memory.Poke(0x10021, 0xFF));
  ASSERT_TRUE(memory.RestoreState(saved).ok());

  std::uint32_t word = 0;
  EXPECT_TRUE(memory.PeekWord(0x10, &word));
  EXPECT_EQ(word, 0xDEADBEEFu);
  std::uint8_t byte = 0;
  EXPECT_TRUE(memory.Peek(0x10020, &byte));
  EXPECT_EQ(byte, 0x5Au);
  EXPECT_TRUE(memory.Peek(0x10021, &byte));
  EXPECT_EQ(byte, 0u);
  ExpectMemoryStateEq(memory.CaptureState(), saved);
}

TEST(MemorySnapshotTest, RestoreRejectsLayoutMismatch) {
  Memory one_segment;
  ASSERT_TRUE(
      one_segment.AddSegment({"a", 0, 0x100, true, true, false, false})
          .ok());
  const MemoryState saved = one_segment.CaptureState();

  Memory two_segments;
  ASSERT_TRUE(
      two_segments.AddSegment({"a", 0, 0x100, true, true, false, false})
          .ok());
  ASSERT_TRUE(
      two_segments
          .AddSegment({"b", 0x1000, 0x100, true, true, false, false})
          .ok());
  EXPECT_FALSE(two_segments.RestoreState(saved).ok());

  Memory different_size;
  ASSERT_TRUE(
      different_size.AddSegment({"a", 0, 0x200, true, true, false, false})
          .ok());
  EXPECT_FALSE(different_size.RestoreState(saved).ok());
}

// ---- Cpu (registers, latches, counters, logs, memory, caches) --------

class CpuSnapshotTest : public ::testing::Test {
 protected:
  // A control-loop-shaped workload: emits, writes memory through the
  // dcache, and loops forever — so any mid-run capture point has live
  // state in every component.
  std::unique_ptr<Cpu> BootLooper() {
    auto cpu = std::make_unique<Cpu>();
    AddSegments(*cpu);
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
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_TRUE(program->LoadInto(cpu->memory()).ok());
    cpu->Reset(program->entry);
    return cpu;
  }

  static void AddSegments(Cpu& cpu) {
    ASSERT_TRUE(cpu.memory()
                    .AddSegment({"code", 0, 0x4000, true, false, true,
                                 false})
                    .ok());
    ASSERT_TRUE(cpu.memory()
                    .AddSegment({"data", 0x10000, 0x4000, true, true,
                                 false, false})
                    .ok());
  }

  static void Step(Cpu& cpu, int count) {
    for (int i = 0; i < count; ++i) cpu.Step();
  }
};

TEST_F(CpuSnapshotTest, MidRunRoundTripIsBitExact) {
  auto cpu = BootLooper();
  Step(*cpu, 40);
  cpu->set_mar(0x1234);  // touch the latches too
  cpu->set_mdr(0x5678);
  const CpuState saved = cpu->CaptureState();
  EXPECT_GT(saved.instret, 0u);
  EXPECT_FALSE(saved.emitted.empty());

  Step(*cpu, 25);  // drift every component away from the capture point
  ASSERT_TRUE(cpu->RestoreState(saved).ok());
  ExpectCpuStateEq(cpu->CaptureState(), saved);
}

TEST_F(CpuSnapshotTest, RestoredCpuContinuesIdenticallyToTheOriginalRun) {
  // The fork property itself: run A to t, capture; run A to t+n and
  // record its state; restore t onto a *fresh* instance B and step n —
  // B must land on exactly A's state.
  auto original = BootLooper();
  Step(*original, 30);
  const CpuState at_t = original->CaptureState();
  Step(*original, 50);
  const CpuState at_t_plus_n = original->CaptureState();

  auto forked = std::make_unique<Cpu>();
  AddSegments(*forked);
  ASSERT_TRUE(forked->RestoreState(at_t).ok());
  Step(*forked, 50);
  ExpectCpuStateEq(forked->CaptureState(), at_t_plus_n);
}

TEST_F(CpuSnapshotTest, RestoreRejectsForeignCacheGeometry) {
  auto cpu = BootLooper();
  Step(*cpu, 10);
  const CpuState saved = cpu->CaptureState();

  CpuConfig other;
  other.icache_geometry.lines = cpu->config().icache_geometry.lines * 2;
  Cpu mismatched(other);
  AddSegments(mismatched);
  EXPECT_FALSE(mismatched.RestoreState(saved).ok());
}

TEST_F(CpuSnapshotTest, ScanChainImageMatchesAfterRestore) {
  // What the scan chain reads (every internal-chain element: registers,
  // pc, ir, watchdog, cache arrays...) must be identical on the
  // restored CPU — SCIFI injection on a forked run then behaves exactly
  // as on a replayed one.
  auto original = BootLooper();
  Step(*original, 35);
  const CpuState saved = original->CaptureState();
  const ScanChainSet chains = BuildThorRdScanChains(*original);

  auto restored = std::make_unique<Cpu>();
  AddSegments(*restored);
  ASSERT_TRUE(restored->RestoreState(saved).ok());
  for (const ScanChain& chain : chains.chains) {
    EXPECT_EQ(chain.Capture(*original), chain.Capture(*restored))
        << chain.name();
  }
}

// ---- TapController ----------------------------------------------------

TEST(TapSnapshotTest, MidShiftRoundTripReplaysIdentically) {
  Cpu cpu;
  const ScanChainSet chains = BuildThorRdScanChains(cpu);
  TapController tap(&chains, &cpu);
  tap.Reset();
  tap.Clock(false, false);  // -> Run-Test/Idle
  tap.LoadInstruction(TapInstruction::kScanInternal);

  // Walk into Shift-DR and shift a prefix so the capture lands mid-FSM
  // with a partially rotated shift register.
  tap.Clock(true, false);   // Select-DR-Scan
  tap.Clock(false, false);  // Capture-DR
  tap.Clock(false, false);  // -> Shift-DR
  for (int i = 0; i < 17; ++i) tap.Clock(false, i % 3 == 0);
  ASSERT_EQ(tap.state(), TapState::kShiftDr);
  const TapControllerState saved = tap.CaptureState();

  // Reference continuation: 64 more shift clocks' worth of TDO.
  std::vector<bool> reference;
  for (int i = 0; i < 64; ++i) reference.push_back(tap.Clock(false, false));

  // Rewind via Restore and replay: the TDO stream and the final FSM
  // position must be identical, bit for bit and cycle for cycle.
  tap.RestoreState(saved);
  EXPECT_EQ(tap.state(), TapState::kShiftDr);
  EXPECT_EQ(tap.instruction(), TapInstruction::kScanInternal);
  EXPECT_EQ(tap.tck_cycles(), saved.tck_cycles);
  std::vector<bool> replayed;
  for (int i = 0; i < 64; ++i) replayed.push_back(tap.Clock(false, false));
  EXPECT_EQ(replayed, reference);

  const TapControllerState end = tap.CaptureState();
  EXPECT_EQ(end.state, TapState::kShiftDr);
  EXPECT_EQ(end.tck_cycles, saved.tck_cycles + 64);
}

TEST(TapSnapshotTest, CaptureCarriesShiftRegisterAndCycleCount) {
  Cpu cpu;
  const ScanChainSet chains = BuildThorRdScanChains(cpu);
  TapController tap(&chains, &cpu);
  tap.Reset();
  tap.Clock(false, false);
  tap.LoadInstruction(TapInstruction::kScanBoundary);
  const TapControllerState saved = tap.CaptureState();
  EXPECT_EQ(saved.instruction, TapInstruction::kScanBoundary);
  EXPECT_GT(saved.tck_cycles, 0u);

  // Drift, restore, and verify every captured field came back.
  tap.Reset();
  tap.Clock(false, false);
  tap.LoadInstruction(TapInstruction::kIdcode);
  tap.RestoreState(saved);
  const TapControllerState back = tap.CaptureState();
  EXPECT_EQ(back.state, saved.state);
  EXPECT_EQ(back.instruction, saved.instruction);
  EXPECT_EQ(back.ir_shift, saved.ir_shift);
  EXPECT_EQ(back.dr_shift, saved.dr_shift);
  EXPECT_EQ(back.dr_length, saved.dr_length);
  EXPECT_EQ(back.tck_cycles, saved.tck_cycles);
}

// ---- AccessPathInjector -----------------------------------------------

void ExpectFaultInjectorStateEq(const FaultInjectorState& a,
                                const FaultInjectorState& b) {
  EXPECT_EQ(a.armed, b.armed);
  EXPECT_EQ(a.unit_accesses, b.unit_accesses);
  EXPECT_EQ(a.applied, b.applied);
  EXPECT_EQ(a.inflight_flips, b.inflight_flips);
}

TEST(FaultInjectorSnapshotTest, RoundTripIsBitExact) {
  AccessPathInjector injector;
  // Advance the unit counters so the capture holds non-trivial values.
  injector.PostWrite(MemUnit::kMainMemory, nullptr, 0x40, 1);
  injector.PostWrite(MemUnit::kMainMemory, nullptr, 0x44, 2);
  (void)injector.PreRead(MemUnit::kMainMemory, nullptr, 0x40,
                         AccessKind::kRead);

  ArmedCacheFault transient;
  transient.unit = MemUnit::kDcache;
  transient.array = CacheArray::kData;
  transient.set = 3;
  transient.word = 1;
  transient.bit = 17;
  injector.Arm(transient);
  ArmedCacheFault permanent;
  permanent.unit = MemUnit::kIcache;
  permanent.array = CacheArray::kTag;
  permanent.set = 7;
  permanent.bit = 2;
  permanent.kind = ArmedFaultKind::kPermanentStuckAt;
  permanent.stuck_to_one = true;
  injector.Arm(permanent);

  const FaultInjectorState saved = injector.CaptureState();
  EXPECT_EQ(saved.armed.size(), 2u);
  EXPECT_GT(saved.unit_accesses[static_cast<std::size_t>(
                MemUnit::kMainMemory)],
            0u);

  // Drift everything: more accesses, then wipe the armed list.
  injector.PostWrite(MemUnit::kMainMemory, nullptr, 0x48, 3);
  injector.Reset();
  injector.RestoreState(saved);
  ExpectFaultInjectorStateEq(injector.CaptureState(), saved);
}

TEST(FaultInjectorSnapshotTest, MidWindowCaptureForksIdentically) {
  // The checkpoint-fork property on the access path: capture while a
  // fault is armed but not yet applied, fork onto fresh hardware, and
  // the continuation must corrupt exactly the same accesses as the
  // original run — values, parity alarms and counters, bit for bit.
  Memory memory;
  ASSERT_TRUE(
      memory.AddSegment({"ram", 0, 0x10000, true, true, true, false}).ok());
  for (std::uint32_t address = 0; address < 0x400; address += 4) {
    ASSERT_TRUE(memory.PokeWord(address, address * 5 + 3));
  }
  Cache cache({4, 4, 24});
  AccessPathInjector injector;
  cache.set_fault_injector(&injector, MemUnit::kDcache);

  auto read = [&memory](Cache& target, std::uint32_t address,
                        std::pair<std::uint32_t, bool>* out) {
    std::uint32_t value = 0;
    bool parity = false;
    ASSERT_EQ(target.ReadWord(memory, address, &value, AccessKind::kRead,
                              &parity),
              MemFault::kNone);
    *out = {value, parity};
  };

  // Warm up, then arm an intermittent fault whose window extends well
  // past the capture point.
  std::pair<std::uint32_t, bool> sample;
  read(cache, 0x10, &sample);
  read(cache, 0x20, &sample);
  ArmedCacheFault fault;
  fault.unit = MemUnit::kDcache;
  fault.array = CacheArray::kData;
  fault.set = 1;
  fault.word = 0;
  fault.bit = 9;
  fault.kind = ArmedFaultKind::kIntermittent;
  fault.period = 3;
  fault.remaining = 4;
  injector.Arm(fault);
  read(cache, 0x10, &sample);  // application 1 of 4: mid-window now

  const CacheState cache_saved = cache.CaptureState();
  const FaultInjectorState injector_saved = injector.CaptureState();
  ASSERT_EQ(injector_saved.armed.size(), 1u);
  EXPECT_EQ(injector_saved.armed[0].remaining, 3u);

  // Original continuation.
  const std::vector<std::uint32_t> addresses = {0x10, 0x14, 0x10, 0x20,
                                                0x10, 0x10, 0x30, 0x10,
                                                0x10, 0x10};
  std::vector<std::pair<std::uint32_t, bool>> original;
  for (const std::uint32_t address : addresses) {
    std::pair<std::uint32_t, bool> result;
    read(cache, address, &result);
    original.push_back(result);
  }
  const FaultInjectorState original_end = injector.CaptureState();

  // Fork onto a fresh cache + injector pair and replay.
  Cache forked_cache({4, 4, 24});
  AccessPathInjector forked_injector;
  forked_cache.set_fault_injector(&forked_injector, MemUnit::kDcache);
  ASSERT_TRUE(forked_cache.RestoreState(cache_saved).ok());
  forked_injector.RestoreState(injector_saved);
  std::vector<std::pair<std::uint32_t, bool>> forked;
  for (const std::uint32_t address : addresses) {
    std::pair<std::uint32_t, bool> result;
    read(forked_cache, address, &result);
    forked.push_back(result);
  }

  EXPECT_EQ(forked, original);
  ExpectFaultInjectorStateEq(forked_injector.CaptureState(), original_end);
}

TEST(FaultInjectorSnapshotTest, SnapshotCarriesTheInjectorField) {
  // The aggregate Snapshot round-trips the injector sub-state like any
  // other component (targets fill it in CaptureSnapshot).
  AccessPathInjector injector;
  ArmedCacheFault fault;
  fault.unit = MemUnit::kIcache;
  fault.array = CacheArray::kInflight;
  fault.set = 2;
  fault.word = 3;
  fault.bit = 31;
  injector.Arm(fault);

  Snapshot snapshot;
  snapshot.injector = injector.CaptureState();
  const Snapshot copied = snapshot;  // snapshots pass by value to workers
  ASSERT_TRUE(copied.injector.has_value());
  injector.Reset();
  injector.RestoreState(*copied.injector);
  ASSERT_EQ(injector.armed().size(), 1u);
  fault.next_access = 1;  // Arm() scheduled it for the next unit access
  EXPECT_EQ(injector.armed()[0], fault);
}

}  // namespace
}  // namespace goofi::sim
