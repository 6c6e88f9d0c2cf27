// Full simulator state snapshots: the substrate of checkpoint-fork
// experiment execution.
//
// Replaying a workload from reset up to the injection trigger dominates
// campaign wall-clock cost (the overhead the paper's pre-injection
// analysis was meant to shrink); ZOFI-style execution instead runs the
// golden reference once and starts each faulty run from saved state
// near the fault's firing point. A Snapshot is that saved state: every
// bit a fault model or EDM can observe — CPU architectural state, the
// parity-protected I/D cache arrays, the memory image, the TAP
// controller — captured as plain values so a snapshot taken on one
// simulator instance restores bit-exactly onto another (the parallel
// runner's factory-minted workers).
//
// Each component exposes CaptureState()/RestoreState() over its own
// sub-state struct; targets aggregate them into a Snapshot behind
// TargetSystemInterface. Restore validates geometry (segment layout,
// cache shape) and fails loudly on a mismatch instead of silently
// corrupting the run.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/access_recorder.h"
#include "sim/cache.h"
#include "sim/cpu.h"
#include "sim/fault_injector.h"
#include "sim/memory.h"
#include "sim/tap.h"
#include "util/bitvector.h"

namespace goofi::sim {

// Every array bit of one cache: valid/tag/data words and the stored
// parity bits (the scan-reachable fault locations), plus the running
// statistics so a restored run's counters match replay-from-reset.
struct CacheState {
  std::vector<CacheLine> lines;
  CacheStats stats;
};

// Segment contents by backing index; the segment map itself is part of
// the board's identity (test_card Initialize) and must already match.
struct MemoryState {
  std::vector<std::vector<std::uint8_t>> backings;
};

// The CPU's complete run state: architectural registers and latches,
// run-status counters, the emitted-output and EDM event logs, and the
// owned memory image and cache arrays. Post-step fault hooks, the
// tracer connection and the trap-handler configuration are driver-side
// wiring re-established by the target's run phases, not state.
struct CpuState {
  std::array<std::uint32_t, 16> regs{};
  std::uint32_t pc = 0;
  std::uint32_t ir = 0;
  std::uint32_t mar = 0;
  std::uint32_t mdr = 0;
  std::uint32_t wdt = 0;
  bool ir_valid = false;
  bool halted = false;
  std::uint64_t instret = 0;
  std::uint64_t iterations = 0;
  std::uint64_t recoveries = 0;
  std::vector<std::uint32_t> emitted;
  std::vector<EdmEvent> edm_events;
  MemoryState memory;
  CacheState icache;
  CacheState dcache;
};

// The TAP controller's FSM position and shift registers — a checkpoint
// taken between scan operations restores mid-campaign TAP state exactly.
struct TapControllerState {
  TapState state = TapState::kTestLogicReset;
  TapInstruction instruction = TapInstruction::kBypass;
  std::uint8_t ir_shift = 0;
  BitVector dr_shift;
  std::size_t dr_length = 1;
  std::uint64_t tck_cycles = 0;
};

// The access-path fault injector's armed faults and access counters
// (sim/fault_injector.h). Armed faults are part of the run state: a
// checkpoint taken with a fault armed mid-window must fork into a
// continuation whose remaining applications land on exactly the same
// accesses as replay-from-reset.
struct FaultInjectorState {
  std::vector<ArmedCacheFault> armed;
  std::array<std::uint64_t, kMemUnitCount> unit_accesses{};
  std::uint64_t applied = 0;
  std::uint64_t inflight_flips = 0;
};

// The pre-injection analysis tracer's event streams (analysis/equivalence
// builds its def-use index from these).
struct AccessRecorderState {
  std::array<std::vector<AccessEvent>, 16> reg_events;
  std::map<std::uint32_t, std::vector<AccessEvent>> mem_events;
  std::vector<std::uint32_t> pc_trace;
};

// One checkpoint of a target system. Components a target does not have
// stay empty; target-specific state that has no sim component (an
// environment model, a counter machine) rides in `extras` as opaque
// blobs keyed by the target's own names.
struct Snapshot {
  // The golden run's instruction count at capture time — the key the
  // campaign runners use to pick the checkpoint nearest below a
  // trigger. Targets without an instruction counter use their own
  // monotonic time base.
  std::uint64_t instret = 0;
  std::optional<CpuState> cpu;
  std::optional<TapControllerState> tap;
  std::optional<AccessRecorderState> recorder;
  std::optional<FaultInjectorState> injector;
  std::map<std::string, std::vector<std::uint8_t>> extras;
};

}  // namespace goofi::sim
