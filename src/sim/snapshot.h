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
// Each component runs on the same struct its snapshot stores (CpuCore
// and CpuState in sim/cpu.h, CacheState in sim/cache.h, MemoryState in
// sim/memory.h, TapControllerState in sim/tap.h, FaultInjectorState in
// sim/fault_injector.h): CaptureState() is a copy of it and
// RestoreState() an assignment, after a geometry check (segment layout,
// cache shape) that fails loudly on a mismatch instead of silently
// corrupting the run. Targets aggregate the components into a Snapshot
// behind TargetSystemInterface.
//
// The golden run records a dense grid of snapshots, so the two parts
// that grow with the run are shared between them instead of copied:
// the memory image as immutable pages that consecutive captures share
// wherever the run did not store (sim/memory.h), and the emitted-word
// and environment-output histories as a length into one append-only
// storage (sim/word_log.h). Restoring either gives the live component
// a private copy, so forked runs never write into golden state.
#pragma once

#include <any>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "sim/cpu.h"
#include "sim/fault_injector.h"
#include "sim/tap.h"

namespace goofi::sim {

// One checkpoint of a target system. Components a target does not have
// stay empty. Target-specific state that has no sim component (an
// environment model, a counter machine) rides in `extras` as the
// target's own state struct, held by value under the target's key; a
// restore that finds no value there, or one of another type, fails with
// InvalidArgument.
struct Snapshot {
  // The golden run's instruction count at capture time — the key the
  // campaign runners use to pick the checkpoint nearest below a
  // trigger. Targets without an instruction counter use their own
  // monotonic time base.
  std::uint64_t instret = 0;
  std::optional<CpuState> cpu;
  std::optional<TapControllerState> tap;
  std::optional<FaultInjectorState> injector;
  std::map<std::string, std::any> extras;
};

}  // namespace goofi::sim
