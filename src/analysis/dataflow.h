// Classic dataflow analyses over analysis::Cfg, feeding the static
// pre-run fault-list pruning (StaticLiveness) and the workload linter.
//
// All three analyses widen at the Cfg's declared widening points
// (has_indirect_successor, falls_off_image, and the trap handler's
// entry, whose machine context is the interrupted program's): results
// stay conservative — liveness over-approximates, definite assignment
// and constant propagation under-approximate — so clients never prune
// or diagnose based on an unsound fact.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "analysis/cfg.h"

namespace goofi::analysis {

// Backward register liveness. A register is live at pc when some path
// from pc reads it before any write. Bit N = rN; bit 0 (r0) is never
// set. This intentionally mirrors the *dynamic* liveness of the def-use
// index (analysis/equivalence.h) — the value the program will still read —
// and must over-approximate it on every fault-free run (the superset
// invariant checked by core::CrossCheckWorkload).
struct LivenessResult {
  // live-in mask per reachable instruction address.
  std::map<std::uint32_t, std::uint16_t> live_in;
  // Union of all live-in masks: registers that are live anywhere.
  std::uint16_t ever_live = 0;
};
LivenessResult ComputeLiveness(const Cfg& cfg);

// Forward definitely-assigned analysis (reaching definitions collapsed
// to "was there one on every path"). Reads of registers that some path
// reaches without any prior write are reported. Registers reset to
// zero, so these are lint warnings, not undefined behaviour.
struct MaybeUninitRead {
  std::uint32_t pc = 0;
  std::uint8_t reg = 0;
};
std::vector<MaybeUninitRead> FindMaybeUninitReads(const Cfg& cfg);

// Backward first-use analysis: for each reachable pc and register, the
// set of instruction addresses at which the value `reg` holds on entry
// to pc may be *first read* (before any redefinition), over all paths.
// This refines liveness from "will some path read it?" to "which
// instruction consumes it?" — the static counterpart of the dynamic
// def-use intervals analysis::FaultSpacePartition builds from the
// access trace, and the superset side of the first-use crosscheck
// (core/crosscheck.h): every dynamically observed first use must be in
// the static may-first-use set at every pc of its interval.
//
// The per-(pc, reg) sets are capped at kMaxTrackedUses and widen to
// "unknown" (any read possible) beyond the cap and at the Cfg's
// declared widening points, mirroring ComputeLiveness.
struct FirstUseResult {
  static constexpr std::size_t kMaxTrackedUses = 16;

  struct UseSet {
    bool unknown = false;             // widened: any read is possible
    std::vector<std::uint32_t> pcs;   // sorted, <= kMaxTrackedUses

    bool Contains(std::uint32_t pc) const;
  };

  // Per reachable instruction address: one UseSet per register (index
  // 1..15; r0 stays empty).
  std::map<std::uint32_t, std::array<UseSet, 16>> first_use_in;

  // True when the value of `reg` entering `def_pc` may be first read at
  // `use_pc`. Conservatively true for pcs the analysis has no entry for.
  bool MayFirstUseAt(std::uint8_t reg, std::uint32_t def_pc,
                     std::uint32_t use_pc) const;
};
FirstUseResult ComputeFirstUses(const Cfg& cfg);

// Memory-word def/use summary for statically addressable loads and
// stores, by intra-procedural constant propagation of register values
// (LUI/ALU chains; calls widen unless returns are resolved). STB counts
// as a read *and* a write of its word: the untouched bytes stay live.
struct MemoryAccess {
  std::uint32_t pc = 0;
  bool is_store = false;
  bool is_byte = false;
  // Byte address when statically known on every path to `pc`.
  std::optional<std::uint32_t> address;
};
struct MemorySummary {
  // One entry per reachable load/store instruction, keyed by pc.
  std::map<std::uint32_t, MemoryAccess> accesses;
  // Word-aligned addresses of known-address reads/writes.
  std::set<std::uint32_t> read_words;
  std::set<std::uint32_t> written_words;
  // Some load/store address could not be resolved: word-level clients
  // must widen (any word may be read / written).
  bool has_unknown_load = false;
  bool has_unknown_store = false;
};
MemorySummary ComputeMemorySummary(const Cfg& cfg);

}  // namespace goofi::analysis
