// Per-access fault injection on the memory hierarchy's access path.
//
// Every existing fault model mutates *architectural* state (registers,
// memory images, scan chains) while the target is stopped. This seam
// instead follows Sniper's FaultInjector interface: the caches and the
// memory image call PreRead/PostWrite hooks on every word access, and an
// installed injector mutates the *microarchitectural* arrays (cache
// data/tag/parity bits) or the in-flight value itself while the workload
// runs. The distinction matters for EDM coverage: a data-array flip
// leaves the stored parity stale and is caught on the next read hit,
// while an in-flight flip happens after the parity check and escapes —
// exactly the detected/escaped split the paper's outcome taxonomy
// (section 3.4) measures.
//
// PreRead runs after the alignment check and *before* hit determination,
// so a tag flip can turn the access into a miss and a data flip is seen
// by that same read's parity check. Its return value is an XOR mask
// applied to the loaded word *after* the parity check — the in-flight
// path that no array-level EDM can observe. PostWrite runs after the
// write-through (and resident-line update), which is where permanent
// stuck-at bits get re-pinned.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/memory.h"

namespace goofi::sim {

class Cache;  // sim/cache.h

// Which unit of the hierarchy an access (or an armed fault) belongs to.
enum class MemUnit : std::uint32_t {
  kIcache = 0,
  kDcache = 1,
  kMainMemory = 2,
};
inline constexpr std::size_t kMemUnitCount = 3;

// Which physical array of a cache a fault lands in. kInflight is not an
// array at all: it corrupts the value on the wires, post-parity-check.
enum class CacheArray : std::uint32_t {
  kData = 0,
  kTag = 1,
  kParity = 2,
  kInflight = 3,
};

// Temporal behavior, mirroring target::FaultModel::Kind without a
// layering cycle (sim must not depend on target).
enum class ArmedFaultKind : std::uint32_t {
  kTransient = 0,        // applies once, then disarms
  kIntermittent = 1,     // re-applies every `period` unit accesses
  kPermanentStuckAt = 2, // re-pinned on every access to the unit
};

// One armed fault, in (unit, array, set, word, bit) coordinates taken
// from the real cache geometry. For MemUnit::kMainMemory only kInflight
// is meaningful and `set` holds the word-aligned byte address (memory
// has no arrays the access path can reach). Plain data so it snapshots
// verbatim (FaultInjectorState below) and forked runs replay the armed
// window bit-exactly.
struct ArmedCacheFault {
  MemUnit unit = MemUnit::kDcache;
  CacheArray array = CacheArray::kData;
  std::uint32_t set = 0;
  std::uint32_t word = 0;  // ignored for kTag
  std::uint32_t bit = 0;
  ArmedFaultKind kind = ArmedFaultKind::kTransient;
  bool stuck_to_one = false;      // kPermanentStuckAt polarity
  std::uint64_t period = 0;       // kIntermittent: accesses between hits
  std::uint32_t remaining = 1;    // transient/intermittent uses left
  // Unit-access count at or after which the fault next applies
  // (bookkeeping, maintained by the injector).
  std::uint64_t next_access = 0;

  friend bool operator==(const ArmedCacheFault&,
                         const ArmedCacheFault&) = default;
};

// The access-path injector's armed faults, access counters and tallies.
// Armed faults are part of the run state: a checkpoint taken with a
// fault armed mid-window must fork into a continuation whose remaining
// applications land on exactly the same accesses as replay-from-reset.
// The injector runs on this struct, so a snapshot is a copy of it.
struct FaultInjectorState {
  std::vector<ArmedCacheFault> armed;
  std::array<std::uint64_t, kMemUnitCount> unit_accesses{};
  std::uint64_t applied = 0;
  std::uint64_t inflight_flips = 0;

  friend bool operator==(const FaultInjectorState&,
                         const FaultInjectorState&) = default;
};

// The access-path hook interface (Sniper's preRead/postWrite shape).
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  // Called on every word read through `unit` (cache reads: after the
  // alignment check, before hit determination; memory reads: before the
  // value is returned). `cache` is the accessed cache, or nullptr for
  // main memory. Returns an XOR mask the caller applies to the loaded
  // word after its own EDM checks.
  virtual std::uint32_t PreRead(MemUnit unit, Cache* cache,
                                std::uint32_t address, AccessKind kind) = 0;

  // Called on every word written through `unit`, after the write-through
  // and any resident-line update.
  virtual void PostWrite(MemUnit unit, Cache* cache, std::uint32_t address,
                         std::uint32_t value) = 0;
};

// The concrete injector the CacheHierarchyTarget installs: holds a list
// of armed faults and realizes them on the access path. Deterministic —
// application depends only on the armed list and the access stream, so
// serial, sharded, and checkpoint-forked runs stay byte-identical.
class AccessPathInjector : public FaultInjector {
 public:
  // Arms a fault; it starts applying on the next access to its unit.
  void Arm(ArmedCacheFault fault);
  void ClearFaults() { state_.armed.clear(); }

  // Back to power-on: no armed faults, all counters zero (the target's
  // initTestCard calls this so experiments cannot leak faults into the
  // next run).
  void Reset() { state_ = FaultInjectorState{}; }

  const std::vector<ArmedCacheFault>& armed() const { return state_.armed; }
  std::uint64_t applied_count() const { return state_.applied; }
  std::uint64_t inflight_flip_count() const { return state_.inflight_flips; }
  std::uint64_t unit_access_count(MemUnit unit) const {
    return state_.unit_accesses[static_cast<std::size_t>(unit)];
  }

  std::uint32_t PreRead(MemUnit unit, Cache* cache, std::uint32_t address,
                        AccessKind kind) override;
  void PostWrite(MemUnit unit, Cache* cache, std::uint32_t address,
                 std::uint32_t value) override;

  // Checkpoint support (sim/snapshot.h): armed faults and access
  // counters round-trip so a snapshot taken with a fault armed
  // mid-window forks into an identical continuation.
  FaultInjectorState CaptureState() const { return state_; }
  void RestoreState(const FaultInjectorState& state) { state_ = state; }
  // The armed faults and access counters equal `state`'s: the state
  // that decides which later accesses a fault strikes. The applied and
  // in-flight tallies are statistics and are not compared.
  bool MatchesState(const FaultInjectorState& state) const {
    return state_.armed == state.armed &&
           state_.unit_accesses == state.unit_accesses;
  }

 private:
  // Applies `fault` to the arrays of `cache` (or the in-flight mask for
  // kInflight / main-memory faults). Returns the XOR mask contribution.
  std::uint32_t Apply(const ArmedCacheFault& fault, MemUnit unit,
                      Cache* cache, std::uint32_t address, bool is_read);
  std::uint32_t OnAccess(MemUnit unit, Cache* cache, std::uint32_t address,
                         bool is_read);

  FaultInjectorState state_;
};

}  // namespace goofi::sim
