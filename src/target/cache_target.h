// The cache-hierarchy target: the Thor RD board with fault injection
// moved *inside* the memory subsystem.
//
// Every other target mutates architectural state while the CPU is
// stopped. This one arms faults on the access path instead
// (sim/fault_injector.h): cache data/tag/parity array bits and in-flight
// load values, applied by PreRead/PostWrite hooks as the workload runs.
// The fault space enumerates (set, word, bit, array) coordinates from
// the real cache geometry and advertises them as writable scan elements
// on a synthetic "access_path" chain, so the unmodified campaign
// machinery — SCIFI reachability, location globs, instret triggers,
// checkpoint-fork eligibility, per-experiment RNG streams — drives the
// new fault models without change. That is the paper's genericity claim,
// and the target-agnostic conformance TEST_P suite proves it.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "sim/fault_injector.h"
#include "target/thor_rd_target.h"

namespace goofi::target {

// The four access-path fault models. The first three mutate a cache
// array (leaving derived state — stored parity — stale, which is what
// the parity EDM catches); the last corrupts the value on the wires
// after the parity check, the EDM's structural blind spot.
enum class CacheFaultModel {
  kDataBit,        // cache_data_bit:    data array flip  -> detected
  kTagBit,         // cache_tag_bit:     tag array flip   -> usually miss
  kParityBit,      // cache_parity_bit:  parity bit flip  -> false alarm
  kInflightLoadBit // inflight_load_bit: post-check flip  -> escapes
};

const char* CacheFaultModelName(CacheFaultModel model);
std::optional<CacheFaultModel> CacheFaultModelFromName(
    const std::string& name);

// The location-name glob selecting the coordinate family a model
// injects into (campaign runners narrow the sampled location space with
// it; goofi-lint checks filters against it).
const char* CacheFaultModelLocationGlob(CacheFaultModel model);

// Parses an access-path coordinate name —
//   (icache|dcache).set<N>.tag
//   (icache|dcache).set<N>.word<M>.(data|parity|inflight)
// — into an armed-fault prototype (unit/array/set/word; bit and the
// temporal kind come from the experiment spec). Returns nullopt for
// anything else, including the base target's scan-chain names.
std::optional<sim::ArmedCacheFault> ParseCacheCoordinate(
    const std::string& name);

class CacheHierarchyTarget : public ThorRdTarget {
 public:
  CacheHierarchyTarget() : CacheHierarchyTarget(TestCardOptions{}) {}
  explicit CacheHierarchyTarget(TestCardOptions options);

  // Base locations plus one coordinate per cache array bit group, from
  // the attached caches' real geometry.
  std::vector<LocationInfo> ListLocations() const override;

  // Snapshots additionally carry the injector's armed faults and access
  // counters, so a fork taken with a fault armed mid-window continues
  // bit-identically to replay-from-reset.
  Result<sim::Snapshot> CaptureSnapshot() override;
  Status RestoreSnapshot(const sim::Snapshot& snapshot) override;

  const sim::AccessPathInjector& injector() const { return injector_; }

 protected:
  Status initTestCard() override;
  // Arms access-path coordinates; every other location takes the base
  // target's dispatch.
  Status InjectFaultTarget(const FaultTarget& fault) override;
  // A run converges only once its armed faults and access counters are
  // the golden run's.
  bool ExtraStateMatches(const sim::Snapshot& golden) const override;

 private:
  Status ArmCacheFault(sim::ArmedCacheFault coordinate,
                       const FaultTarget& fault);

  sim::AccessPathInjector injector_;
};

std::unique_ptr<CacheHierarchyTarget> MakeCacheHierarchyTarget();

}  // namespace goofi::target
