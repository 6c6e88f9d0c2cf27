// The porting skeleton from the paper's Fig. 3.
//
// GOOFI is ported to a new target system by subclassing FrameworkTarget
// and overriding target_name(), ListLocations() and the ten abstract
// operations the fault-injection algorithms call (initTestCard,
// loadWorkload, writeMemory, runWorkload, waitForBreakpoint,
// readScanChain, injectFault, writeScanChain, waitForTermination,
// readMemory). See examples/port_new_target.cpp and the toy plugin in
// tests/core/plugins for complete ports.
//
// Unlike the paper's abstract skeleton, this base class is itself
// driveable: the default operations run a tiny deterministic counter
// machine, so the conformance suite can prove the template methods
// against the skeleton before any real target exists, and a port can
// override one operation at a time and stay runnable throughout.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "target/fault_injection_algorithms.h"

namespace goofi::target {

class FrameworkTarget : public TargetSystemInterface {
 public:
  const std::string& target_name() const override;

  // Four writable 32-bit counters on an "internal" chain plus one
  // observe-only identification register.
  std::vector<LocationInfo> ListLocations() const override;

  // Checkpoint-fork support for the skeleton's counter machine: its
  // Machine struct, held by value under the "framework" key of
  // sim::Snapshot::extras. A port that adds target state of its own
  // must override these three alongside the Fig. 3 operations — or
  // override SupportsCheckpointFork to return false until it does. The
  // golden run's boundaries are recorded by waitForTermination while a
  // recording sink is armed; a port that replaces it without recording
  // gets none, and its experiments replay from reset.
  bool SupportsCheckpointFork() const override { return true; }
  Result<sim::Snapshot> CaptureSnapshot() override;
  Status RestoreSnapshot(const sim::Snapshot& snapshot) override;

 protected:
  Status initTestCard() override;
  Status loadWorkload() override;
  Status writeMemory() override;
  Status runWorkload() override;
  Status waitForBreakpoint() override;
  Status readScanChain() override;
  Status injectFault() override;
  Status writeScanChain() override;
  Status waitForTermination() override;
  Status readMemory() override;

 private:
  static constexpr unsigned kCounters = 4;
  static constexpr std::uint64_t kDuration = 64;
  static constexpr std::uint32_t kMachineId = 0x600F1F03;

  // Advance the counter machine until `until` steps have elapsed, the
  // built-in range EDM fires, or the workload finishes.
  void StepUntil(std::uint64_t until);

  // The counter machine's whole run state: what a snapshot stores.
  struct Machine {
    std::array<std::uint32_t, kCounters> counters{};
    std::uint64_t time = 0;
    bool detected = false;
  };

  Machine machine_;
  BitVector snapshot_;
};

}  // namespace goofi::target
