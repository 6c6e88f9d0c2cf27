// Plant models the target's control workloads run against.
//
// The paper's dependability benchmark is a jet-engine controller whose
// environment (the engine) must be simulated on the host: every
// iteration the workload reads sensor values from the IO IN page and
// writes actuator commands to the IO OUT page; the environment model
// advances the plant one step in between. The actuator stream it
// records is what the fail-silence analysis compares against the
// reference run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/memory.h"
#include "util/status.h"

namespace goofi::target {

class Environment {
 public:
  virtual ~Environment() = default;

  virtual const std::string& name() const = 0;

  // Reset the plant state and write the initial sensor values into the
  // IO IN page, before the workload's first iteration.
  virtual void Reset(sim::Memory& memory) = 0;

  // One exchange at an iteration boundary: read the actuator command
  // from the IO OUT page, advance the plant, write the new sensor
  // values to the IO IN page. Returns false to abort the mission.
  virtual bool OnIterationEnd(sim::Memory& memory) = 0;

  // Actuator command observed at each exchange so far.
  virtual const std::vector<std::uint32_t>& outputs() const = 0;

  // Checkpoint support: serialize the plant state into an opaque blob
  // (it rides in sim::Snapshot::extras) and reinstate it. The defaults
  // fit stateless environments — an empty blob that restores to a
  // no-op; stateful models must override both.
  virtual std::vector<std::uint8_t> CaptureState() const { return {}; }
  virtual Status RestoreState(const std::vector<std::uint8_t>& blob);

  // Checkpoint fork's convergence test: the live plant equals the one
  // `blob` (a CaptureState result) describes, compared in place. The
  // first `outputs_from` outputs are known to be equal (both runs
  // forked from one snapshot) and are skipped.
  virtual bool MatchesState(const std::vector<std::uint8_t>& blob,
                            std::size_t outputs_from) const {
    (void)outputs_from;
    return blob.empty();
  }
};

// First-order jet-engine model for the engine_control workloads: the
// shaft speed responds to the actuator (fuel) command against a
// square-wave load disturbance. Fully deterministic.
class EngineEnvironment : public Environment {
 public:
  const std::string& name() const override;
  void Reset(sim::Memory& memory) override;
  bool OnIterationEnd(sim::Memory& memory) override;
  const std::vector<std::uint32_t>& outputs() const override {
    return outputs_;
  }

  std::int32_t speed() const { return speed_; }

  std::vector<std::uint8_t> CaptureState() const override;
  Status RestoreState(const std::vector<std::uint8_t>& blob) override;
  bool MatchesState(const std::vector<std::uint8_t>& blob,
                    std::size_t outputs_from) const override;

 private:
  std::int32_t speed_ = 0;
  std::uint64_t step_ = 0;
  std::vector<std::uint32_t> outputs_;
};

// Factory keyed by WorkloadSpec::environment ("engine").
Result<std::unique_ptr<Environment>> MakeEnvironment(
    const std::string& name);

}  // namespace goofi::target
