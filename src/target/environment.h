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

#include <any>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/memory.h"
#include "sim/word_log.h"
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

  // Checkpoint support: a copy of the plant state, held by value in
  // sim::Snapshot::extras as the model's own state struct, and its
  // reinstatement. The defaults fit stateless environments: no value,
  // and a restore of no value is a no-op. A stateful model overrides
  // all three, and its RestoreState rejects a value that is missing or
  // of another type with InvalidArgument.
  virtual std::any CaptureState() const { return {}; }
  virtual Status RestoreState(const std::any& state);

  // Checkpoint fork's convergence test: the live plant equals `state`
  // (a CaptureState result), compared in place. The first
  // `outputs_from` outputs are known to be equal (both runs forked from
  // one snapshot) and are skipped.
  virtual bool MatchesState(const std::any& state,
                            std::size_t outputs_from) const {
    (void)outputs_from;
    return !state.has_value();
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
    return outputs_.words();
  }

  // The shaft speed and the exchange count. The plant runs on this
  // block, so a snapshot stores a copy of it and the convergence test
  // compares it with ==.
  struct Plant {
    std::int32_t speed = 0;
    std::uint64_t step = 0;

    friend bool operator==(const Plant&, const Plant&) = default;
  };
  // The plant's whole run state: the plant block and the actuator
  // history, a prefix of the model's log (sim/word_log.h), so the golden
  // run's captures share one history. The IO page the plant exchanges
  // through lives in target memory and is restored with the CPU's
  // memory image, not here.
  struct State : Plant {
    sim::WordLog::Prefix outputs;
  };

  std::int32_t speed() const { return plant_.speed; }

  std::any CaptureState() const override {
    return State{plant_, outputs_.Capture()};
  }
  Status RestoreState(const std::any& state) override;
  bool MatchesState(const std::any& state,
                    std::size_t outputs_from) const override;

 private:
  Plant plant_;
  sim::WordLog outputs_;
};

// Factory keyed by WorkloadSpec::environment ("engine").
Result<std::unique_ptr<Environment>> MakeEnvironment(
    const std::string& name);

}  // namespace goofi::target
