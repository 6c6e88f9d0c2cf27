#include "target/environment.h"

#include <algorithm>

#include "target/io_map.h"

namespace goofi::target {
namespace {

constexpr std::int32_t kInitialSpeed = 300;
constexpr std::int32_t kBaseLoad = 200;
constexpr std::int32_t kLoadSwing = 150;  // square-wave disturbance
constexpr std::int32_t kMaxSpeed = 4095;

std::uint32_t PeekIoWord(sim::Memory& memory, std::uint32_t offset) {
  std::uint32_t value = 0;
  (void)memory.PeekWord(kIoBase + offset, &value);
  return value;
}

}  // namespace

const std::string& EngineEnvironment::name() const {
  static const std::string kName = "engine";
  return kName;
}

void EngineEnvironment::Reset(sim::Memory& memory) {
  plant_ = Plant{kInitialSpeed, 0};
  outputs_.Clear();
  (void)memory.PokeWord(kIoBase + kIoInOffset,
                        static_cast<std::uint32_t>(plant_.speed));
  (void)memory.PokeWord(kIoBase + kIoOutOffset, 0);
  (void)memory.PokeWord(kIoBase + kIoIterOffset, 0);
}

bool EngineEnvironment::OnIterationEnd(sim::Memory& memory) {
  const std::uint32_t actuator = PeekIoWord(memory, kIoOutOffset);
  outputs_.Append(actuator);
  const std::uint64_t step = ++plant_.step;

  // Square-wave load: alternates every 8 iterations, so the controller
  // keeps getting re-excited over the 40-iteration mission.
  const std::int32_t load =
      kBaseLoad + ((step / 8) % 2 == 0 ? 0 : kLoadSwing);
  // First-order shaft dynamics, integer arithmetic for determinism.
  std::int32_t& speed = plant_.speed;
  const std::int32_t thrust =
      static_cast<std::int32_t>(actuator & 0xffff) - load - speed / 8;
  speed += thrust / 4;
  speed = std::clamp(speed, 0, kMaxSpeed);

  (void)memory.PokeWord(kIoBase + kIoInOffset,
                        static_cast<std::uint32_t>(speed));
  (void)memory.PokeWord(kIoBase + kIoIterOffset,
                        static_cast<std::uint32_t>(step));
  return true;
}

Status Environment::RestoreState(const std::any& state) {
  if (state.has_value()) {
    return UnimplementedError(
        "environment '" + name() + "' does not implement RestoreState");
  }
  return Status::Ok();
}

Status EngineEnvironment::RestoreState(const std::any& state) {
  const State* engine = std::any_cast<State>(&state);
  if (engine == nullptr) {
    return InvalidArgumentError(
        "snapshot carries no engine environment state");
  }
  plant_ = *engine;
  outputs_.Restore(engine->outputs);
  return Status::Ok();
}

bool EngineEnvironment::MatchesState(const std::any& state,
                                     std::size_t outputs_from) const {
  const State* golden = std::any_cast<State>(&state);
  return golden != nullptr && plant_ == *golden &&
         outputs_.MatchesFrom(golden->outputs, outputs_from);
}

Result<std::unique_ptr<Environment>> MakeEnvironment(
    const std::string& name) {
  if (name == "engine") {
    return std::unique_ptr<Environment>(new EngineEnvironment());
  }
  return NotFoundError("no environment model named '" + name + "'");
}

}  // namespace goofi::target
