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
  speed_ = kInitialSpeed;
  step_ = 0;
  outputs_.clear();
  (void)memory.PokeWord(kIoBase + kIoInOffset,
                        static_cast<std::uint32_t>(speed_));
  (void)memory.PokeWord(kIoBase + kIoOutOffset, 0);
  (void)memory.PokeWord(kIoBase + kIoIterOffset, 0);
}

bool EngineEnvironment::OnIterationEnd(sim::Memory& memory) {
  const std::uint32_t actuator = PeekIoWord(memory, kIoOutOffset);
  outputs_.push_back(actuator);
  ++step_;

  // Square-wave load: alternates every 8 iterations, so the controller
  // keeps getting re-excited over the 40-iteration mission.
  const std::int32_t load =
      kBaseLoad + ((step_ / 8) % 2 == 0 ? 0 : kLoadSwing);
  // First-order shaft dynamics, integer arithmetic for determinism.
  const std::int32_t thrust =
      static_cast<std::int32_t>(actuator & 0xffff) - load - speed_ / 8;
  speed_ += thrust / 4;
  speed_ = std::clamp(speed_, 0, kMaxSpeed);

  (void)memory.PokeWord(kIoBase + kIoInOffset,
                        static_cast<std::uint32_t>(speed_));
  (void)memory.PokeWord(kIoBase + kIoIterOffset,
                        static_cast<std::uint32_t>(step_));
  return true;
}

namespace {

void AppendWord64(std::vector<std::uint8_t>* blob, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    blob->push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

std::uint64_t ReadWord64(const std::vector<std::uint8_t>& blob,
                         std::size_t offset) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(blob[offset + i]) << (8 * i);
  }
  return value;
}

}  // namespace

Status Environment::RestoreState(const std::vector<std::uint8_t>& blob) {
  if (!blob.empty()) {
    return UnimplementedError(
        "environment '" + name() + "' does not implement RestoreState");
  }
  return Status::Ok();
}

std::vector<std::uint8_t> EngineEnvironment::CaptureState() const {
  // Little-endian: speed, step, output count, outputs. The IO page the
  // plant exchanges through lives in target memory and is restored with
  // the CPU's memory image, not here.
  std::vector<std::uint8_t> blob;
  AppendWord64(&blob, static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(speed_)));
  AppendWord64(&blob, step_);
  AppendWord64(&blob, outputs_.size());
  for (const std::uint32_t output : outputs_) {
    AppendWord64(&blob, output);
  }
  return blob;
}

Status EngineEnvironment::RestoreState(
    const std::vector<std::uint8_t>& blob) {
  if (blob.size() < 24 || blob.size() != 24 + 8 * ReadWord64(blob, 16)) {
    return InvalidArgumentError("malformed engine environment snapshot");
  }
  speed_ = static_cast<std::int32_t>(
      static_cast<std::int64_t>(ReadWord64(blob, 0)));
  step_ = ReadWord64(blob, 8);
  outputs_.clear();
  const std::uint64_t count = ReadWord64(blob, 16);
  outputs_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    outputs_.push_back(
        static_cast<std::uint32_t>(ReadWord64(blob, 24 + 8 * i)));
  }
  return Status::Ok();
}

bool EngineEnvironment::MatchesState(const std::vector<std::uint8_t>& blob,
                                     std::size_t outputs_from) const {
  if (blob.size() != 24 + 8 * outputs_.size() ||
      ReadWord64(blob, 0) != static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(speed_)) ||
      ReadWord64(blob, 8) != step_ || ReadWord64(blob, 16) != outputs_.size()) {
    return false;
  }
  for (std::size_t i = outputs_from; i < outputs_.size(); ++i) {
    if (ReadWord64(blob, 24 + 8 * i) != outputs_[i]) return false;
  }
  return true;
}

Result<std::unique_ptr<Environment>> MakeEnvironment(
    const std::string& name) {
  if (name == "engine") {
    return std::unique_ptr<Environment>(new EngineEnvironment());
  }
  return NotFoundError("no environment model named '" + name + "'");
}

}  // namespace goofi::target
