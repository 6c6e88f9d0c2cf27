#include "target/framework_target.h"

#include <algorithm>
#include <memory>

namespace goofi::target {
namespace {

// The workload sums 1..kDuration into counter0, so this is the largest
// value it can legally hold; anything above it is a detected error.
constexpr std::uint32_t kCounterCeiling = 64 * 65 / 2;

}  // namespace

const std::string& FrameworkTarget::target_name() const {
  static const std::string kName = "framework";
  return kName;
}

std::vector<TargetSystemInterface::LocationInfo>
FrameworkTarget::ListLocations() const {
  std::vector<LocationInfo> locations;
  for (unsigned i = 0; i < kCounters; ++i) {
    LocationInfo info;
    info.kind = LocationInfo::Kind::kScanElement;
    info.name = "counter" + std::to_string(i);
    info.chain = "internal";
    info.width_bits = 32;
    info.writable = true;
    info.category = "reg";
    locations.push_back(std::move(info));
  }
  LocationInfo id;
  id.kind = LocationInfo::Kind::kScanElement;
  id.name = "machine_id";
  id.chain = "internal";
  id.width_bits = 32;
  id.writable = false;
  id.category = "status";
  locations.push_back(std::move(id));
  return locations;
}

void FrameworkTarget::StepUntil(std::uint64_t until) {
  while (time_ < std::min(until, kDuration) && !detected_) {
    ++time_;
    counters_[0] += static_cast<std::uint32_t>(time_);
    counters_[1] ^= counters_[0];
    counters_[2] = (counters_[2] << 1 | counters_[2] >> 31) + 1;
    counters_[3] = counters_[0] + counters_[1] + counters_[2];
    if (counters_[0] > kCounterCeiling) detected_ = true;
  }
}

Status FrameworkTarget::initTestCard() {
  for (auto& counter : counters_) counter = 0;
  time_ = 0;
  detected_ = false;
  snapshot_ = BitVector();
  return Status::Ok();
}

Status FrameworkTarget::loadWorkload() { return Status::Ok(); }

Status FrameworkTarget::writeMemory() { return Status::Ok(); }

Status FrameworkTarget::runWorkload() {
  if (start_snapshot_ != nullptr) {
    // Fork from the installed golden checkpoint: initTestCard already
    // zeroed the machine, exactly like a replay before this time step.
    return RestoreSnapshot(*start_snapshot_);
  }
  return Status::Ok();
}

Status FrameworkTarget::waitForBreakpoint() {
  StepUntil(spec_.trigger.count);
  observation_.stop_reason = time_ < kDuration && !detected_
                                 ? sim::StopReason::kBreakpoint
                                 : sim::StopReason::kHalted;
  return Status::Ok();
}

Status FrameworkTarget::readScanChain() {
  BitVector image((kCounters + 1) * 32);
  for (unsigned i = 0; i < kCounters; ++i) {
    image.SetField(i * 32u, 32, counters_[i]);
  }
  image.SetField(kCounters * 32u, 32, kMachineId);
  observation_.chain_images["internal"] = image;
  snapshot_ = std::move(image);
  return Status::Ok();
}

Status FrameworkTarget::injectFault() {
  if (observation_.stop_reason != sim::StopReason::kBreakpoint &&
      spec_.technique != Technique::kSwifiPreRuntime) {
    // The workload finished before the trigger; nothing to corrupt.
    return Status::Ok();
  }
  for (const FaultTarget& fault : spec_.targets) {
    if (fault.location == "machine_id") {
      return TargetFaultError("machine_id is observe-only");
    }
    if (fault.location.size() != 8 ||
        fault.location.compare(0, 7, "counter") != 0) {
      return NotFoundError("no location named '" + fault.location + "'");
    }
    const unsigned index =
        static_cast<unsigned>(fault.location[7] - '0');
    if (index >= kCounters) {
      return NotFoundError("no location named '" + fault.location + "'");
    }
    if (fault.bit >= 32) {
      return OutOfRangeError("bit out of range for " + fault.location);
    }
    if (snapshot_.size() != 0) {
      // SCIFI: corrupt the captured image; writeScanChain applies it.
      snapshot_.Flip(index * 32u + fault.bit);
    } else {
      // The SWIFI variants skip the chain read: flip the live state.
      counters_[index] ^= 1u << fault.bit;
    }
  }
  observation_.fault_was_injected = !spec_.targets.empty();
  return Status::Ok();
}

Status FrameworkTarget::writeScanChain() {
  if (snapshot_.size() == 0) return Status::Ok();
  for (unsigned i = 0; i < kCounters; ++i) {
    counters_[i] =
        static_cast<std::uint32_t>(snapshot_.GetField(i * 32u, 32));
  }
  return Status::Ok();
}

Status FrameworkTarget::waitForTermination() {
  if (checkpoint_sink_ != nullptr) {
    // A recording reference run stops at every stride boundary the
    // machine reaches still running, to capture it.
    const std::uint64_t stride = checkpoint_sink_->stride;
    for (;;) {
      ASSIGN_OR_RETURN(sim::Snapshot snapshot, CaptureSnapshot());
      checkpoint_sink_->boundaries.push_back(
          {std::make_shared<const sim::Snapshot>(std::move(snapshot)), {}});
      const std::uint64_t boundary = time_ + (stride - time_ % stride);
      if (boundary >= kDuration) break;
      StepUntil(boundary);
      if (detected_) break;
    }
  }
  StepUntil(kDuration);
  observation_.stop_reason =
      detected_ ? sim::StopReason::kEdm : sim::StopReason::kHalted;
  if (detected_) {
    sim::EdmEvent edm;
    edm.type = sim::EdmType::kAssertion;
    edm.time = time_;
    observation_.edm = edm;
  }
  observation_.instructions = time_;
  return Status::Ok();
}

Status FrameworkTarget::readMemory() {
  observation_.emitted = {counters_[0], counters_[3]};
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Checkpoint-fork support. The machine state fits in a fixed-size blob:
// the four counters, the time step and the detection flag. The SCIFI
// working image (snapshot_) is scratch between readScanChain and
// writeScanChain — it is always empty at checkpoint and fork points.
// ---------------------------------------------------------------------

Result<sim::Snapshot> FrameworkTarget::CaptureSnapshot() {
  sim::Snapshot snapshot;
  snapshot.instret = time_;
  std::vector<std::uint8_t>& blob = snapshot.extras["framework"];
  auto append64 = [&blob](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      blob.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  };
  for (const std::uint32_t counter : counters_) append64(counter);
  append64(time_);
  append64(detected_ ? 1 : 0);
  return snapshot;
}

Status FrameworkTarget::RestoreSnapshot(const sim::Snapshot& snapshot) {
  const auto found = snapshot.extras.find("framework");
  if (found == snapshot.extras.end() ||
      found->second.size() != (kCounters + 2) * 8) {
    return InvalidArgumentError(
        "snapshot carries no framework machine state");
  }
  const std::vector<std::uint8_t>& blob = found->second;
  auto read64 = [&blob](std::size_t offset) {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(blob[offset + i]) << (8 * i);
    }
    return value;
  };
  for (unsigned i = 0; i < kCounters; ++i) {
    counters_[i] = static_cast<std::uint32_t>(read64(i * 8));
  }
  time_ = read64(kCounters * 8);
  detected_ = read64((kCounters + 1) * 8) != 0;
  snapshot_ = BitVector();
  return Status::Ok();
}

}  // namespace goofi::target
