#include "target/flaky_target.h"

#include <chrono>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "util/strings.h"

namespace goofi::target {

namespace {

constexpr std::uint64_t kNoIndex = std::numeric_limits<std::uint64_t>::max();

// Forwards every run to a real target, failing scripted attempts at
// the RunExperiment boundary — the simulated equivalent of the
// host<->test-card transport dying under the tool's feet.
class FlakyTarget : public TargetSystemInterface {
 public:
  FlakyTarget(std::unique_ptr<TargetSystemInterface> inner,
              std::shared_ptr<FlakyScript> script)
      : inner_(std::move(inner)), script_(std::move(script)) {}

  const std::string& target_name() const override {
    return inner_->target_name();
  }
  std::vector<LocationInfo> ListLocations() const override {
    return inner_->ListLocations();
  }
  Status SetWorkload(WorkloadSpec workload) override {
    return inner_->SetWorkload(std::move(workload));
  }

  Status MakeReferenceRun() override {
    SyncDriverState();
    return inner_->MakeReferenceRun();
  }

  Status RunExperiment() override {
    SyncDriverState();
    const std::uint64_t index = FlakyExperimentIndex(spec_.name);
    if (index != kNoIndex) {
      std::optional<FlakyFault> fault;
      {
        std::lock_guard<std::mutex> lock(script_->mutex);
        const std::uint32_t attempt = ++script_->attempts_seen[index];
        const auto always = script_->always.find(index);
        if (always != script_->always.end()) {
          fault = always->second;
        } else {
          const auto scripted = script_->faults.find({index, attempt});
          if (scripted != script_->faults.end()) fault = scripted->second;
        }
      }
      if (fault.has_value()) return InjectScriptedFault(*fault);
    }
    return inner_->RunExperiment();
  }

  Observation TakeObservation() override {
    return inner_->TakeObservation();
  }

  // Checkpoint-fork plumbing is pure pass-through: scripted transport
  // faults strike whole runs, so the inner target owns all snapshots.
  bool SupportsCheckpointFork() const override {
    return inner_->SupportsCheckpointFork();
  }
  Result<sim::Snapshot> CaptureSnapshot() override {
    return inner_->CaptureSnapshot();
  }
  Status RestoreSnapshot(const sim::Snapshot& snapshot) override {
    return inner_->RestoreSnapshot(snapshot);
  }
  void set_checkpoint_recording(std::uint64_t stride,
                                GoldenRun* sink) override {
    inner_->set_checkpoint_recording(stride, sink);
  }
  void set_start_snapshot(
      std::shared_ptr<const sim::Snapshot> snapshot) override {
    inner_->set_start_snapshot(std::move(snapshot));
  }
  void set_golden_run(std::shared_ptr<const GoldenRun> golden) override {
    inner_->set_golden_run(std::move(golden));
  }
  Convergence convergence() const override { return inner_->convergence(); }

 protected:
  // Never reached: the public template methods above forward to the
  // inner target wholesale, so the Fig. 3 sequence runs there.
  Status initTestCard() override { return Unreachable(); }
  Status loadWorkload() override { return Unreachable(); }
  Status writeMemory() override { return Unreachable(); }
  Status runWorkload() override { return Unreachable(); }
  Status waitForBreakpoint() override { return Unreachable(); }
  Status readScanChain() override { return Unreachable(); }
  Status injectFault() override { return Unreachable(); }
  Status writeScanChain() override { return Unreachable(); }
  Status waitForTermination() override { return Unreachable(); }
  Status readMemory() override { return Unreachable(); }

 private:
  static Status Unreachable() {
    return UnimplementedError(
        "FlakyTarget forwards whole runs; drive it through "
        "MakeReferenceRun/RunExperiment");
  }

  // The decorator's own driver state (spec, logging mode, tracer) is
  // what the campaign machinery set; push it down before every run.
  void SyncDriverState() {
    inner_->set_experiment(spec_);
    inner_->set_logging_mode(logging_mode_);
    inner_->set_external_tracer(external_tracer_);
  }

  Status InjectScriptedFault(FlakyFault fault) {
    switch (fault) {
      case FlakyFault::kIo:
        ++script_->faults_injected;
        return IoError("scripted transport fault on the host<->test-card "
                       "link");
      case FlakyFault::kTargetFault:
        ++script_->faults_injected;
        return TargetFaultError("scripted target fault");
      case FlakyFault::kHang:
        ++script_->hangs_injected;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(script_->hang_ms));
        return IoError("host<->test-card link wedged (scripted hang)");
    }
    return InvalidArgumentError("unknown scripted fault kind");
  }

  std::unique_ptr<TargetSystemInterface> inner_;
  std::shared_ptr<FlakyScript> script_;
};

Result<FlakyFault> ParseFaultKind(const std::string& kind) {
  if (kind == "io") return FlakyFault::kIo;
  if (kind == "target_fault") return FlakyFault::kTargetFault;
  if (kind == "hang") return FlakyFault::kHang;
  return InvalidArgumentError("unknown flaky fault kind '" + kind +
                              "' (io, target_fault, hang)");
}

}  // namespace

std::uint64_t FlakyExperimentIndex(const std::string& experiment_name) {
  const std::size_t at = experiment_name.find("/exp");
  if (at == std::string::npos) return kNoIndex;
  std::size_t digit = at + 4;
  std::uint64_t index = 0;
  bool any = false;
  while (digit < experiment_name.size() &&
         experiment_name[digit] >= '0' && experiment_name[digit] <= '9') {
    index = index * 10 + static_cast<std::uint64_t>(
                             experiment_name[digit] - '0');
    ++digit;
    any = true;
  }
  return any ? index : kNoIndex;
}

Result<std::shared_ptr<FlakyScript>> ParseFlakyScript(
    const std::string& text) {
  auto script = std::make_shared<FlakyScript>();
  std::vector<std::string> entries;
  for (const std::string& chunk : SplitString(text, ';')) {
    for (const std::string& entry : SplitString(chunk, ',')) {
      if (!entry.empty()) entries.push_back(entry);
    }
  }
  for (const std::string& entry : entries) {
    if (StartsWith(entry, "hang_ms=")) {
      const auto value = ParseUint64(entry.substr(8));
      if (!value) {
        return InvalidArgumentError("bad flaky entry '" + entry + "'");
      }
      script->hang_ms = *value;
      continue;
    }
    const std::size_t at = entry.find('@');
    if (at == std::string::npos) {
      return InvalidArgumentError("bad flaky entry '" + entry +
                                  "' (want <kind>@<experiment>[:<attempt>])");
    }
    ASSIGN_OR_RETURN(const FlakyFault kind,
                     ParseFaultKind(entry.substr(0, at)));
    const std::string where = entry.substr(at + 1);
    const std::size_t colon = where.find(':');
    const auto experiment =
        ParseUint64(colon == std::string::npos ? where
                                               : where.substr(0, colon));
    if (!experiment) {
      return InvalidArgumentError("bad flaky entry '" + entry + "'");
    }
    if (colon != std::string::npos && where.substr(colon + 1) == "*") {
      script->always[*experiment] = kind;
      continue;
    }
    std::uint32_t attempt = 1;
    if (colon != std::string::npos) {
      const auto parsed = ParseUint64(where.substr(colon + 1));
      if (!parsed || *parsed == 0 || *parsed > 0xffffffffull) {
        return InvalidArgumentError("bad flaky entry '" + entry + "'");
      }
      attempt = static_cast<std::uint32_t>(*parsed);
    }
    script->faults[{*experiment, attempt}] = kind;
  }
  return script;
}

TargetFactory MakeFlakyTargetFactory(TargetFactory inner,
                                     std::shared_ptr<FlakyScript> script) {
  return [inner = std::move(inner), script = std::move(script)]()
             -> Result<std::unique_ptr<TargetSystemInterface>> {
    ASSIGN_OR_RETURN(std::unique_ptr<TargetSystemInterface> target, inner());
    return std::unique_ptr<TargetSystemInterface>(
        std::make_unique<FlakyTarget>(std::move(target), script));
  };
}

}  // namespace goofi::target
