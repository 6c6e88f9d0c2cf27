// The Thor RD target system: the paper's rad-hard microprocessor
// board, reached through the simulated test card.
//
// Binds src/sim's CPU, scan chains, TAP controller and debug unit to
// the abstract TargetSystemInterface: SCIFI goes through the TAP
// (capture -> flip -> write back), pre-runtime SWIFI flips bits in the
// downloaded memory image, runtime SWIFI writes registers and memory
// through the debug port at the trigger.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/assembler.h"
#include "sim/tracer.h"
#include "target/environment.h"
#include "target/fault_injection_algorithms.h"
#include "target/test_card.h"

namespace goofi::target {

class ThorRdTarget : public TargetSystemInterface {
 public:
  ThorRdTarget() : ThorRdTarget(TestCardOptions{}) {}
  explicit ThorRdTarget(TestCardOptions options)
      : ThorRdTarget(options, "thor_rd") {}
  ThorRdTarget(TestCardOptions options, std::string name);

  const std::string& target_name() const override { return name_; }
  std::vector<LocationInfo> ListLocations() const override;

  // Assembles the workload eagerly so syntax errors surface at
  // configuration time, not mid-campaign.
  Status SetWorkload(WorkloadSpec workload) override;

  TestCard& test_card() { return card_; }
  const TestCard& test_card() const { return card_; }
  const Environment* environment() const { return environment_.get(); }

  // Checkpoint-fork support. Snapshots cover the CPU (with memory image
  // and caches), the TAP controller and the environment model; the card
  // must run a clean link — link faults draw from the transport RNG per
  // operation, so a chunked reference run would diverge from replay.
  bool SupportsCheckpointFork() const override;
  Result<sim::Snapshot> CaptureSnapshot() override;
  Status RestoreSnapshot(const sim::Snapshot& snapshot) override;

  // Convergence's test at one golden boundary (target/golden_run.h):
  // the live state equals the golden snapshot in everything compared,
  // and every memory word that differs may differ. Public so benches
  // can time it.
  bool MatchesGoldenAt(const GoldenRun::Boundary& boundary) const;

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

  // injectFault's step for one of the spec's targets, in spec order:
  // the technique x location dispatch onto the helpers below. Derived
  // targets intercept the locations they own (the cache hierarchy
  // target's access-path coordinates) and defer the rest here.
  virtual Status InjectFaultTarget(const FaultTarget& fault);

  // The convergence test's part for state a derived target adds to its
  // snapshots (the cache hierarchy target's armed access-path faults).
  virtual bool ExtraStateMatches(const sim::Snapshot& golden) const {
    (void)golden;
    return true;
  }

 private:
  // Apply one fault model instance to a scan element (directly on the
  // CPU for runtime SWIFI) or to target memory.
  Status InjectIntoImage(const FaultTarget& fault);     // SCIFI snapshot
  Status InjectIntoCpu(const FaultTarget& fault);       // runtime SWIFI
  Status InjectIntoMemory(const FaultTarget& fault);    // SWIFI variants

  // Fans the CPU's trace events out to the campaign's external tracer
  // and, in detail mode, captures the internal chain image after every
  // retired instruction (paper §3.3).
  class TraceMux : public sim::Tracer {
   public:
    explicit TraceMux(ThorRdTarget* target) : target_(target) {}
    void OnInstructionRetired(const sim::Cpu& cpu,
                              const sim::Instruction& instruction,
                              std::uint64_t time,
                              std::uint32_t pc) override;
    void OnRegisterRead(unsigned reg, std::uint64_t time) override;
    void OnRegisterWrite(unsigned reg, std::uint32_t old_value,
                         std::uint32_t new_value,
                         std::uint64_t time) override;
    void OnMemoryRead(std::uint32_t address, unsigned bytes,
                      std::uint64_t time) override;
    void OnMemoryWrite(std::uint32_t address, unsigned bytes,
                       std::uint32_t value, std::uint64_t time) override;

   private:
    ThorRdTarget* target_;
  };

  struct EffectiveTermination {
    std::uint64_t max_instructions = 0;
    std::uint64_t max_iterations = 0;
  };
  EffectiveTermination ResolveTermination() const;
  std::uint64_t RemainingBudget(const EffectiveTermination& term) const;
  std::function<bool(sim::Cpu&)> IterationCallback();
  void FinishRun(const sim::RunResult& result);
  // Runs to termination in chunks that end on `points` evenly spaced
  // points per stride: each multiple of `stride` and every
  // ceil(stride / points) instructions after it. At each point reached
  // with budget left, `at_point` returns true to stop the run there.
  // Returns true when it did; otherwise the run finished and FinishRun
  // recorded its outcome, exactly as one un-chunked run would have.
  Result<bool> RunInStrides(std::uint64_t stride, std::uint64_t points,
                            const std::function<Result<bool>()>& at_point);
  // waitForTermination while a recording sink is armed: records a
  // snapshot into checkpoint_sink_ at instruction 0 and at every point
  // of the fork grid reached (kForkPointsPerStride per stride), and the
  // memory read-ahead set at each stride boundary among them.
  Status RunToTerminationRecordingCheckpoints();
  // Convergence: a forked transient-fault run under normal logging with
  // no post-step hooks may stop where it rejoins the golden run.
  bool MayConverge() const;

  void InstallModelHook(const sim::ScanElement* element,
                        std::uint32_t bit);
  void InstallMemoryModelHook(std::uint32_t address, std::uint32_t bit);

  std::string name_;
  TestCard card_;
  TraceMux trace_mux_{this};
  std::optional<sim::AssembledProgram> assembled_;
  std::unique_ptr<Environment> environment_;
  // SCIFI working copies of the chain images between readScanChain and
  // writeScanChain.
  std::map<std::string, BitVector> scan_images_;
  bool breakpoint_hit_ = false;
  bool run_finished_ = false;
  // Emitted words and environment outputs at the fork: a prefix both
  // the live run and every later golden boundary share.
  std::size_t fork_emitted_ = 0;
  std::size_t fork_env_outputs_ = 0;
  // The card's cumulative link-retry counter at initTestCard time;
  // readMemory records the per-run delta into the observation.
  std::uint64_t link_retry_baseline_ = 0;
};

// The commercial (non rad-hard) Thor: the same board with the cache
// parity mechanisms absent. Registered as "thor" alongside "thor_rd".
std::unique_ptr<ThorRdTarget> MakeThorTarget();

}  // namespace goofi::target
