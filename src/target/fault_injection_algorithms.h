// The abstract target-system interface and the three fault-injection
// algorithms of paper Fig. 2.
//
// This is the paper's central design (§2.2): "The fault injection
// algorithms are generic, i.e. they are written using the abstract
// methods of the TargetSystemInterface class ... When support for a new
// target system is added to GOOFI, only the abstract methods need to be
// implemented." The algorithms are template methods: they fix the phase
// ordering (set-up, download, run-to-trigger, inject, run-to-end,
// read-back) and delegate every target-specific step to the abstract
// operations, which keep the paper's camelCase names.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/snapshot.h"
#include "sim/tracer.h"
#include "target/golden_run.h"
#include "target/target_types.h"
#include "target/workloads.h"
#include "util/status.h"

namespace goofi::target {

class TargetSystemInterface {
 public:
  // One injectable location of the target, as advertised to the
  // campaign machinery (core/location.h builds the sampling space from
  // these; core/campaign.h persists them as TargetLocation rows).
  struct LocationInfo {
    enum class Kind {
      kScanElement,  // a named element of a scan chain
      kMemoryRange,  // a byte range of target memory
    };
    Kind kind = Kind::kScanElement;
    std::string name;
    std::string chain;             // scan elements: owning chain
    std::uint32_t width_bits = 0;  // scan elements: element width
    bool writable = true;          // false for observe-only elements
    std::string category;          // "reg", "control", "memory_code", ...
    std::uint32_t base = 0;        // memory ranges: start address
    std::uint32_t size = 0;        // memory ranges: length in bytes
  };

  virtual ~TargetSystemInterface() = default;

  virtual const std::string& target_name() const = 0;
  virtual std::vector<LocationInfo> ListLocations() const = 0;

  // ------------------------------------------------------------------
  // Driver API used by the campaign runner and the tool front ends.
  // ------------------------------------------------------------------

  // Install the workload for subsequent runs. The base implementation
  // just stores it; targets may validate eagerly.
  virtual Status SetWorkload(WorkloadSpec workload);

  void set_experiment(const ExperimentSpec& spec) { spec_ = spec; }
  const ExperimentSpec& experiment() const { return spec_; }

  void set_logging_mode(LoggingMode mode) { logging_mode_ = mode; }
  LoggingMode logging_mode() const { return logging_mode_; }

  // Forward the simulator's per-instruction trace events to `tracer`
  // during subsequent runs (the pre-injection analysis listens this
  // way). nullptr disconnects. Targets without an instruction-level
  // view may ignore it.
  void set_external_tracer(sim::Tracer* tracer) {
    external_tracer_ = tracer;
  }
  sim::Tracer* external_tracer() const { return external_tracer_; }

  // Fault-free reference run: the Fig. 2 sequence without the trigger
  // and injection phases. Produces the golden observation. Virtual so
  // decorator targets (target/flaky_target.h) can wrap the run without
  // re-implementing the Fig. 3 operations.
  virtual Status MakeReferenceRun();

  // Run the experiment in spec_ with the technique it names.
  virtual Status RunExperiment();

  // ------------------------------------------------------------------
  // The Fig. 2 algorithms (template methods; public so tools can drive
  // one technique directly, as goofi_tool's `exercise` mode does).
  // ------------------------------------------------------------------
  Status faultInjectorSCIFI();
  Status faultInjectorSWIFIPreRuntime();
  Status faultInjectorSWIFIRuntime();

  // The observation of the last completed run. TakeObservation hands it
  // over and resets the slate for the next run.
  const Observation& observation() const { return observation_; }
  virtual Observation TakeObservation();

  // ------------------------------------------------------------------
  // Checkpoint-fork execution (ZOFI-style golden-run memoization).
  //
  // A supporting target can capture its complete run state as a
  // sim::Snapshot, and can start subsequent runs from an installed
  // snapshot instead of reset: the Fig. 2 phase sequences are
  // unchanged, but writeMemory/runWorkload reinstate the snapshot in
  // place of the download + reset. The campaign runner drives this: it
  // arms a recording sink for the reference run, whose
  // waitForTermination then records the golden run (target/golden_run.h),
  // and installs the boundary nearest below each experiment's trigger
  // with the golden run beside it. The setters below are driver state,
  // like set_experiment: a decorator target copies them to the target
  // it wraps.
  // ------------------------------------------------------------------

  // True when Capture/RestoreSnapshot reproduce runs bit-exactly. A
  // target whose transport consumes randomness per operation (link
  // faults) must refuse: chunked reference runs would desynchronize it.
  virtual bool SupportsCheckpointFork() const { return false; }

  virtual Result<sim::Snapshot> CaptureSnapshot();
  virtual Status RestoreSnapshot(const sim::Snapshot& snapshot);

  // Record the golden run into `sink` during MakeReferenceRun: a
  // boundary at instruction 0 and then at every multiple of
  // `sink->stride`, which must be nonzero, and on a target that keeps
  // one, the fork grid between them (target/golden_run.h). nullptr
  // disables recording (the default). The caller fills in the final
  // observation.
  void set_checkpoint_recording(GoldenRun* sink) { checkpoint_sink_ = sink; }

  // Start subsequent runs from `snapshot` (nullptr reverts to running
  // from reset). The runner keeps ownership shared so one snapshot
  // serves many experiments and many workers.
  void set_start_snapshot(std::shared_ptr<const sim::Snapshot> snapshot) {
    start_snapshot_ = std::move(snapshot);
  }
  const sim::Snapshot* start_snapshot() const {
    return start_snapshot_.get();
  }

  // The golden run the start snapshot came from (nullptr: none). A
  // target that supports convergence stops a forked run once it rejoins
  // the golden run (target/golden_run.h); others ignore it.
  void set_golden_run(std::shared_ptr<const GoldenRun> golden) {
    golden_run_ = std::move(golden);
  }

  // Telemetry of the last run, never part of its Observation: whether it
  // rejoined the golden run, and the post-injection instructions it
  // therefore did not simulate.
  struct Convergence {
    bool converged = false;
    std::uint64_t instructions_skipped = 0;
  };
  virtual Convergence convergence() const { return convergence_; }

 protected:
  // ------------------------------------------------------------------
  // The abstract operations of paper Fig. 3, in the paper's naming.
  // The template methods above call them in the paper's order; concrete
  // targets implement them and record results into observation_.
  // ------------------------------------------------------------------
  virtual Status initTestCard() = 0;        // reset card + target
  virtual Status loadWorkload() = 0;        // prepare the workload image
  virtual Status writeMemory() = 0;         // download image to target
  virtual Status runWorkload() = 0;         // start execution
  virtual Status waitForBreakpoint() = 0;   // run until spec_.trigger
  virtual Status readScanChain() = 0;       // capture chain images
  virtual Status injectFault() = 0;         // apply spec_.targets
  virtual Status writeScanChain() = 0;      // write back modified images
  virtual Status waitForTermination() = 0;  // run to completion
  virtual Status readMemory() = 0;          // read back outputs

  WorkloadSpec workload_;
  ExperimentSpec spec_;
  Observation observation_;
  LoggingMode logging_mode_ = LoggingMode::kNormal;
  sim::Tracer* external_tracer_ = nullptr;
  std::shared_ptr<const sim::Snapshot> start_snapshot_;
  GoldenRun* checkpoint_sink_ = nullptr;
  std::shared_ptr<const GoldenRun> golden_run_;
  Convergence convergence_;
};

// Which locations a technique can physically inject into:
//  - SCIFI: writable scan-chain elements,
//  - pre-runtime SWIFI: memory ranges (program/data image),
//  - runtime SWIFI: registers, the PC, and memory ranges.
// core::LocationSpace builds campaign sampling spaces from this; the
// analysis-layer linter uses it to flag filters a technique cannot reach.
bool TechniqueCanReach(Technique technique,
                       const TargetSystemInterface::LocationInfo& info);

}  // namespace goofi::target
