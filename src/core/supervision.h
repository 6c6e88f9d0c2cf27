// Campaign supervision: the fail-soft layer between the campaign loop
// and a flaky target.
//
// The paper's tool-level timeout (target/target_types.h TerminationSpec)
// bounds what the *workload* may do; this layer bounds what the *tool*
// may do. A campaign of thousands of unattended experiments must survive
// a wedged target instance, a transient test-card link failure or a
// poisoned experiment without discarding the rest of the plan — the
// supervision discipline FINJ treats as a first-class campaign-engine
// feature. Three mechanisms compose:
//
//   1. A per-experiment wall-clock watchdog (`experiment_timeout_ms`,
//      default derived from the workload's tool-level instruction
//      budget). An over-deadline run is classified as a tool-level
//      *hang* — strictly separate from the paper's error-outcome
//      taxonomy, which only applies to experiments the tool completed.
//   2. Retry with exponential backoff (`max_retries`,
//      `retry_backoff_ms`) for transient target/transport failures
//      (kTargetFault, kIo) and hangs.
//   3. Target quarantine: between attempts a fresh instance is minted
//      via target::TargetFactory, so a wedged instance is abandoned to
//      a background reaper instead of reused.
//
// Every experiment ends with an ExperimentDisposition (attempts, final
// tool status, quarantine count) persisted alongside the observation in
// LoggedSystemState, so campaign forensics can tell "the workload
// produced a wrong result" apart from "the tool never got an answer".
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/campaign.h"
#include "target/factory.h"
#include "util/status.h"

namespace goofi::core {

// ---- policy ------------------------------------------------------------

struct SupervisionPolicy {
  // Wall-clock deadline per experiment attempt. 0 = derive from the
  // effective tool-level instruction budget (DeriveExperimentTimeoutMs).
  std::uint64_t experiment_timeout_ms = 0;
  // Re-run attempts after a retryable failure (hang, kTargetFault, kIo).
  std::uint32_t max_retries = 0;
  // Base delay before retry attempt n sleeps backoff * 2^(n-1), capped
  // at kMaxBackoffMs. 0 = retry immediately.
  std::uint64_t retry_backoff_ms = 0;

  static constexpr std::uint64_t kMaxBackoffMs = 10'000;
};

// The default deadline for a workload whose tool-level budget is
// `max_instructions`: generous headroom over any simulated execution
// rate, so only genuine transport wedges trip it.
std::uint64_t DeriveExperimentTimeoutMs(std::uint64_t max_instructions);

// Resolve the campaign's supervision keys against the workload's
// tool-level termination defaults (the deadline derives from
// target::EffectiveInstructionBudget, the budget the target runs under).
SupervisionPolicy ResolveSupervisionPolicy(
    const CampaignConfig& config, const target::TerminationSpec& workload);

// ---- per-experiment disposition ---------------------------------------

// Tool statuses, persisted in LoggedSystemState.tool_status. kOk means
// the tool completed the experiment and its observation is valid; every
// other value marks an *abandoned* experiment that the outcome taxonomy
// must skip.
inline constexpr const char* kToolStatusOk = "ok";
inline constexpr const char* kToolStatusHang = "hang";
inline constexpr const char* kToolStatusTargetFault = "target_fault";
inline constexpr const char* kToolStatusIo = "io";
// Not a failure: the experiment is an equivalence-class duplicate whose
// outcome is the representative row named by parent_experiment
// (core/runner, `static_analysis = equivalence`). No injection was run;
// attempts is 0 and state_vector NULL.
inline constexpr const char* kToolStatusEquivalent = "equiv";

struct ExperimentDisposition {
  std::uint32_t attempts = 1;        // total attempts (1 = first try)
  std::string tool_status = kToolStatusOk;  // final attempt's status
  std::uint32_t quarantined = 0;     // target instances abandoned/replaced

  bool completed() const { return tool_status == kToolStatusOk; }
  bool retried() const { return attempts > 1; }
};

// ---- the target slot ---------------------------------------------------

// The target a supervised loop drives. Owned slots (minted by a
// factory) can be abandoned to the reaper when a run wedges; borrowed
// slots (caller-owned serial targets) can only be classified, never
// abandoned — their timeouts are detected after the run returns.
struct TargetSlot {
  std::unique_ptr<target::TargetSystemInterface> owned;
  target::TargetSystemInterface* borrowed = nullptr;

  target::TargetSystemInterface* get() const {
    return owned != nullptr ? owned.get() : borrowed;
  }
  bool abandonable() const { return owned != nullptr; }

  static TargetSlot Borrow(target::TargetSystemInterface* target) {
    TargetSlot slot;
    slot.borrowed = target;
    return slot;
  }
  static TargetSlot Own(std::unique_ptr<target::TargetSystemInterface> t) {
    TargetSlot slot;
    slot.owned = std::move(t);
    return slot;
  }
};

// ---- the supervised run ------------------------------------------------

struct SupervisedOutcome {
  ExperimentDisposition disposition;
  // Valid only when disposition.completed().
  target::Observation observation;
  target::TargetSystemInterface::Convergence convergence;
  // The final attempt's error for an abandoned experiment (OK when
  // completed); recorded for diagnostics, never fatal to the campaign.
  Status last_error = Status::Ok();
};

// Run `spec` on the slot's target under `policy`. The spec and logging
// mode are (re)installed before every attempt; retryable failures
// (hang/kTargetFault/kIo) consume attempts, re-minting a fresh target
// via `factory` between attempts when one is available (the failed
// instance is quarantined). Non-retryable errors (bad spec, programming
// errors) and a failure to re-mint or re-configure a replacement target
// are returned as a campaign-fatal Status; everything else produces a
// SupervisedOutcome, abandoned or completed.
//
// `factory` may be empty (no quarantine; retries reuse the instance).
// A borrowed, non-abandonable slot detects deadline overruns only after
// the run returns.
//
// `start_snapshot` (checkpoint-fork execution, core/checkpoint.h) is
// installed on the target before *every* attempt — including on a
// freshly minted quarantine replacement — so retried runs fork from the
// same golden checkpoint as the first try. nullptr runs from reset.
// `golden_run`, installed beside it, lets a forked run stop once it
// rejoins the golden run.
Result<SupervisedOutcome> RunSupervisedExperiment(
    TargetSlot& slot, const target::ExperimentSpec& spec,
    const CampaignConfig& config, const SupervisionPolicy& policy,
    const target::TargetFactory& factory,
    std::shared_ptr<const sim::Snapshot> start_snapshot = nullptr,
    std::shared_ptr<const target::GoldenRun> golden_run = nullptr);

// ---- the reaper --------------------------------------------------------

// Wedged target instances (and the threads still running them) are
// parked with a process-wide reaper when abandoned. They self-release
// when their run finally returns; these hooks let tests and front-ends
// observe and drain them deterministically instead of racing process
// exit.
std::size_t AbandonedTargetsInFlight();
bool WaitForAbandonedTargets(std::chrono::milliseconds timeout);

}  // namespace goofi::core
