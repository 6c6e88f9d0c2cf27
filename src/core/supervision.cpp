#include "core/supervision.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace goofi::core {

// Defined in runner.cpp; redeclared here so the supervision layer can
// re-configure a freshly minted replacement target without pulling in
// the whole runner header.
Result<target::WorkloadSpec> ConfigureTargetWorkload(
    const CampaignConfig& config, target::TargetSystemInterface* target);

namespace {

// ---- the reaper -------------------------------------------------------
// Process-wide bookkeeping of abandoned (wedged) target instances. The
// detached thread that is still inside RunExperiment() owns its corpse;
// it destroys the instance and signs off here when the run finally
// returns.

std::mutex& ReaperMutex() {
  static std::mutex mutex;
  return mutex;
}
std::condition_variable& ReaperCv() {
  static std::condition_variable cv;
  return cv;
}
std::size_t g_abandoned_in_flight = 0;

void ReaperRegister() {
  std::lock_guard<std::mutex> lock(ReaperMutex());
  ++g_abandoned_in_flight;
}

void ReaperSignOff() {
  std::lock_guard<std::mutex> lock(ReaperMutex());
  --g_abandoned_in_flight;
  ReaperCv().notify_all();
}

// ---- one attempt ------------------------------------------------------

struct AttemptResult {
  enum class Kind {
    kCompleted,       // status OK, within the deadline
    kHang,            // over the deadline (run may still be in flight)
    kRetryableFault,  // kTargetFault / kIo
    kFatal,           // everything else: the campaign must see it
  };
  Kind kind = Kind::kCompleted;
  Status status = Status::Ok();
};

AttemptResult ClassifyReturnedStatus(const Status& status) {
  if (status.ok()) return {AttemptResult::Kind::kCompleted, Status::Ok()};
  if (status.code() == ErrorCode::kTargetFault ||
      status.code() == ErrorCode::kIo) {
    return {AttemptResult::Kind::kRetryableFault, status};
  }
  return {AttemptResult::Kind::kFatal, status};
}

// State shared between the supervisor and the watchdogged run thread.
// If the deadline expires, ownership of the wedged target moves in here
// and the (detached) thread reaps it when the run finally returns.
struct WatchdoggedRun {
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  bool abandoned = false;
  Status status = Status::Ok();
  std::unique_ptr<target::TargetSystemInterface> corpse;
};

// Run the slot's target with a wall-clock deadline. Owned slots run on
// a helper thread so an over-deadline instance can be abandoned (the
// slot comes back empty); borrowed slots run inline and can only be
// classified as overdue after the fact.
AttemptResult RunAttemptWithDeadline(TargetSlot& slot,
                                     std::uint64_t timeout_ms) {
  target::TargetSystemInterface* target = slot.get();
  if (!slot.abandonable() || timeout_ms == 0) {
    const auto started = std::chrono::steady_clock::now();
    const Status status = target->RunExperiment();
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started);
    if (timeout_ms != 0 &&
        static_cast<std::uint64_t>(elapsed.count()) > timeout_ms) {
      return {AttemptResult::Kind::kHang, status};
    }
    return ClassifyReturnedStatus(status);
  }

  auto shared = std::make_shared<WatchdoggedRun>();
  std::thread runner([shared, target] {
    const Status status = target->RunExperiment();
    bool abandoned;
    {
      std::lock_guard<std::mutex> lock(shared->mutex);
      shared->status = status;
      shared->done = true;
      abandoned = shared->abandoned;
      shared->done_cv.notify_all();
    }
    if (abandoned) {
      {
        std::lock_guard<std::mutex> lock(shared->mutex);
        shared->corpse.reset();  // the wedged instance dies here
      }
      ReaperSignOff();
    }
  });

  std::unique_lock<std::mutex> lock(shared->mutex);
  const bool finished = shared->done_cv.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&] { return shared->done; });
  if (finished) {
    lock.unlock();
    runner.join();
    return ClassifyReturnedStatus(shared->status);
  }
  // Deadline expired with the run still in flight: abandon thread and
  // target to the reaper. The slot is left empty; the supervisor must
  // re-mint before anything else runs.
  shared->abandoned = true;
  shared->corpse = std::move(slot.owned);
  ReaperRegister();
  lock.unlock();
  runner.detach();
  return {AttemptResult::Kind::kHang,
          InternalError("experiment exceeded its watchdog deadline")};
}

const char* ToolStatusForFault(const Status& status) {
  return status.code() == ErrorCode::kIo ? kToolStatusIo
                                         : kToolStatusTargetFault;
}

}  // namespace

std::uint64_t DeriveExperimentTimeoutMs(std::uint64_t max_instructions) {
  // Headroom of 1000 simulated instructions per wall-clock millisecond
  // — orders of magnitude slower than the simulator — plus a one-second
  // floor so short workloads never trip on scheduler noise.
  return std::max<std::uint64_t>(1000, max_instructions / 1000 + 100);
}

SupervisionPolicy ResolveSupervisionPolicy(
    const CampaignConfig& config, const target::TerminationSpec& workload) {
  SupervisionPolicy policy;
  policy.max_retries = config.max_retries;
  policy.retry_backoff_ms = config.retry_backoff_ms;
  if (config.experiment_timeout_ms != 0) {
    policy.experiment_timeout_ms = config.experiment_timeout_ms;
    return policy;
  }
  policy.experiment_timeout_ms = DeriveExperimentTimeoutMs(
      target::EffectiveInstructionBudget(config.termination, workload));
  return policy;
}

Result<SupervisedOutcome> RunSupervisedExperiment(
    TargetSlot& slot, const target::ExperimentSpec& spec,
    const CampaignConfig& config, const SupervisionPolicy& policy,
    const target::TargetFactory& factory,
    std::shared_ptr<const sim::Snapshot> start_snapshot,
    std::shared_ptr<const target::GoldenRun> golden_run) {
  SupervisedOutcome outcome;
  for (std::uint32_t attempt = 1;; ++attempt) {
    outcome.disposition.attempts = attempt;
    target::TargetSystemInterface* target = slot.get();
    if (target == nullptr) {
      return InternalError("supervised target slot is empty");
    }
    target->set_experiment(spec);
    target->set_logging_mode(config.logging_mode);
    // Re-installed per attempt: a quarantine replacement minted below
    // must fork from the same checkpoint as the instance it replaces.
    target->set_start_snapshot(start_snapshot);
    target->set_golden_run(golden_run);
    const AttemptResult result = RunAttemptWithDeadline(
        slot, policy.experiment_timeout_ms);

    switch (result.kind) {
      case AttemptResult::Kind::kCompleted:
        outcome.disposition.tool_status = kToolStatusOk;
        outcome.observation = target->TakeObservation();
        outcome.convergence = target->convergence();
        outcome.last_error = Status::Ok();
        return outcome;
      case AttemptResult::Kind::kFatal:
        return result.status;
      case AttemptResult::Kind::kHang:
        outcome.disposition.tool_status = kToolStatusHang;
        outcome.last_error = result.status;
        break;
      case AttemptResult::Kind::kRetryableFault:
        outcome.disposition.tool_status = ToolStatusForFault(result.status);
        outcome.last_error = result.status;
        break;
    }

    // Quarantine the suspect instance: every failed attempt gets a
    // fresh target when a factory can mint one, so neither a retry nor
    // the next experiment inherits wedged state. Failure to re-mint or
    // re-configure the replacement is campaign-fatal — there is nothing
    // left to run on.
    if (factory) {
      ASSIGN_OR_RETURN(std::unique_ptr<target::TargetSystemInterface> fresh,
                       factory());
      RETURN_IF_ERROR(ConfigureTargetWorkload(config, fresh.get()).status());
      slot.owned = std::move(fresh);
      slot.borrowed = nullptr;
      ++outcome.disposition.quarantined;
    } else if (slot.get() == nullptr) {
      return InternalError(
          "target instance wedged and no factory is available to replace "
          "it; campaign cannot continue");
    }

    if (attempt > policy.max_retries) return outcome;  // abandoned

    if (policy.retry_backoff_ms != 0) {
      const std::uint32_t shift = std::min<std::uint32_t>(attempt - 1, 20);
      const std::uint64_t delay =
          std::min<std::uint64_t>(SupervisionPolicy::kMaxBackoffMs,
                                  policy.retry_backoff_ms << shift);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

std::size_t AbandonedTargetsInFlight() {
  std::lock_guard<std::mutex> lock(ReaperMutex());
  return g_abandoned_in_flight;
}

bool WaitForAbandonedTargets(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(ReaperMutex());
  return ReaperCv().wait_for(lock, timeout,
                             [] { return g_abandoned_in_flight == 0; });
}

}  // namespace goofi::core
