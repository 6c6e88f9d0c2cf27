#include "core/runner.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "analysis/equivalence.h"
#include "analysis/static_liveness.h"
#include "core/experiment_codec.h"
#include "core/goofi_schema.h"
#include "sim/access_recorder.h"
#include "target/cache_target.h"
#include "target/workloads.h"
#include "util/strings.h"

namespace goofi::core {

using db::Row;
using db::Value;
using LocationInfo = target::TargetSystemInterface::LocationInfo;

CampaignRunner::CampaignRunner(db::Database* database,
                               target::TargetSystemInterface* target)
    : database_(database), target_(target) {}

CampaignRunner::CampaignRunner(db::Database* database,
                               target::TargetFactory factory,
                               std::size_t jobs)
    : database_(database),
      target_factory_(std::move(factory)),
      jobs_(std::max<std::size_t>(1, jobs)) {}

Status LogExperimentObservation(db::Database& database,
                                const std::string& experiment_name,
                                const std::string& parent,
                                const std::string& campaign_name,
                                const target::ExperimentSpec* spec,
                                const target::Observation* observation,
                                const ExperimentDisposition* disposition,
                                const PlannedEquivalence* equivalence) {
  static const ExperimentDisposition kDefaultDisposition;
  if (disposition == nullptr) disposition = &kDefaultDisposition;
  Row row;
  row.push_back(Value::Text_(experiment_name));
  row.push_back(parent.empty() ? Value::Null() : Value::Text_(parent));
  row.push_back(Value::Text_(campaign_name));
  row.push_back(Value::Text_(
      spec != nullptr ? SerializeExperimentSpec(*spec) : "reference"));
  row.push_back(observation != nullptr
                    ? Value::Text_(observation->Serialize())
                    : Value::Null());
  row.push_back(Value::Integer(disposition->attempts));
  row.push_back(Value::Text_(disposition->tool_status));
  row.push_back(Value::Integer(disposition->quarantined));
  row.push_back(equivalence != nullptr ? Value::Text_(equivalence->class_id)
                                       : Value::Null());
  row.push_back(equivalence != nullptr
                    ? Value::Integer(
                          static_cast<std::int64_t>(equivalence->weight))
                    : Value::Null());
  return database.Insert(kLoggedSystemStateTable, std::move(row));
}

namespace {

// Between the campaign and the index in an experiment's name.
constexpr char kExperimentInfix[] = "/exp";

}  // namespace

std::string ExperimentName(const std::string& campaign_name,
                           std::size_t index) {
  return StrFormat("%s%s%05zu", campaign_name.c_str(), kExperimentInfix,
                   index);
}

namespace {

// The index whose ExperimentName(campaign_name, index) is `name`, or
// nullopt for any other row: another campaign's, a detail re-run.
std::optional<std::uint64_t> ParseExperimentIndex(
    const std::string& campaign_name, const std::string& name) {
  const std::size_t digits =
      campaign_name.size() + std::strlen(kExperimentInfix);
  const char* const end = name.data() + name.size();
  std::uint64_t index = 0;
  if (name.size() <= digits || !StartsWith(name, campaign_name) ||
      std::from_chars(name.data() + digits, end, index).ptr != end ||
      ExperimentName(campaign_name, index) != name) {
    return std::nullopt;
  }
  return index;
}

// Resume's starting point k: every run leaves the plan prefix [0, k)
// logged, so k counts the campaign's experiment rows and is one past
// the largest index among them, or the rows were damaged.
Result<std::size_t> LoggedPrefix(const db::Database& database,
                                 const CampaignConfig& config) {
  const db::Table* logged = database.FindTable(kLoggedSystemStateTable);
  if (logged == nullptr) return 0;
  std::size_t count = 0;
  std::uint64_t end = 0;  // one past the largest index
  for (const Row& row : logged->rows()) {
    const auto index = ParseExperimentIndex(config.name, row[0].AsText());
    if (!index.has_value()) continue;
    ++count;
    end = std::max(end, *index + 1);
  }
  if (end != count || count > config.num_experiments) {
    return DataLossError(StrFormat(
        "campaign '%s': its %zu logged experiments (largest index %llu) "
        "are not a prefix of its %u-experiment plan",
        config.name.c_str(), count, static_cast<unsigned long long>(end - 1),
        config.num_experiments));
  }
  return count;
}

}  // namespace

Result<target::ExperimentSpec> SampleExperimentSpec(
    const ExperimentPlan& plan, std::size_t index, std::uint64_t* resamples) {
  const CampaignConfig& config = *plan.config;
  target::ExperimentSpec spec;
  spec.name = ExperimentName(config.name, index);
  spec.technique = config.technique;
  spec.model = config.model;
  spec.termination = config.termination;

  // Every experiment owns an RNG stream derived from (campaign seed,
  // experiment index): sampling experiment 7 never depends on whether
  // experiments 0..6 were sampled first, by this thread or any other.
  Rng rng(DeriveStreamSeed(config.seed, index));

  constexpr int kMaxResamples = 20000;
  for (int attempt = 0; attempt < kMaxResamples; ++attempt) {
    spec.targets.clear();
    for (std::uint32_t m = 0; m < config.multiplicity; ++m) {
      spec.targets.push_back(plan.space->SampleBit(rng));
    }
    const std::uint64_t time =
        static_cast<std::uint64_t>(rng.NextInRange(
            static_cast<std::int64_t>(plan.window_lo),
            static_cast<std::int64_t>(plan.window_hi)));

    // Trigger construction per the campaign's trigger kind.
    sim::Breakpoint trigger;
    trigger.one_shot = true;
    switch (config.trigger_kind) {
      case TriggerKind::kInstret:
        trigger.kind = sim::Breakpoint::Kind::kInstretReached;
        trigger.count = time;
        break;
      case TriggerKind::kRtc:
        trigger.kind = sim::Breakpoint::Kind::kRtcMicros;
        trigger.micros = std::max<std::uint64_t>(1, time / 25);
        break;
      case TriggerKind::kBranch:
        trigger.kind = sim::Breakpoint::Kind::kBranchTaken;
        trigger.count =
            1 + rng.NextBelow(std::max<std::uint64_t>(
                    1, std::min<std::uint64_t>(plan.window_hi / 4, 256)));
        break;
      case TriggerKind::kCall:
        trigger.kind = sim::Breakpoint::Kind::kCall;
        trigger.count = 1 + rng.NextBelow(16);
        break;
      case TriggerKind::kPc:
      case TriggerKind::kDataRead:
      case TriggerKind::kDataWrite: {
        // Sample an address from the loaded image footprint.
        std::vector<const LocationInfo*> ranges;
        const bool want_code = config.trigger_kind == TriggerKind::kPc;
        for (const LocationInfo& info : plan.locations) {
          if (info.kind != LocationInfo::Kind::kMemoryRange) continue;
          const bool is_code = info.category == "memory_code";
          if (is_code == want_code) ranges.push_back(&info);
        }
        if (ranges.empty()) {
          return FailedPreconditionError(
              std::string("no address ranges for trigger kind '") +
              TriggerKindName(config.trigger_kind) + "'");
        }
        const LocationInfo* range = ranges[rng.NextBelow(ranges.size())];
        trigger.address =
            range->base + static_cast<std::uint32_t>(
                              rng.NextBelow(std::max<std::uint32_t>(
                                  1, range->size / 4)) *
                              4);
        trigger.kind = config.trigger_kind == TriggerKind::kPc
                           ? sim::Breakpoint::Kind::kPcEquals
                       : config.trigger_kind == TriggerKind::kDataRead
                           ? sim::Breakpoint::Kind::kDataRead
                           : sim::Breakpoint::Kind::kDataWrite;
        trigger.count = 1;
        break;
      }
    }
    spec.trigger = trigger;

    // Equivalence mode pins the accepted draw to its class's canonical
    // injection time (the planning pass proved the whole class
    // outcome-equivalent, so this changes nothing observable and makes
    // every member of one class run the identical experiment). Applied
    // after the liveness filter: the filter must see the raw draw so
    // the resample sequence stays a pure function of (plan, index).
    const auto pin_to_class = [&](target::ExperimentSpec accepted) {
      if (plan.equivalence != nullptr && index < plan.equivalence->size()) {
        accepted.trigger.count = (*plan.equivalence)[index].canonical_time;
      }
      return accepted;
    };

    if (plan.preinjection == nullptr) return pin_to_class(spec);
    bool all_live = true;
    for (const target::FaultTarget& fault_target : spec.targets) {
      if (!plan.preinjection->IsLive(fault_target, time)) {
        all_live = false;
        break;
      }
    }
    if (all_live) return pin_to_class(spec);
    ++*resamples;
  }
  return FailedPreconditionError(
      "pre-injection analysis found no live (location, time) point in the "
      "configured window; widen the filters or the time window");
}

Result<PreparedCampaign> PrepareCampaignRun(
    db::Database& database, target::TargetSystemInterface* reference_target,
    const std::string& campaign_name, bool resume,
    std::optional<bool> checkpoint_override) {
  RETURN_IF_ERROR(CreateGoofiSchema(database));
  PreparedCampaign prepared;
  ASSIGN_OR_RETURN(prepared.config, LoadCampaign(database, campaign_name));
  ASSIGN_OR_RETURN(const target::WorkloadSpec workload,
                   ConfigureTargetWorkload(prepared.config, reference_target));
  prepared.workload_termination = workload.termination;
  if (resume) {
    ASSIGN_OR_RETURN(prepared.first, LoggedPrefix(database, prepared.config));
  }
  // Resuming a campaign that already ran to completion (e.g. a daemon
  // killed between the final results commit and its own bookkeeping)
  // must append zero bytes: skip the "running" reset, let the run loop
  // start past the plan's end, and the final status write elides as
  // a no-op. Any other stored status resets to "running" as usual.
  bool already_completed = false;
  if (resume) {
    ASSIGN_OR_RETURN(const std::string status,
                     LoadCampaignRunStatus(database, campaign_name));
    already_completed = status == "completed";
  }
  if (!already_completed) {
    RETURN_IF_ERROR(UpdateCampaignRunStatus(database, campaign_name,
                                            "running", 0));
  }

  prepared.summary.campaign_name = campaign_name;

  // ---- equivalence-mode eligibility ------------------------------------
  // Unlike checkpoint mode this is an explicit analysis claim, so an
  // ineligible campaign fails loudly instead of silently degrading.
  const bool use_equivalence =
      prepared.config.static_analysis == StaticAnalysis::kEquivalence;
  if (use_equivalence) {
    const std::vector<KeyProblem> violations =
        EquivalenceViolations(prepared.config);
    if (!violations.empty()) {
      return FailedPreconditionError(violations.front().message);
    }
  }

  // ---- static pre-run analysis (before any run) ------------------------
  // Knows nothing the image doesn't say: registers no reachable
  // instruction ever reads are dropped from the location space below.
  std::optional<analysis::StaticLiveness> static_liveness;
  if (prepared.config.static_analysis != StaticAnalysis::kOff) {
    ASSIGN_OR_RETURN(static_liveness, analysis::StaticLiveness::AnalyzeSource(
                                          workload.assembly));
  }

  // ---- makeReferenceRun() ---------------------------------------------
  target::ExperimentSpec reference_spec;
  reference_spec.name = campaign_name + "/reference";
  reference_spec.technique = prepared.config.technique;
  reference_spec.termination = prepared.config.termination;
  reference_target->set_experiment(reference_spec);
  reference_target->set_logging_mode(prepared.config.logging_mode);
  // A caller's target may still hold its last campaign's fork state.
  reference_target->set_start_snapshot(nullptr);
  reference_target->set_golden_run(nullptr);

  sim::AccessRecorder recorder;
  if (prepared.config.use_preinjection_analysis || use_equivalence) {
    // Equivalence partitioning needs the golden run's access trace even
    // when the campaign does not enable the liveness filter itself.
    reference_target->set_external_tracer(&recorder);
  }

  // ---- checkpoint-fork eligibility ------------------------------------
  // The golden run doubles as the checkpoint recording pass when the
  // mode is on (campaign key or runner override) and neither the
  // campaign (CheckpointForkBlockers) nor the target rules forking out.
  // Ineligible campaigns silently replay from reset — the logged
  // database is identical by construction.
  const bool checkpoint_requested =
      checkpoint_override.value_or(prepared.config.checkpoint_mode);
  const bool checkpoint_eligible =
      checkpoint_requested &&
      CheckpointForkBlockers(prepared.config).empty() &&
      reference_target->SupportsCheckpointFork();
  target::GoldenRun golden;
  if (checkpoint_eligible) {
    // Default stride: a tenth of the effective tool-level instruction
    // budget.
    golden.stride = prepared.config.checkpoint_stride;
    if (golden.stride == 0) {
      const std::uint64_t budget = target::EffectiveInstructionBudget(
          prepared.config.termination, workload.termination);
      golden.stride = std::max<std::uint64_t>(1, budget / 10);
    }
    reference_target->set_checkpoint_recording(&golden);
  }
  const Status reference_ran = reference_target->MakeReferenceRun();
  reference_target->set_checkpoint_recording(nullptr);
  reference_target->set_external_tracer(nullptr);
  RETURN_IF_ERROR(reference_ran);
  prepared.summary.reference = reference_target->TakeObservation();
  if (!golden.boundaries.empty()) {
    prepared.summary.checkpoints_recorded = golden.boundaries.size();
    golden.final_observation = prepared.summary.reference;
    prepared.golden_run =
        std::make_shared<const target::GoldenRun>(std::move(golden));
  }
  prepared.summary.reference_experiment = reference_spec.name;
  const db::Table* logged = database.FindTable(kLoggedSystemStateTable);
  const bool reference_logged =
      logged->FindByUnique(0, db::Value::Text_(reference_spec.name))
          .has_value();
  if (reference_logged && !resume) {
    return AlreadyExistsError("campaign '" + campaign_name +
                              "' has already been run (use Resume)");
  }
  if (!reference_logged) {
    RETURN_IF_ERROR(LogExperimentObservation(database, reference_spec.name,
                                             "", campaign_name, nullptr,
                                             &prepared.summary.reference,
                                             nullptr));
  }

  prepared.use_preinjection = prepared.config.use_preinjection_analysis;
  if (prepared.use_preinjection || use_equivalence) {
    prepared.def_use.Build(recorder, prepared.summary.reference.instructions);
  }
  if (prepared.use_preinjection) {
    prepared.summary.register_live_fraction =
        prepared.def_use.RegisterLiveFraction();
  }

  // ---- location space and time window ----------------------------------
  prepared.locations = reference_target->ListLocations();
  ASSIGN_OR_RETURN(prepared.space,
                   LocationSpace::Build(prepared.locations,
                                        prepared.config.technique,
                                        prepared.config.location_filters));
  if (!prepared.config.cache_fault_model.empty()) {
    // An access-path fault model narrows the sampled space to its
    // coordinate family. A target without those coordinates (anything
    // but cache_hierarchy) leaves the restriction empty — fail with the
    // cause rather than sampling a space the model cannot inject into.
    const auto cache_model =
        target::CacheFaultModelFromName(prepared.config.cache_fault_model);
    if (!cache_model.has_value()) {
      return InvalidArgumentError("unknown cache fault model '" +
                                  prepared.config.cache_fault_model + "'");
    }
    const char* family_glob = target::CacheFaultModelLocationGlob(*cache_model);
    LocationSpace narrowed =
        prepared.space.Restricted([family_glob](const LocationInfo& info) {
          return GlobMatch(family_glob, info.name);
        });
    if (narrowed.total_bits() == 0) {
      return FailedPreconditionError(
          "cache fault model '" + prepared.config.cache_fault_model +
          "' selects nothing: target '" + prepared.config.target +
          "' advertises no matching cache coordinates (use the "
          "cache_hierarchy target, and location filters that keep some '" +
          std::string(family_glob) + "' locations)");
    }
    prepared.space = std::move(narrowed);
  }
  if (static_liveness.has_value()) {
    const std::uint64_t unpruned_bits = prepared.space.total_bits();
    LocationSpace pruned =
        prepared.space.Restricted([&](const LocationInfo& info) {
          return static_liveness->MayLocationHoldLiveData(info.name);
        });
    if (pruned.total_bits() == 0) {
      return FailedPreconditionError(
          "static analysis proves every selected location dead for "
          "workload '" + prepared.config.workload +
          "'; widen the location filters");
    }
    prepared.summary.static_pruned_bits =
        unpruned_bits - pruned.total_bits();
    prepared.summary.static_pruned_fraction =
        static_cast<double>(prepared.summary.static_pruned_bits) /
        static_cast<double>(unpruned_bits);
    prepared.space = std::move(pruned);
  }
  const std::uint64_t duration = prepared.summary.reference.instructions;
  if (duration < 3) {
    return FailedPreconditionError("reference run too short to inject into");
  }
  prepared.window_lo =
      prepared.config.time_window_lo != 0 ? prepared.config.time_window_lo
                                          : 1;
  prepared.window_hi =
      prepared.config.time_window_hi != 0
          ? std::min(prepared.config.time_window_hi, duration - 1)
          : duration - 1;
  if (prepared.window_lo > prepared.window_hi) {
    return InvalidArgumentError("empty injection time window");
  }

  // ---- equivalence-class planning --------------------------------------
  // Re-derive every experiment's raw draw (a pure function of (plan, i),
  // so this costs no target runs) and assign it to its def-use class.
  // The first experiment landing in a class becomes the representative;
  // the rest will be logged as duplicate stubs. Draws on unmodeled
  // locations — or past a location's last access — fall back to
  // singleton classes: never unsound, only less pruned.
  if (use_equivalence) {
    const ExperimentPlan plan = prepared.MakePlan();  // equivalence still empty
    std::map<std::string, std::size_t> representatives;
    std::uint64_t planning_resamples = 0;  // run-time loop re-counts these
    prepared.equivalence.reserve(prepared.config.num_experiments);
    for (std::size_t i = 0; i < prepared.config.num_experiments; ++i) {
      ASSIGN_OR_RETURN(const target::ExperimentSpec spec,
                       SampleExperimentSpec(plan, i, &planning_resamples));
      const target::FaultTarget& fault_target = spec.targets[0];
      const std::uint64_t time = spec.trigger.count;
      PlannedEquivalence planned;
      const auto interval = prepared.def_use.IntervalOf(fault_target, time);
      std::uint64_t lo = time;
      std::uint64_t hi = time;
      if (interval.has_value()) {
        lo = std::max(interval->lo, prepared.window_lo);
        hi = std::min(interval->hi, prepared.window_hi);
      }
      planned.class_id = analysis::EquivalenceClassId(fault_target, lo, hi);
      planned.weight = hi - lo + 1;
      // The canonical representative time: the interval's last in-window
      // point. For live draws that is the class's first-use instruction
      // (minimal fault dwell time), and it is live whenever the raw draw
      // was — both lie in the same def-use interval.
      planned.canonical_time = hi;
      const auto [it, inserted] =
          representatives.emplace(planned.class_id, i);
      planned.representative = it->second;
      if (inserted) {
        ++prepared.summary.equiv_classes;
        prepared.summary.equiv_space_weight += planned.weight;
      } else {
        ++prepared.summary.equiv_duplicates;
      }
      prepared.equivalence.push_back(std::move(planned));
    }
  }
  return prepared;
}

// ---- the experiment pipeline ---------------------------------------------
// One campaign loop in two halves: ExperimentExecutors turn plan indices
// into ExperimentResults on their own targets, and one CampaignWriter
// consumes those results in canonical plan order. The writer is the
// only code that touches the database during the loop, and everything
// it logs or counts comes from the result, so the database and the
// summary are the same whichever executor ran an index.
namespace {

// One plan index's outcome, handed from an executor to the writer.
struct ExperimentResult {
  target::ExperimentSpec spec;
  // Valid only when disposition.completed().
  target::Observation observation;
  ExperimentDisposition disposition;
  std::uint64_t resamples = 0;
  // Equivalence mode: the index's class verdict (null = mode off). A
  // duplicate ran nothing; the writer logs a stub row pointing at the
  // class representative.
  const PlannedEquivalence* equivalence = nullptr;
  bool duplicate = false;
  // Checkpoint-fork accounting.
  bool forked = false;
  std::uint64_t instructions_skipped = 0;  // the fork's checkpoint instret
  std::uint64_t trigger_instructions = 0;  // instret triggers only
  // Convergence telemetry (target::TargetSystemInterface::Convergence).
  bool converged = false;
  std::uint64_t converged_instructions_skipped = 0;
};

// What every executor of one run shares, read-only.
struct ExecutionContext {
  ExperimentPlan plan;
  SupervisionPolicy policy;
  target::TargetFactory factory;  // empty: the borrowed target is reused
};

// Runs plan indices on one TargetSlot. An empty slot is filled from
// the factory on the first experiment that needs a target.
class ExperimentExecutor {
 public:
  ExperimentExecutor(const ExecutionContext& context, TargetSlot slot)
      : context_(context), slot_(std::move(slot)) {}

  // A non-ok Result is campaign-fatal. Retryable tool-level failures
  // (hang, target fault, transport error) are consumed by supervision
  // and surface as the result's disposition instead.
  Result<ExperimentResult> Execute(std::size_t index) {
    ExperimentResult result;
    const ExperimentPlan& plan = context_.plan;
    ASSIGN_OR_RETURN(result.spec,
                     SampleExperimentSpec(plan, index, &result.resamples));
    if (plan.equivalence != nullptr && index < plan.equivalence->size()) {
      result.equivalence = &(*plan.equivalence)[index];
      if (result.equivalence->representative != index) {
        // A duplicate of an earlier representative: the class's outcome
        // is (provably) the representative's, so no injection runs. The
        // representative's index is lower, so the writer has already
        // logged its row when it reaches this stub.
        result.duplicate = true;
        result.disposition.attempts = 0;
        result.disposition.tool_status = kToolStatusEquivalent;
        return result;
      }
    }
    std::shared_ptr<const sim::Snapshot> start_snapshot;
    if (result.spec.trigger.kind == sim::Breakpoint::Kind::kInstretReached) {
      result.trigger_instructions = result.spec.trigger.count;
      const target::GoldenRun::Boundary* fork =
          plan.golden_run != nullptr
              ? plan.golden_run->AtOrBelow(result.spec.trigger.count)
              : nullptr;
      if (fork != nullptr) {
        start_snapshot = fork->snapshot;
        result.forked = true;
        result.instructions_skipped = start_snapshot->instret;
      }
    }
    if (slot_.get() == nullptr) {
      RETURN_IF_ERROR(
          MintConfiguredTarget(context_.factory, *plan.config, slot_)
              .status());
    }
    ASSIGN_OR_RETURN(SupervisedOutcome outcome,
                     RunSupervisedExperiment(slot_, result.spec, *plan.config,
                                             context_.policy,
                                             context_.factory,
                                             std::move(start_snapshot),
                                             plan.golden_run));
    result.disposition = std::move(outcome.disposition);
    if (result.disposition.completed()) {
      result.observation = std::move(outcome.observation);
      result.converged = outcome.convergence.converged;
      result.converged_instructions_skipped =
          outcome.convergence.instructions_skipped;
    }
    return result;
  }

 private:
  const ExecutionContext& context_;
  TargetSlot slot_;
};

// Logs results in canonical plan order, starting after the `first`
// experiments an earlier run logged, and owns the run's accounting:
// summary totals, progress snapshots, the commit cadence and the final
// campaign status.
class CampaignWriter {
 public:
  CampaignWriter(db::Database& database, CampaignSummary summary,
                 std::size_t first, std::size_t total,
                 const ProgressCallback& progress,
                 const std::string& checkpoint_directory,
                 std::size_t checkpoint_every)
      : database_(database),
        summary_(std::move(summary)),
        total_(total),
        progress_(progress),
        checkpoint_directory_(checkpoint_directory),
        checkpoint_every_(checkpoint_every) {
    info_.experiments_done = first;
    info_.experiments_total = total;
  }

  // Log the next plan index's result. An error leaves every earlier
  // row logged and ends the run.
  Status Write(const ExperimentResult& result) {
    const std::string& campaign = summary_.campaign_name;
    const bool completed = result.disposition.completed();
    RETURN_IF_ERROR(LogExperimentObservation(
        database_, result.spec.name,
        result.duplicate
            ? ExperimentName(campaign, result.equivalence->representative)
            : "",
        campaign, &result.spec, completed ? &result.observation : nullptr,
        &result.disposition, result.equivalence));
    ++summary_.experiments_run;
    summary_.preinjection_resamples += result.resamples;
    if (!result.duplicate) {
      // A duplicate stub is a processed experiment, but never a retried,
      // abandoned or quarantining one.
      summary_.experiment_retries += result.disposition.attempts - 1;
      summary_.targets_quarantined += result.disposition.quarantined;
      if (!completed) ++summary_.experiments_abandoned;
    }
    if (result.forked) ++summary_.checkpoint_forks;
    summary_.instructions_skipped += result.instructions_skipped;
    summary_.trigger_instructions_total += result.trigger_instructions;
    if (result.forked && completed &&
        result.observation.instructions > result.trigger_instructions) {
      summary_.post_injection_instructions_total +=
          result.observation.instructions - result.trigger_instructions;
    }
    summary_.experiments_converged += result.converged;
    summary_.converged_instructions_skipped +=
        result.converged_instructions_skipped;

    ++info_.experiments_done;
    info_.experiment_retries = summary_.experiment_retries;
    info_.experiments_abandoned = summary_.experiments_abandoned;
    info_.targets_quarantined = summary_.targets_quarantined;
    info_.checkpoint_forks = summary_.checkpoint_forks;
    info_.instructions_skipped = summary_.instructions_skipped;
    if (completed && result.observation.fault_was_injected) {
      ++info_.faults_injected;
    }
    info_.current_experiment = result.spec.name;
    Heartbeat();
    if (checkpoint_every_ != 0 &&
        summary_.experiments_run % checkpoint_every_ == 0) {
      RETURN_IF_ERROR(database_.Persist(checkpoint_directory_));
    }
    return Status::Ok();
  }

  // Emit the current progress snapshot (a value copy) again; the pause
  // loop calls this so a paused campaign still reports.
  void Heartbeat() const {
    if (progress_) progress_(info_);
  }

  Result<CampaignSummary> Finish(const CampaignController* controller) {
    summary_.experiments_stopped_early = total_ - info_.experiments_done;
    // A drain ends the run at its last cadence checkpoint: writing the
    // "stopped" row here (or committing the partial batch) would make
    // the database diverge from a SIGKILL at that commit, and the
    // eventual resumed run would no longer be byte-identical to an
    // uninterrupted one. The uncommitted tail is discarded with the
    // Database object.
    if (controller != nullptr && controller->drain_requested()) {
      return summary_;
    }
    RETURN_IF_ERROR(UpdateCampaignRunStatus(
        database_, summary_.campaign_name,
        summary_.experiments_stopped_early > 0 ? "stopped" : "completed",
        info_.experiments_done));
    return summary_;
  }

 private:
  db::Database& database_;
  CampaignSummary summary_;
  const std::size_t total_;
  const ProgressCallback& progress_;
  const std::string& checkpoint_directory_;
  const std::size_t checkpoint_every_;
  ProgressInfo info_;
};

// The one driver, at every worker count. The calling thread is the
// writer and the first worker, on `slot`: it logs the next result in
// canonical order when there is one and otherwise runs the next plan
// index itself. The other workers run on threads of their own and park
// their results in a reorder buffer. Claims go in order from `first`.
// Fig. 7: while paused nothing is claimed or written; a stop ends the
// run before the next row, dropping results claimed past it. So the
// logged set is always a plan prefix, ending exactly where a stop or a
// fatal error landed.
Status RunFleet(const ExecutionContext& context, std::size_t first,
                std::size_t workers, TargetSlot slot, CampaignWriter& writer,
                CampaignController* controller) {
  // Keep the reorder buffer bounded: no claim may run more than
  // `window` indices ahead of the canonical cursor. The worker holding
  // the cursor's index has always claimed it already, so the cursor
  // can always advance and the throttle cannot deadlock.
  constexpr std::size_t kClaimWindowPerWorker = 8;
  const std::size_t window =
      std::max<std::size_t>(64, kClaimWindowPerWorker * workers);
  const std::size_t total = context.plan.config->num_experiments;
  CampaignController uncontrolled;
  if (controller == nullptr) controller = &uncontrolled;

  std::mutex mutex;  // guards everything below
  std::condition_variable results_ready;  // the writer waits on this
  std::condition_variable claims_open;    // the other workers wait on this
  std::map<std::size_t, Result<ExperimentResult>> results;
  std::size_t next_to_claim = first;
  std::size_t next_to_log = first;  // the canonical cursor
  std::size_t exited = 0;
  bool abort = false;  // a fatal result, or the writer is done

  // Under `mutex`: nothing is left to claim, ever.
  const auto claims_over = [&] {
    return abort || next_to_claim >= total || controller->stopped();
  };
  // Under `mutex`: the next index may be claimed now.
  const auto claim_open = [&] {
    return !claims_over() && !controller->paused() &&
           next_to_claim < next_to_log + window;
  };
  // Run a claimed index and park its result.
  const auto run = [&](ExperimentExecutor& executor, std::size_t index,
                       std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    Result<ExperimentResult> result = executor.Execute(index);
    lock.lock();
    // Indices below a fatal one are all claimed and still arrive, so
    // the writer logs every row before the first failing index.
    abort = abort || !result.ok();
    results.emplace(index, std::move(result));
  };

  std::vector<std::thread> fleet;
  for (std::size_t w = 1; w < workers; ++w) {
    fleet.emplace_back([&] {
      ExperimentExecutor executor(context, TargetSlot());
      std::unique_lock<std::mutex> lock(mutex);
      for (;;) {
        // wait_for, so that a Resume() or Stop() is noticed even though
        // it cannot notify our condition variable.
        while (!claims_over() && !claim_open()) {
          claims_open.wait_for(lock, std::chrono::milliseconds(5));
        }
        if (claims_over()) break;
        run(executor, next_to_claim++, lock);
        results_ready.notify_all();
      }
      ++exited;
      results_ready.notify_all();
    });
  }

  ExperimentExecutor executor(context, std::move(slot));
  Status status = Status::Ok();
  {
    std::unique_lock<std::mutex> lock(mutex);
    while (!controller->stopped()) {
      const auto it = results.find(next_to_log);
      if (it != results.end() && !controller->paused()) {
        Result<ExperimentResult> result = std::move(it->second);
        results.erase(it);
        ++next_to_log;
        claims_open.notify_all();
        lock.unlock();
        status = result.ok() ? writer.Write(*result) : result.status();
        lock.lock();
        if (!status.ok()) break;
        continue;
      }
      if (claim_open()) {
        run(executor, next_to_claim++, lock);
        continue;
      }
      if (it == results.end() && claims_over() && exited == fleet.size()) {
        break;
      }
      if (controller->paused()) {
        lock.unlock();
        writer.Heartbeat();
        lock.lock();
      }
      results_ready.wait_for(lock, std::chrono::milliseconds(5));
    }
    abort = true;
    claims_open.notify_all();
  }
  for (std::thread& thread : fleet) thread.join();
  return status;
}

}  // namespace

Result<CampaignSummary> CampaignRunner::Run(
    const std::string& campaign_name) {
  return RunInternal(campaign_name, /*resume=*/false);
}

Result<CampaignSummary> CampaignRunner::Resume(
    const std::string& campaign_name) {
  return RunInternal(campaign_name, /*resume=*/true);
}

Result<CampaignSummary> CampaignRunner::RunInternal(
    const std::string& campaign_name, bool resume) {
  // The reference run happens once, on the caller's target or on one
  // the factory mints.
  TargetSlot reference = TargetSlot::Borrow(target_);
  if (target_ == nullptr) {
    if (!target_factory_) {
      return FailedPreconditionError("runner has no target and no factory");
    }
    ASSIGN_OR_RETURN(std::unique_ptr<target::TargetSystemInterface> minted,
                     target_factory_());
    reference = TargetSlot::Own(std::move(minted));
  }
  ASSIGN_OR_RETURN(PreparedCampaign prepared,
                   PrepareCampaignRun(*database_, reference.get(),
                                      campaign_name, resume,
                                      checkpoint_override_));
  const std::size_t first = prepared.first;
  const std::size_t total = prepared.config.num_experiments;
  const ExecutionContext context{
      prepared.MakePlan(),
      ResolveSupervisionPolicy(prepared.config,
                               prepared.workload_termination),
      target_factory_};
  CampaignWriter writer(*database_, std::move(prepared.summary), first,
                        total, progress_, checkpoint_directory_,
                        checkpoint_every_);

  // The reference target runs experiments too, on the first worker,
  // unless it is the caller's and a factory can mint an abandonable one
  // instead.
  if (!reference.abandonable() && target_factory_) reference = TargetSlot();
  RETURN_IF_ERROR(RunFleet(context, first,
                           std::min<std::size_t>(jobs_, total - first),
                           std::move(reference), writer, controller_));
  return writer.Finish(controller_);
}

Result<CampaignSummary> CampaignRunner::FaultInjectorSCIFI(
    const std::string& campaign) {
  ASSIGN_OR_RETURN(CampaignConfig config, LoadCampaign(*database_, campaign));
  if (config.technique != target::Technique::kScifi) {
    return FailedPreconditionError("campaign '" + campaign +
                                   "' is not a SCIFI campaign");
  }
  return Run(campaign);
}

Result<CampaignSummary> CampaignRunner::FaultInjectorSWIFI(
    const std::string& campaign) {
  ASSIGN_OR_RETURN(CampaignConfig config, LoadCampaign(*database_, campaign));
  if (config.technique == target::Technique::kScifi) {
    return FailedPreconditionError("campaign '" + campaign +
                                   "' is not a SWIFI campaign");
  }
  return Run(campaign);
}

Result<std::string> CampaignRunner::ReRunInDetailMode(
    const std::string& experiment_name) {
  const db::Table* logged = database_->FindTable(kLoggedSystemStateTable);
  if (logged == nullptr) return NotFoundError("no LoggedSystemState table");
  const auto index =
      logged->FindByUnique(0, Value::Text_(experiment_name));
  if (!index) {
    return NotFoundError("no logged experiment '" + experiment_name + "'");
  }
  const Row& row = logged->row(*index);
  const std::string campaign_name = row[2].AsText();
  const std::string experiment_data = row[3].AsText();
  if (experiment_data == "reference") {
    return InvalidArgumentError("cannot re-run the reference run");
  }
  ASSIGN_OR_RETURN(target::ExperimentSpec spec,
                   ParseExperimentSpec(experiment_data));
  ASSIGN_OR_RETURN(CampaignConfig config,
                   LoadCampaign(*database_, campaign_name));
  TargetSlot slot = TargetSlot::Borrow(target_);
  ASSIGN_OR_RETURN(const target::WorkloadSpec workload,
                   target_ != nullptr
                       ? ConfigureTargetWorkload(config, target_)
                       : MintConfiguredTarget(target_factory_, config, slot));

  // Unique child name: count existing children of this experiment.
  std::size_t child_count = 0;
  for (const Row& existing : logged->rows()) {
    if (!existing[1].is_null() &&
        existing[1].AsText() == experiment_name) {
      ++child_count;
    }
  }
  const std::string child_name =
      StrFormat("%s/detail%zu", experiment_name.c_str(), child_count);
  spec.name = child_name;

  // Fail-soft (like the campaign loop): a detail re-run that the tool
  // cannot complete still logs its disposition — with no observation —
  // instead of erroring out of the investigation workflow.
  CampaignConfig detail_config = config;
  detail_config.logging_mode = target::LoggingMode::kDetail;
  const SupervisionPolicy policy =
      ResolveSupervisionPolicy(detail_config, workload.termination);
  ASSIGN_OR_RETURN(SupervisedOutcome outcome,
                   RunSupervisedExperiment(slot, spec, detail_config, policy,
                                           target_factory_));
  if (target_ != nullptr) {
    target_->set_logging_mode(target::LoggingMode::kNormal);
  }
  const bool completed = outcome.disposition.completed();
  RETURN_IF_ERROR(LogExperimentObservation(
      *database_, child_name, experiment_name, campaign_name, &spec,
      completed ? &outcome.observation : nullptr, &outcome.disposition));
  return child_name;
}

}  // namespace goofi::core
