// Campaign execution: the paper's fault-injection phase.
//
// CampaignRunner::FaultInjectorSCIFI(campaign) is the C++ form of
// Fig. 2's `faultInjectorSCIFI(String campaignNr)`:
//   - readCampaignData(campaignNr)   -> LoadCampaign (CampaignData table)
//   - makeReferenceRun()             -> target.MakeReferenceRun(), logged
//   - the per-experiment loop        -> target.RunExperiment() with the
//     paper's phase ordering, each experiment logged to LoggedSystemState
// The same entry point drives pre-runtime/runtime SWIFI campaigns; the
// technique comes from the campaign data (the generic Run() dispatches,
// the named wrappers mirror the paper's method names).
//
// The experiment plan is *deterministic per experiment*: experiment i
// draws its fault from the RNG stream (campaign seed, i), never from a
// shared sequential stream. That makes the plan a pure function of the
// stored campaign row — Resume() regenerates it after a crash, and a
// runner with N workers samples it out of order on worker threads yet
// logs a database bit-identical to a one-worker run.
//
// There is one campaign loop. Each worker runs an experiment executor
// that samples, runs and supervises plan indices on its own target; a
// single writer logs their results in canonical plan order and does
// all summary, progress and commit accounting. The calling thread is
// the writer and the first worker; the worker count (`jobs`) only sets
// how many workers there are, `jobs` - 1 on threads of their own: a
// pure execution choice, invisible in the database.
//
// Progress reporting and pause/stop mirror the paper's progress window
// ("getting information about the number of faults injected and also to
// pause, restart or end the campaign"). While paused no worker starts
// an experiment and nothing is logged; the writer applies a stop
// between two logged rows, so the logged experiments are always a
// prefix of the plan that ends exactly where a stop landed.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <string>

#include "analysis/equivalence.h"
#include "core/campaign.h"
#include "core/location.h"
#include "core/supervision.h"
#include "util/rng.h"
#include "db/database.h"
#include "target/factory.h"
#include "target/fault_injection_algorithms.h"
#include "util/status.h"

namespace goofi::core {

// Fig. 7's pause/restart/end controls, usable from another thread. One
// controller steers a whole run at any worker count: the workers poll
// it before each claim and the writer between two logged rows.
class CampaignController {
 public:
  void Pause() { paused_ = true; }
  void Resume() { paused_ = false; }
  void Stop() { stopped_ = true; }
  // Drain: stop like Stop(), but ALSO suppress the final "stopped"
  // status write. A drained run ends at its last cadence checkpoint
  // with the database byte-identical to a SIGKILL at that commit, so a
  // later Resume() (daemon restart, goofi_tool re-run) produces the
  // same bytes as a never-interrupted run. Only sets lock-free
  // atomics — safe to call from a signal handler.
  void Drain() {
    drain_ = true;
    stopped_ = true;
  }
  bool paused() const { return paused_; }
  bool stopped() const { return stopped_; }
  bool drain_requested() const { return drain_; }

 private:
  std::atomic<bool> paused_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> drain_{false};
};

// A value snapshot of campaign progress. Callbacks always receive their
// own copy (never a reference into runner state), so a callback may
// stash the snapshot or hand it to another thread without racing the
// run loop.
struct ProgressInfo {
  std::size_t experiments_done = 0;
  std::size_t experiments_total = 0;
  std::size_t faults_injected = 0;
  std::string current_experiment;
  // Supervision counters (core/supervision.h): extra attempts consumed
  // by retries, experiments the tool gave up on, target instances
  // quarantined/replaced.
  std::size_t experiment_retries = 0;
  std::size_t experiments_abandoned = 0;
  std::size_t targets_quarantined = 0;
  // Checkpoint-fork counters: experiments started from a golden-run
  // checkpoint instead of reset, and the pre-trigger instructions those
  // forks did not have to replay.
  std::size_t checkpoint_forks = 0;
  std::uint64_t instructions_skipped = 0;
};

using ProgressCallback = std::function<void(ProgressInfo)>;

struct CampaignSummary {
  std::string campaign_name;
  std::string reference_experiment;   // LoggedSystemState key of the golden run
  std::size_t experiments_run = 0;
  std::size_t experiments_stopped_early = 0;  // > 0 if Stop() ended the loop
  target::Observation reference;
  // Pre-injection statistics (when the campaign enables the analysis).
  double register_live_fraction = 0.0;
  std::uint64_t preinjection_resamples = 0;
  // Static pre-run analysis statistics (campaign key `static_analysis`):
  // bits removed from the fault-location space because the workload
  // provably never reads them, and the removed fraction of the
  // unpruned space.
  std::uint64_t static_pruned_bits = 0;
  double static_pruned_fraction = 0.0;
  // Supervision totals: extra attempts retried, experiments abandoned
  // with a non-ok tool status (their rows carry no observation), target
  // instances quarantined. experiments_run includes abandoned ones —
  // every planned experiment ends with a logged disposition.
  std::size_t experiment_retries = 0;
  std::size_t experiments_abandoned = 0;
  std::size_t targets_quarantined = 0;
  // Checkpoint-fork totals (zero when the mode is off or the campaign
  // is ineligible): golden-run checkpoints recorded, experiments forked
  // from one, pre-trigger instructions those forks skipped, and the sum
  // of all instret triggers (what a replay-from-reset run would have
  // executed before its triggers) for speedup accounting.
  std::size_t checkpoints_recorded = 0;
  std::size_t checkpoint_forks = 0;
  std::uint64_t instructions_skipped = 0;
  std::uint64_t trigger_instructions_total = 0;
  // Convergence (telemetry only): forked experiments that rejoined the
  // golden run at a checkpoint boundary and took its outcome, the
  // post-injection instructions they therefore did not simulate, and
  // the post-injection instructions all completed experiments would
  // have simulated without it.
  std::size_t experiments_converged = 0;
  std::uint64_t converged_instructions_skipped = 0;
  std::uint64_t post_injection_instructions_total = 0;
  // Equivalence-partitioning totals (`static_analysis = equivalence`):
  // distinct classes the plan's draws fell into, planned experiments
  // that were logged as duplicates of an earlier representative (no
  // injection run), and the summed weight (member count) of the
  // distinct classes — the fault-space size the representatives stand
  // in for.
  std::size_t equiv_classes = 0;
  std::size_t equiv_duplicates = 0;
  std::uint64_t equiv_space_weight = 0;
};

// ---- the deterministic experiment plan --------------------------------
// Everything needed to regenerate a campaign's experiment list.
// Experiment i's spec is a pure function of (plan, i): its faults come
// from the stream seed DeriveStreamSeed(config->seed, i). The plan is
// read-only during a run, so sharded workers sample from one shared
// instance concurrently.
// The equivalence-partitioning verdict for one planned experiment
// (`static_analysis = equivalence`). Computed once, in plan order, by
// PrepareCampaignRun: experiment i's raw draw falls into a def-use
// equivalence class; the first experiment whose draw lands in a class
// becomes its representative and is physically injected at the class's
// canonical time, every later one is logged as a duplicate stub row
// pointing at the representative. Because the verdict depends only on
// (plan, draw) — never on execution — serial and sharded runs agree.
struct PlannedEquivalence {
  std::string class_id;              // analysis::EquivalenceClassId
  std::uint64_t weight = 1;          // class member count (window-clamped)
  std::uint64_t canonical_time = 0;  // the one injection time reps use
  std::size_t representative = 0;    // plan index of the class's rep
};

struct ExperimentPlan {
  const CampaignConfig* config = nullptr;
  const LocationSpace* space = nullptr;
  // The target's location list (the pc/data_read/data_write trigger
  // kinds sample addresses from its memory ranges). Identical across
  // factory-made worker instances of the same target.
  std::vector<target::TargetSystemInterface::LocationInfo> locations;
  std::uint64_t window_lo = 1;
  std::uint64_t window_hi = 1;
  // The golden run's def-use index as the pre-injection liveness filter
  // (null = filter off).
  const analysis::FaultSpacePartition* preinjection = nullptr;
  // The golden run to fork experiments from (null = replay every
  // experiment from reset). Each forks from its boundary nearest below
  // the trigger, and the golden run goes to the experiment's target
  // beside it, so it can stop once it rejoins the golden run. Read-only
  // during the run, like the rest of the plan.
  std::shared_ptr<const target::GoldenRun> golden_run;
  // Per-experiment equivalence verdicts, index-aligned with the plan
  // (null = equivalence mode off). When set, SampleExperimentSpec pins
  // each experiment's trigger to its class's canonical time.
  const std::vector<PlannedEquivalence>* equivalence = nullptr;
};

// The canonical name of experiment `index`: "<campaign>/exp00042".
// Resume() counts a campaign's logged experiments by this name,
// regardless of which worker (or how many) logged them.
std::string ExperimentName(const std::string& campaign_name,
                           std::size_t index);

// Sample experiment `index` of the plan. `resamples` accumulates the
// draws the pre-injection analysis rejected (left untouched when the
// analysis is off).
Result<target::ExperimentSpec> SampleExperimentSpec(
    const ExperimentPlan& plan, std::size_t index, std::uint64_t* resamples);

// Append one experiment (or reference, spec == nullptr) row to
// LoggedSystemState. `observation` may be null for an abandoned
// experiment (the tool never completed a run; the state_vector column
// stays NULL). `disposition` may be null, meaning the default
// first-try/ok/no-quarantine disposition.
// `equivalence` fills the equiv_class/equiv_weight columns (null =
// leave them NULL; only equivalence-mode campaigns set them).
Status LogExperimentObservation(db::Database& database,
                                const std::string& experiment_name,
                                const std::string& parent,
                                const std::string& campaign_name,
                                const target::ExperimentSpec* spec,
                                const target::Observation* observation,
                                const ExperimentDisposition* disposition,
                                const PlannedEquivalence* equivalence = nullptr);

// The shared front half of a campaign run: load the stored campaign,
// install the workload on `reference_target`, run the static analysis,
// make (and log) the reference run, build the def-use index and the
// location space / time window. The returned value owns everything
// MakePlan() points into; keep it alive for the whole run.
struct PreparedCampaign {
  CampaignConfig config;
  // The first experiment to run: 0, or a resume's logged prefix length.
  std::size_t first = 0;
  LocationSpace space;
  // The golden run's def-use index: built once when the campaign
  // enables the liveness filter (`use_preinjection`) or equivalence
  // partitioning, both of which read it.
  analysis::FaultSpacePartition def_use;
  bool use_preinjection = false;
  std::vector<target::TargetSystemInterface::LocationInfo> locations;
  std::uint64_t window_lo = 1;
  std::uint64_t window_hi = 1;
  // The workload's tool-level termination defaults; the supervision
  // policy derives its watchdog deadline from these when the campaign
  // sets no explicit experiment_timeout_ms.
  target::TerminationSpec workload_termination{0, 0};
  // The recorded golden run (checkpoint-fork execution): boundary
  // snapshots with their memory read-ahead sets, and the final
  // observation. Non-null only when the campaign enables the mode (or a
  // runner override forces it) AND the campaign is eligible: instret
  // triggers, normal logging, not pre-runtime SWIFI, and a target that
  // supports snapshot fork. Null means every experiment replays from
  // reset; the logged database is identical either way.
  std::shared_ptr<const target::GoldenRun> golden_run;
  // Equivalence-mode planning (static_analysis = equivalence): one
  // verdict per planned experiment, in plan order. Empty when the mode
  // is off.
  std::vector<PlannedEquivalence> equivalence;
  // Prefilled with the reference observation and static-analysis stats.
  CampaignSummary summary;

  ExperimentPlan MakePlan() const {
    ExperimentPlan plan;
    plan.config = &config;
    plan.space = &space;
    plan.locations = locations;
    plan.window_lo = window_lo;
    plan.window_hi = window_hi;
    plan.preinjection = use_preinjection ? &def_use : nullptr;
    plan.golden_run = golden_run;
    plan.equivalence =
        config.static_analysis == StaticAnalysis::kEquivalence ? &equivalence
                                                               : nullptr;
    return plan;
  }
};

// `checkpoint_override` forces checkpoint-fork execution on or off for
// this run only, regardless of the stored campaign's checkpoint_mode.
// Execution-only: the CampaignData row is not rewritten, so a forked
// run and a replayed run of the same campaign store identical rows
// (the CI smoke job diffs exactly that). A `resume` whose logged rows
// are not a plan prefix fails DataLoss before anything is written.
Result<PreparedCampaign> PrepareCampaignRun(
    db::Database& database, target::TargetSystemInterface* reference_target,
    const std::string& campaign_name, bool resume,
    std::optional<bool> checkpoint_override = std::nullopt);

class CampaignRunner {
 public:
  // `database` and `target` must outlive the runner. The target must
  // already have its workload configured *or* the campaign's workload
  // must name a built-in one (then the runner configures it). The
  // target makes the reference run and, unless set_target_factory()
  // gives the runner a way to mint abandonable instances, every
  // experiment as well, on the calling thread (the run's one worker).
  CampaignRunner(db::Database* database,
                 target::TargetSystemInterface* target);

  // A runner that mints every target it uses from `factory`: one for
  // the reference run and one per worker. `jobs` is the worker count
  // (clamped to >= 1). The database is only ever touched from the
  // thread that calls Run()/Resume() (the single writer), and it comes
  // out bit-identical at every worker count.
  CampaignRunner(db::Database* database, target::TargetFactory factory,
                 std::size_t jobs);

  void set_progress_callback(ProgressCallback callback) {
    progress_ = std::move(callback);
  }
  void set_controller(CampaignController* controller) {
    controller_ = controller;
  }

  // Crash tolerance for long campaigns: group-commit the database's WAL
  // (append + sync of the batched rows) after every `every_n` logged
  // experiments, counted in canonical order, so the log bytes do not
  // depend on the worker count. The WAL must be attached at
  // `directory`; a checkpoint fails FailedPrecondition otherwise. After
  // a crash, Open() the directory and Resume() the campaign.
  void set_checkpoint(std::string directory, std::size_t every_n) {
    checkpoint_directory_ = std::move(directory);
    checkpoint_every_ = every_n;
  }

  // Give the runner a way to mint fresh target instances. With a
  // factory, experiments run on factory-made instances under the full
  // supervision discipline: a wedged instance is abandoned to the
  // reaper and replaced (quarantine). Without one, the caller-owned
  // target is reused for every attempt and over-deadline runs are only
  // classified after they return.
  void set_target_factory(target::TargetFactory factory) {
    target_factory_ = std::move(factory);
  }

  // Force checkpoint-fork execution on or off for this runner's runs,
  // overriding the stored campaign's checkpoint_mode. std::nullopt
  // (default) honours the campaign configuration.
  void set_checkpoint_fork(std::optional<bool> enabled) {
    checkpoint_override_ = enabled;
  }

  // Run a stored campaign end to end (any technique).
  Result<CampaignSummary> Run(const std::string& campaign_name);

  // Continue a previously stopped campaign from the end k of its logged
  // prefix [0, k) (every experiment's spec regenerates from its (seed,
  // index) stream); logged rows that are not such a prefix fail
  // DataLoss. Any worker count; resuming a completed campaign is a
  // no-op.
  Result<CampaignSummary> Resume(const std::string& campaign_name);

  // Paper-named wrappers; each checks that the stored campaign uses the
  // matching technique.
  Result<CampaignSummary> FaultInjectorSCIFI(const std::string& campaign);
  Result<CampaignSummary> FaultInjectorSWIFI(const std::string& campaign);

  // Re-run one logged experiment in detail mode, logging the result as a
  // new experiment whose parentExperiment refers to the original (the
  // paper's E1/E2 fail-silence investigation workflow, §2.3).
  Result<std::string> ReRunInDetailMode(const std::string& experiment_name);

 private:
  Result<CampaignSummary> RunInternal(const std::string& campaign_name,
                                      bool resume);

  db::Database* database_;
  target::TargetSystemInterface* target_ = nullptr;
  target::TargetFactory target_factory_;
  std::size_t jobs_ = 1;
  ProgressCallback progress_;
  CampaignController* controller_ = nullptr;
  std::string checkpoint_directory_;
  std::size_t checkpoint_every_ = 0;
  std::optional<bool> checkpoint_override_;
};

// The runner under its sharded-execution name.
using ParallelCampaignRunner = CampaignRunner;

}  // namespace goofi::core
