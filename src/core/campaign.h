// Campaign configuration: the set-up phase of the tool.
//
// In the paper the user fills the configuration and set-up GUI windows
// (Figs. 5, 6); here campaigns are declarative config files (or structs
// built in code) whose contents are stored in — and re-read from — the
// CampaignData table, exactly as the GUI stores its selections
// ("The selections made by the user in the set-up phase are stored in
// the database table CampaignData").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/linter.h"
#include "db/database.h"
#include "target/fault_injection_algorithms.h"
#include "target/target_types.h"
#include "util/config.h"
#include "util/status.h"

namespace goofi::core {

// How a runtime experiment's injection point is chosen (`trigger` key).
enum class TriggerKind {
  kInstret,    // the sampled instruction count (default)
  kPc,         // a sampled code address is fetched
  kDataRead,   // a sampled data address is loaded
  kDataWrite,  // a sampled data address is stored
  kBranch,     // the n-th taken branch
  kCall,       // the n-th call
  kRtc,        // a real-time-clock deadline
};
const char* TriggerKindName(TriggerKind kind);

// The `static_analysis` key, stored as 0/1/2 in CampaignData.
enum class StaticAnalysis {
  // No pre-run analysis.
  kOff,
  // Before any run, drop fault locations the workload provably never
  // reads (registers dead on every static path; src/analysis).
  // Strictly coarser than the dynamic `preinjection` filter; the two
  // compose.
  kLiveness,
  // Beyond pruning, partition the fault space into def-use equivalence
  // classes (analysis/equivalence) and physically inject only one
  // representative per class; every other member is logged as a stub
  // row pointing at its representative. Forces the reference-run
  // access trace to be recorded. The analysis stage extrapolates class
  // outcomes to the full space by class weight.
  kEquivalence,
};

// One campaign's settings. Every field that a [campaign] key or a
// CampaignData column carries is declared once, with its ini key, its
// column, its type and its validator, in campaign.cpp's key table; the
// defaults are the initializers below. README.md lists the keys.
struct CampaignConfig {
  std::string name;
  std::string target = "thor_rd";
  target::Technique technique = target::Technique::kScifi;
  std::string workload;
  std::uint32_t num_experiments = 100;
  std::uint64_t seed = 1;

  target::FaultModel model;
  std::uint32_t multiplicity = 1;  // bits flipped per experiment

  // Access-path fault model name ("cache_data_bit", "cache_tag_bit",
  // "cache_parity_bit", "inflight_load_bit"; target/cache_target.h) when
  // the `fault_model` key names one instead of a temporal kind. Empty
  // for ordinary campaigns. It narrows the sampled location space to the
  // model's coordinate family (core/runner); the temporal model stays
  // `model` (transient for all four).
  std::string cache_fault_model;

  // Glob patterns over location names ("cpu.regs.*", "icache.*",
  // "mem.*"); empty = every writable location the technique can reach.
  std::vector<std::string> location_filters;

  // Injection-time window in executed instructions; 0,0 = the full
  // reference-run duration.
  std::uint64_t time_window_lo = 0;
  std::uint64_t time_window_hi = 0;
  TriggerKind trigger_kind = TriggerKind::kInstret;

  // Termination overrides (0 = the workload's defaults).
  target::TerminationSpec termination{0, 0};

  target::LoggingMode logging_mode = target::LoggingMode::kNormal;

  // Paper §4 extension: sample only (location, time) points that hold
  // live data, using the reference run's access trace.
  bool use_preinjection_analysis = false;

  StaticAnalysis static_analysis = StaticAnalysis::kOff;

  // How many workers execute the campaign (`jobs` key; the calling
  // thread is the first). An execution knob, not part of the campaign's
  // identity: the runner's determinism guarantee makes any
  // worker count produce the same database, so this is deliberately
  // NOT stored in CampaignData and never affects results.
  std::uint32_t jobs = 1;

  // ---- supervision (core/supervision.h) ---------------------------------
  // Wall-clock watchdog deadline per experiment attempt, in ms. 0 =
  // derive from the workload's tool-level instruction budget. Unlike
  // `jobs`, these ARE stored in CampaignData: an abandoned experiment's
  // disposition depends on them, so they are part of the campaign record.
  std::uint64_t experiment_timeout_ms = 0;
  // Retries after a retryable tool-level failure (hang/target/transport);
  // 0 = fail an experiment on its first bad attempt.
  std::uint32_t max_retries = 0;
  // Base backoff before retry n: backoff * 2^(n-1), capped. 0 = none.
  std::uint64_t retry_backoff_ms = 0;

  // ---- checkpoint-fork execution (target/golden_run.h) -----------------
  // Memoize the golden run as a series of snapshots and start each
  // experiment from the checkpoint nearest below its trigger instead of
  // replaying from reset. Results are bit-identical either way (the
  // dump-equality suite proves it), but like the supervision keys these
  // ARE stored in CampaignData: the stride is part of how the campaign
  // was executed, and resuming must reuse it.
  bool checkpoint_mode = false;
  // Instructions between recorded checkpoints. 0 = a tenth of the
  // workload's tool-level instruction budget.
  std::uint64_t checkpoint_stride = 0;

  friend bool operator==(const CampaignConfig&,
                         const CampaignConfig&) = default;
};

// One problem with an ini section, anchored to the key whose line
// shows it. The parser returns the first as an error; goofi-lint
// reports every one under its check id.
struct KeyProblem {
  std::string key;    // the ini key; empty for the section as a whole
  const char* check;  // goofi-lint check id, e.g. "bad-value"
  std::string message;
};

// ---- config file <-> struct ------------------------------------------
// File format: a [campaign] section, e.g.
//   [campaign]
//   name = regs_scifi
//   target = thor_rd
//   technique = scifi
//   workload = isort
//   experiments = 500
//   seed = 42
//   fault_model = transient
//   multiplicity = 1
//   location[] = cpu.regs.*
//   logging = normal
// README.md lists every key with its type, default and column. A key
// that is present but does not parse, or does not fit its field (a
// negative count, an unknown name), is an InvalidArgument naming the
// key; unknown keys are ignored here and warned about by goofi-lint.
Result<CampaignConfig> ParseCampaignConfig(const ConfigSection& section);
// The ini text's [campaign] section, parsed. The one entry point for
// campaign files and submissions.
Result<CampaignConfig> ParseCampaignText(const std::string& text);

// Every problem ParseCampaignConfig rejects, in key-table order:
// missing-key, unknown-value and bad-value problems. `config` receives
// every key that did parse.
std::vector<KeyProblem> CheckCampaignSection(const ConfigSection& section,
                                             CampaignConfig* config);
// The [campaign] keys, in CampaignData column order.
std::vector<std::string> CampaignIniKeys();

// Settings the runner rejects (FailedPrecondition, first problem) when
// static_analysis = equivalence: the outcome-homogeneity argument
// (analysis/equivalence.h) needs one transient flip at an instret
// trigger, injected at runtime and logged in normal mode.
std::vector<KeyProblem> EquivalenceViolations(const CampaignConfig& config);
// Settings that make checkpoint-fork execution fall back to replaying
// every experiment from reset (forking is only bit-exact for instret
// triggers, normal logging and runtime injection).
std::vector<KeyProblem> CheckpointForkBlockers(const CampaignConfig& config);

// ---- goofi-lint (campaign_lint.cpp) ------------------------------------
// Lints a campaign or goofi_serve deployment ini. The [campaign] checks
// walk the key table, so every missing-key, unknown-value and bad-value
// error is a value ParseCampaignText rejects, and every rejection is a
// lint error (at the line whose value counts, in line order). Besides:
// unknown keys (warnings), unknown workload names, the equivalence
// rules, settings the machinery ignores, and, when `locations` is
// non-null, location filters that select nothing the technique can
// inject into (LocationSpace::Build's rule). A [service] section gets
// the daemon's boot rules: ServiceCount's, max_campaign_jobs within the
// fleet, unknown-key warnings; a file with only a [service] section is
// complete without a [campaign] one.
std::vector<analysis::LintDiagnostic> LintCampaignText(
    const std::string& file, const std::string& text,
    const std::vector<target::TargetSystemInterface::LocationInfo>*
        locations);
// A [service] count (fleet_workers, queue_limit, max_campaign_jobs):
// `fallback` when absent, else ParseServiceCount's rule. goofi_serve
// boots through it.
Result<std::size_t> ServiceCount(const ConfigSection& section,
                                 const std::string& key,
                                 std::size_t fallback);
// The count rule on one value: an integer >= 1, or InvalidArgument
// naming `name` (the ini key, or the goofi_serve flag that set it).
Result<std::size_t> ParseServiceCount(const std::string& name,
                                      const std::string& value);

// ---- database round trip -----------------------------------------------
// The CampaignData CREATE TABLE statement, generated from the key table.
std::string CampaignDataTableSql();
// Insert (or error on duplicate) the campaign into CampaignData with
// status 'configured'. The target must already be registered.
Status StoreCampaign(db::Database& database, const CampaignConfig& config);
// Cells are found by column name. An absent or NULL optional column
// loads as the key's default; an absent NOT NULL column or a cell of
// the wrong type is DataLoss.
Result<CampaignConfig> LoadCampaign(const db::Database& database,
                                    const std::string& campaign_name);

// The campaign's run status ("configured", "running", "completed");
// NotFound when no such campaign is stored.
Result<std::string> LoadCampaignRunStatus(const db::Database& database,
                                          const std::string& campaign_name);
// Rewrite the campaign's status/experiments_done columns.
Status UpdateCampaignRunStatus(db::Database& database,
                               const std::string& campaign_name,
                               const std::string& status,
                               std::size_t experiments_done);

// Merge several stored campaigns into a new one (paper §3.2: "merge
// campaign data from several fault injection campaigns into a new fault
// injection campaign"): the new campaign takes base's settings, unions
// the location filters, and sums the experiment counts. All sources must
// share target/technique/workload.
Result<CampaignConfig> MergeCampaigns(
    db::Database& database, const std::vector<std::string>& sources,
    const std::string& merged_name);

// ---- target registration (configuration phase, paper Fig. 5) ----------
// Store the target's identity and its location list (TargetSystemData +
// TargetLocation rows). Idempotent per target name.
Status RegisterTargetSystem(db::Database& database,
                            target::TargetSystemInterface& target,
                            const std::string& test_card_name,
                            const std::string& description);

// The set-up phase's inverse (paper §3.2: "the corresponding target
// system data is interpreted presenting the user with an overview of
// the possible fault locations"): rebuild the location list from the
// stored TargetLocation rows, without a live target.
Result<std::vector<target::TargetSystemInterface::LocationInfo>>
LoadTargetLocations(db::Database& database, const std::string& target_name);

}  // namespace goofi::core
