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

#include "db/database.h"
#include "target/fault_injection_algorithms.h"
#include "target/target_types.h"
#include "util/config.h"
#include "util/status.h"

namespace goofi::core {

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
  // Trigger kind: "instret" (default), "pc", "data_read", "data_write",
  // "branch", "call", "rtc".
  std::string trigger_kind = "instret";

  // Termination overrides (0 = the workload's defaults).
  target::TerminationSpec termination{0, 0};

  target::LoggingMode logging_mode = target::LoggingMode::kNormal;

  // Paper §4 extension: sample only (location, time) points that hold
  // live data, using the reference run's access trace.
  bool use_preinjection_analysis = false;

  // Static counterpart (src/analysis): before any run, drop fault
  // locations the workload provably never reads (registers that are
  // dead on every static path). Strictly coarser than the dynamic
  // analysis above — the two compose.
  bool use_static_analysis = false;

  // `static_analysis = equivalence`: beyond pruning, partition the
  // fault space into def-use equivalence classes (analysis/equivalence)
  // and physically inject only one representative per class; every
  // other member is logged as a stub row pointing at its
  // representative. Implies use_static_analysis (and forces the
  // reference-run access trace to be recorded). The analysis stage
  // extrapolates class outcomes to the full space by class weight.
  bool use_equivalence = false;

  // How many workers execute the campaign (`jobs` key; 1 = inline on
  // the calling thread). An execution knob, not part of the campaign's
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

  // ---- checkpoint-fork execution (core/checkpoint.h) --------------------
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
Result<CampaignConfig> ParseCampaignConfig(const ConfigSection& section);
Result<CampaignConfig> LoadCampaignConfigFile(const std::string& path);

// ---- database round trip -----------------------------------------------
// Insert (or error on duplicate) the campaign into CampaignData with
// status 'configured'. The target must already be registered.
Status StoreCampaign(db::Database& database, const CampaignConfig& config);
Result<CampaignConfig> LoadCampaign(db::Database& database,
                                    const std::string& campaign_name);

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
