// goofi-lint for campaign and goofi_serve deployment inis; the
// declarations are in core/campaign.h, next to the key table.
#include "core/campaign.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "core/location.h"
#include "target/cache_target.h"
#include "target/target_types.h"
#include "target/workloads.h"
#include "util/strings.h"

namespace goofi::core {
namespace {

using analysis::LineOfKey;
using analysis::LintDiagnostic;
using Severity = LintDiagnostic::Severity;

void Add(std::vector<LintDiagnostic>* out, Severity severity,
         const std::string& file, int line, const std::string& check,
         std::string message) {
  out->push_back({severity, file, line, check, std::move(message)});
}

// The daemon's default fleet (service::ServiceConfig), for the
// jobs-within-fleet check when the ini leaves it unset.
constexpr std::size_t kDefaultFleetWorkers = 4;

void LintServiceSection(const std::string& file, const std::string& text,
                        const ConfigSection& section,
                        std::vector<LintDiagnostic>* out) {
  static const std::set<std::string> kKnownKeys = {
      "root", "socket", "fleet_workers", "queue_limit", "max_campaign_jobs"};
  for (const auto& [key, value] : section.entries()) {
    (void)value;
    if (kKnownKeys.count(key) == 0) {
      Add(out, Severity::kWarning, file, LineOfKey(text, key), "unknown-key",
          "unknown [service] key '" + key + "'");
    }
  }
  for (const char* key :
       {"fleet_workers", "queue_limit", "max_campaign_jobs"}) {
    const auto count = ServiceCount(section, key, 0);
    if (!count.ok()) {
      Add(out, Severity::kError, file, LineOfKey(text, key, true),
          "bad-value", count.status().message());
    }
  }
  const auto fleet =
      ServiceCount(section, "fleet_workers", kDefaultFleetWorkers);
  const auto jobs = ServiceCount(section, "max_campaign_jobs", 0);
  if (fleet.ok() && jobs.ok() && *jobs > *fleet) {
    Add(out, Severity::kError, file, LineOfKey(text, "max_campaign_jobs"),
        "jobs-exceed-fleet",
        StrFormat("max_campaign_jobs (%zu) exceeds fleet_workers (%zu): "
                  "no campaign can ever be allocated that many workers",
                  *jobs, *fleet));
  }
}

}  // namespace

Result<std::size_t> ParseServiceCount(const std::string& name,
                                      const std::string& value) {
  const std::optional<std::int64_t> count = ParseInt64(value);
  if (!count) {
    return InvalidArgumentError(StrFormat("%s must be an integer, got '%s'",
                                          name.c_str(), value.c_str()));
  }
  if (*count < 1) {
    return InvalidArgumentError(
        name + " must be >= 1" +
        (name == "queue_limit" || name == "--queue"
             ? " (the daemon needs at least one submission slot)"
             : ""));
  }
  return static_cast<std::size_t>(*count);
}

Result<std::size_t> ServiceCount(const ConfigSection& section,
                                 const std::string& key,
                                 std::size_t fallback) {
  const std::optional<std::string> value = section.GetString(key);
  if (!value) return fallback;
  return ParseServiceCount(key, *value);
}

std::vector<LintDiagnostic> LintCampaignText(
    const std::string& file, const std::string& text,
    const std::vector<target::TargetSystemInterface::LocationInfo>*
        locations) {
  std::vector<LintDiagnostic> out;
  const auto parsed = Config::Parse(text);
  if (!parsed.ok()) {
    std::string message = parsed.status().message();
    const int line = analysis::ExtractLineNumber(&message);
    Add(&out, Severity::kError, file, line, "ini-error", message);
    return out;
  }
  const ConfigSection* service = parsed->FindSection("service");
  if (service != nullptr) {
    LintServiceSection(file, text, *service, &out);
  }
  const ConfigSection* section = parsed->FindSection("campaign");
  if (section == nullptr) {
    // A pure [service] deployment ini is a complete file on its own.
    if (service == nullptr) {
      Add(&out, Severity::kError, file, 0, "missing-section",
          "no [campaign] section");
    }
    return out;
  }

  const std::vector<std::string> known = CampaignIniKeys();
  for (const auto& [key, value] : section->entries()) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      Add(&out, Severity::kWarning, file, LineOfKey(text, key),
          "unknown-key", "unknown [campaign] key '" + key + "'");
    }
  }

  // Every value the parser rejects, in line order, each at the line
  // whose value counts; the checks below read the keys that did parse
  // (the rest keep their defaults).
  CampaignConfig config;
  std::vector<LintDiagnostic> rejected;
  for (const KeyProblem& problem : CheckCampaignSection(*section, &config)) {
    Add(&rejected, Severity::kError, file,
        problem.key.empty() ? 0 : LineOfKey(text, problem.key, true),
        problem.check, problem.message);
  }
  std::stable_sort(rejected.begin(), rejected.end(),
                   [](const LintDiagnostic& a, const LintDiagnostic& b) {
                     return a.line < b.line;
                   });
  out.insert(out.end(), rejected.begin(), rejected.end());

  target::TerminationSpec workload_termination;
  if (!config.workload.empty()) {
    const auto builtin = target::GetBuiltinWorkload(config.workload);
    if (builtin.ok()) {
      workload_termination = builtin->termination;
    } else {
      Add(&out, Severity::kError, file, LineOfKey(text, "workload"),
          "unknown-workload",
          "unknown workload '" + config.workload +
              "' (the campaign runner resolves workloads by built-in "
              "name: " +
              JoinStrings(target::BuiltinWorkloadNames(), ", ") + ")");
    }
  }

  if (section->Has("experiments") && config.num_experiments == 0) {
    Add(&out, Severity::kWarning, file, LineOfKey(text, "experiments"),
        "bad-value", "campaign runs no experiments");
  }

  // Keys that are set but do nothing under the rest of the settings. A
  // retry budget without a watchdog deadline lets a *wedged* (not
  // cleanly failing) target block the campaign forever on the very
  // attempt the retries are meant to survive (core/supervision.h).
  const bool intermittent =
      config.model.kind == target::FaultModel::Kind::kIntermittentBitFlip;
  const bool pre_runtime =
      config.technique == target::Technique::kSwifiPreRuntime;
  const struct {
    const char* key;
    bool fires;
    const char* check;
    const char* message;
  } rules[] = {
      {"intermittent_period", !intermittent, "ignored-key",
       "'intermittent_period' only applies to fault_model = intermittent"},
      {"intermittent_occurrences", !intermittent, "ignored-key",
       "'intermittent_occurrences' only applies to fault_model = "
       "intermittent"},
      {"stuck_to_one",
       config.model.kind != target::FaultModel::Kind::kPermanentStuckAt,
       "ignored-key", "'stuck_to_one' only applies to fault_model = permanent"},
      {"trigger", pre_runtime, "ignored-key",
       "pre-runtime SWIFI has no trigger phase; 'trigger' is ignored"},
      {"max_retries",
       config.max_retries > 0 && !section->Has("experiment_timeout_ms"),
       "retry-without-timeout",
       "'max_retries' without 'experiment_timeout_ms': a hung (not "
       "failing) experiment attempt is only detected by the watchdog "
       "deadline; set experiment_timeout_ms (or rely on the derived "
       "default only if the workload's instruction budget is set)"},
      {"retry_backoff_ms", config.max_retries == 0, "ignored-key",
       "'retry_backoff_ms' only applies when max_retries > 0"},
      {"checkpoint_stride", !config.checkpoint_mode, "ignored-key",
       "'checkpoint_stride' only applies when checkpoint_mode = true"},
  };
  for (const auto& rule : rules) {
    if (rule.fires && section->Has(rule.key)) {
      Add(&out, Severity::kWarning, file, LineOfKey(text, rule.key),
          rule.check, rule.message);
    }
  }
  // A stride past the workload's tool-level instruction budget records
  // no checkpoint beyond the boot snapshot, silently degrading every
  // fork to replay-from-reset (target/golden_run.h).
  if (config.checkpoint_mode) {
    const std::uint64_t budget = target::EffectiveInstructionBudget(
        config.termination, workload_termination);
    if (config.checkpoint_stride > budget) {
      Add(&out, Severity::kWarning, file,
          LineOfKey(text, "checkpoint_stride"), "stride-past-budget",
          StrFormat("checkpoint_stride (%llu) exceeds the workload's "
                    "tool-level instruction budget (%llu): only the boot "
                    "snapshot is recorded and forking saves nothing",
                    static_cast<unsigned long long>(config.checkpoint_stride),
                    static_cast<unsigned long long>(budget)));
    }
    for (const KeyProblem& problem : CheckpointForkBlockers(config)) {
      Add(&out, Severity::kWarning, file, LineOfKey(text, problem.key),
          problem.check, problem.message);
    }
  }
  if (pre_runtime && config.static_analysis != StaticAnalysis::kOff) {
    Add(&out, Severity::kWarning, file, LineOfKey(text, "static_analysis"),
        "ignored-key",
        "static analysis prunes register scan elements only; pre-runtime "
        "SWIFI cannot inject into them anyway");
  }
  if (config.static_analysis == StaticAnalysis::kEquivalence) {
    for (const KeyProblem& problem : EquivalenceViolations(config)) {
      Add(&out, Severity::kError, file, LineOfKey(text, problem.key),
          problem.check, problem.message);
    }
  }

  if (locations != nullptr) {
    // The extent of the advertised cache-coordinate family, for the
    // out-of-range diagnosis below (coordinates count from set0/word0,
    // so the largest advertised index bounds the geometry).
    bool has_cache_coordinates = false;
    std::uint32_t max_set = 0;
    std::uint32_t max_word = 0;
    for (const auto& info : *locations) {
      if (const auto coordinate = target::ParseCacheCoordinate(info.name)) {
        has_cache_coordinates = true;
        max_set = std::max(max_set, coordinate->set);
        max_word = std::max(max_word, coordinate->word);
      }
    }
    // Whether `glob` selects anything the technique can inject into,
    // by the runner's own rule.
    const auto selects = [&](const std::string& glob) {
      return LocationSpace::Build(*locations, config.technique, {glob}).ok();
    };
    // A cache fault model only injects into its coordinate family; a
    // target that advertises no cache coordinates (anything but
    // cache_hierarchy) gives the campaign an empty fault space.
    if (const auto cache_model =
            target::CacheFaultModelFromName(config.cache_fault_model)) {
      const char* family_glob =
          target::CacheFaultModelLocationGlob(*cache_model);
      if (!selects(family_glob)) {
        Add(&out, Severity::kError, file, LineOfKey(text, "fault_model"),
            "cache-model-without-geometry",
            StrFormat("fault model '%s' needs '%s' cache coordinates "
                      "technique '%s' can reach, and the campaign's target "
                      "advertises none (set target = cache_hierarchy and "
                      "technique = scifi)",
                      target::CacheFaultModelName(*cache_model), family_glob,
                      target::TechniqueName(config.technique)));
      }
    }
    for (const std::string& filter : config.location_filters) {
      if (selects(filter)) continue;
      // A concrete cache coordinate that misses every advertised
      // location on a target that does have the family is not a glob
      // typo — it indexes past the real geometry.
      const auto coordinate = target::ParseCacheCoordinate(filter);
      if (coordinate.has_value() && has_cache_coordinates) {
        Add(&out, Severity::kError, file, LineOfKey(text, "location"),
            "coordinate-out-of-range",
            StrFormat("cache coordinate '%s' is outside the target's "
                      "geometry (largest advertised set is set%u, largest "
                      "word is word%u)",
                      filter.c_str(), max_set, max_word));
        continue;
      }
      Add(&out, Severity::kError, file, LineOfKey(text, "location"),
          "filter-matches-nothing",
          "location filter '" + filter + "' selects nothing technique '" +
              std::string(target::TechniqueName(config.technique)) +
              "' can inject into");
    }
  }
  return out;
}

}  // namespace goofi::core
