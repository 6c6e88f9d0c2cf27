#include "core/campaign.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>

#include "core/goofi_schema.h"
#include "target/cache_target.h"
#include "util/strings.h"

namespace goofi::core {

using db::Row;
using db::Value;

namespace {

constexpr const char* kTriggerKindNames[] = {
    "instret", "pc", "data_read", "data_write", "branch", "call", "rtc"};

// ---- cells ----------------------------------------------------------------
// Enumerations stored by name, indexed by enumerator (matched in any
// case); no other field type has names.
template <typename T>
constexpr std::span<const char* const> kNames;
template <>
constexpr std::span<const char* const> kNames<target::Technique> =
    target::kTechniqueNames;
template <>
constexpr std::span<const char* const> kNames<target::FaultModel::Kind> =
    target::kFaultModelKindNames;
template <>
constexpr std::span<const char* const> kNames<target::LoggingMode> =
    target::kLoggingModeNames;
template <>
constexpr std::span<const char* const> kNames<TriggerKind> = kTriggerKindNames;

template <typename T>
constexpr bool kTextCell = std::is_same_v<T, std::string> ||
                           std::is_same_v<T, std::vector<std::string>> ||
                           !kNames<T>.empty();
// The largest value an INTEGER cell of a narrower-than-64-bit field holds.
template <typename T>
constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
template <>
constexpr std::uint64_t kMax<StaticAnalysis> = 2;

// A field's CampaignData cell: text, '|'-joined globs and enumeration
// names are TEXT; integers, booleans and static_analysis (0/1/2) are
// INTEGER, a 64-bit field as its int64 bit pattern.
template <typename T>
Value Store(const T& field) {
  if constexpr (std::is_same_v<T, std::string>) {
    return Value::Text_(field);
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    return Value::Text_(JoinStrings(field, "|"));
  } else if constexpr (kTextCell<T>) {
    return Value::Text_(kNames<T>[static_cast<std::size_t>(field)]);
  } else {
    return Value::Integer(static_cast<std::int64_t>(field));
  }
}

// Store's inverse; false on a cell of the wrong type, range or name.
template <typename T>
bool Load(const Value& cell, T& field) {
  if (cell.type() !=
      (kTextCell<T> ? db::ValueType::kText : db::ValueType::kInteger)) {
    return false;
  }
  if constexpr (std::is_same_v<T, std::string>) {
    field = cell.AsText();
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    field.clear();
    if (!cell.AsText().empty()) field = SplitString(cell.AsText(), '|');
  } else if constexpr (kTextCell<T>) {
    const auto name = std::find_if(
        kNames<T>.begin(), kNames<T>.end(), [&](const char* known) {
          return EqualsIgnoreCase(known, cell.AsText());
        });
    if (name == kNames<T>.end()) return false;
    field = static_cast<T>(name - kNames<T>.begin());
  } else {
    const std::int64_t value = cell.AsInteger();
    if (sizeof(T) < sizeof(value) &&
        (value < 0 || static_cast<std::uint64_t>(value) > kMax<T>)) {
      return false;
    }
    field = static_cast<T>(value);
  }
  return true;
}

// ---- the key table --------------------------------------------------------

// How a key's ini text becomes its cell.
enum class Ini {
  kText,        // as is; a name must be known
  kRequired,    // as is; must be present and non-empty
  kList,        // `key[] = glob`, repeated; '|'-joined like the cell
  kFaultModel,  // a temporal kind, or an access-path model (ParseKey)
  kUnsigned,    // an integer >= 0 that fits the field
  kCount,       // an integer >= 1 that fits the field
  kSeed,        // any 64-bit integer, signed or not (two's complement)
  kBoolean,     // true/false, yes/no, on/off, 1/0
  kAnalysis,    // a boolean, or "equivalence"
};

struct CampaignKey {
  const char* ini_key;  // null: a column no ini key sets
  const char* column;   // null: an execution knob, never stored
  const char* sql;      // the column's type, then its constraint if any
  Ini ini;
  Value (*store)(const CampaignConfig& config);
  bool (*load)(const Value& cell, CampaignConfig& config);  // null: no field
};

// Binds a key to the CampaignConfig field `Access` selects (a
// captureless lambda returning a reference to it), so the field is
// named once and its type picks Store and Load.
template <typename Access>
constexpr CampaignKey Key(const char* ini_key, const char* column,
                          const char* sql, Ini ini, Access) {
  return {ini_key, column, sql, ini,
          [](const CampaignConfig& config) { return Store(Access{}(config)); },
          [](const Value& cell, CampaignConfig& config) {
            return Load(cell, Access{}(config));
          }};
}
#define FIELD(field) [](auto& c) -> auto& { return c.field; }

constexpr const char* kNameColumn = "campaign_name";
constexpr const char* kStatusColumn = "status";
constexpr const char* kExperimentsDoneColumn = "experiments_done";

// Every [campaign] key and CampaignData column, in column order.
// ParseCampaignConfig, goofi-lint, the CampaignData schema,
// StoreCampaign and LoadCampaign all walk this table. The defaults are
// CampaignConfig's initializers.
constexpr CampaignKey kCampaignKeys[] = {
    Key("name", kNameColumn, "TEXT PRIMARY KEY", Ini::kRequired, FIELD(name)),
    Key("target", "target_name", "TEXT NOT NULL", Ini::kText, FIELD(target)),
    Key("technique", "technique", "TEXT NOT NULL", Ini::kText,
        FIELD(technique)),
    Key("workload", "workload", "TEXT NOT NULL", Ini::kRequired,
        FIELD(workload)),
    Key("experiments", "num_experiments", "INTEGER NOT NULL", Ini::kUnsigned,
        FIELD(num_experiments)),
    Key("seed", "seed", "INTEGER NOT NULL", Ini::kSeed, FIELD(seed)),
    Key("fault_model", "fault_model", "TEXT NOT NULL", Ini::kFaultModel,
        FIELD(model.kind)),
    Key("multiplicity", "multiplicity", "INTEGER NOT NULL", Ini::kCount,
        FIELD(multiplicity)),
    Key("location", "location_filter", "TEXT", Ini::kList,
        FIELD(location_filters)),
    Key("time_window_lo", "time_window_lo", "INTEGER", Ini::kUnsigned,
        FIELD(time_window_lo)),
    Key("time_window_hi", "time_window_hi", "INTEGER", Ini::kUnsigned,
        FIELD(time_window_hi)),
    Key("trigger", "trigger_kind", "TEXT", Ini::kText, FIELD(trigger_kind)),
    Key("max_instructions", "max_instructions", "INTEGER", Ini::kUnsigned,
        FIELD(termination.max_instructions)),
    Key("max_iterations", "max_iterations", "INTEGER", Ini::kUnsigned,
        FIELD(termination.max_iterations)),
    Key("logging", "logging_mode", "TEXT NOT NULL", Ini::kText,
        FIELD(logging_mode)),
    Key("preinjection", "preinjection", "INTEGER NOT NULL", Ini::kBoolean,
        FIELD(use_preinjection_analysis)),
    Key("static_analysis", "static_analysis", "INTEGER", Ini::kAnalysis,
        FIELD(static_analysis)),
    Key("intermittent_period", "intermittent_period", "INTEGER",
        Ini::kUnsigned, FIELD(model.period)),
    Key("intermittent_occurrences", "intermittent_occurrences", "INTEGER",
        Ini::kUnsigned, FIELD(model.occurrences)),
    Key("stuck_to_one", "stuck_to_one", "INTEGER", Ini::kBoolean,
        FIELD(model.stuck_to_one)),
    // Run bookkeeping: 'configured' / 0, then UpdateCampaignRunStatus.
    {nullptr, kStatusColumn, "TEXT NOT NULL", Ini::kText,
     [](const CampaignConfig&) { return Value::Text_("configured"); }, nullptr},
    {nullptr, kExperimentsDoneColumn, "INTEGER NOT NULL", Ini::kUnsigned,
     [](const CampaignConfig&) { return Value::Integer(0); }, nullptr},
    Key("experiment_timeout_ms", "experiment_timeout_ms", "INTEGER",
        Ini::kUnsigned, FIELD(experiment_timeout_ms)),
    Key("max_retries", "max_retries", "INTEGER", Ini::kUnsigned,
        FIELD(max_retries)),
    Key("retry_backoff_ms", "retry_backoff_ms", "INTEGER", Ini::kUnsigned,
        FIELD(retry_backoff_ms)),
    Key("checkpoint_mode", "checkpoint_mode", "INTEGER", Ini::kBoolean,
        FIELD(checkpoint_mode)),
    Key("checkpoint_stride", "checkpoint_stride", "INTEGER", Ini::kUnsigned,
        FIELD(checkpoint_stride)),
    // Set through `fault_model` when it names an access-path model.
    Key(nullptr, "cache_fault_model", "TEXT", Ini::kText,
        FIELD(cache_fault_model)),
    Key("jobs", nullptr, nullptr, Ini::kCount, FIELD(jobs)),
};
#undef FIELD

// A bare column type: neither NOT NULL nor PRIMARY KEY.
bool Nullable(const CampaignKey& key) {
  return std::strchr(key.sql, ' ') == nullptr;
}

// Why `text` is no value for `key`, or nullopt once it is in `config`.
std::optional<std::string> ParseKey(const CampaignKey& key,
                                    const std::string& text,
                                    CampaignConfig& config) {
  const char* name = key.ini_key;
  const bool analysis = key.ini == Ini::kAnalysis;
  const std::optional<bool> enabled = ParseBool(text);
  const std::optional<std::int64_t> as_signed = ParseInt64(text);
  const std::optional<std::uint64_t> as_unsigned = ParseUint64(text);
  Value cell = Value::Text_(text);
  if (key.ini == Ini::kFaultModel && target::CacheFaultModelFromName(text)) {
    // An access-path model narrows the sampled location family
    // (core/runner) and is temporally a transient flip; its name has
    // its own column.
    config.cache_fault_model = text;
    cell = Store(target::FaultModel::Kind::kTransientBitFlip);
  } else if (analysis && EqualsIgnoreCase(text, "equivalence")) {
    cell = Store(StaticAnalysis::kEquivalence);
  } else if (analysis || key.ini == Ini::kBoolean) {
    if (!enabled) {
      return StrFormat("%s must be a boolean%s, got '%s'", name,
                       analysis ? " or 'equivalence'" : "", text.c_str());
    }
    cell = Value::Integer(*enabled ? 1 : 0);
  } else if (key.ini == Ini::kUnsigned || key.ini == Ini::kCount ||
             key.ini == Ini::kSeed) {
    if (!as_signed && !as_unsigned) {
      return StrFormat("%s must be an integer, got '%s'", name, text.c_str());
    }
    const int minimum = key.ini == Ini::kCount ? 1 : 0;
    if (key.ini != Ini::kSeed && as_signed && *as_signed < minimum) {
      return StrFormat("%s must be >= %d", name, minimum);
    }
    // Above INT64_MAX: the bit pattern, which only 64-bit fields load.
    cell = Value::Integer(as_signed ? *as_signed
                                    : static_cast<std::int64_t>(*as_unsigned));
  }
  if (key.load(cell, config)) return std::nullopt;
  if (cell.type() != db::ValueType::kText) {
    return StrFormat("%s is out of range, got '%s'", name, text.c_str());
  }
  // An unknown name, e.g. "unknown trigger kind 'x'" (the column's words).
  std::string noun = key.column;
  std::replace(noun.begin(), noun.end(), '_', ' ');
  return StrFormat("unknown %s '%s'", noun.c_str(), text.c_str());
}

const db::TableSchema& CampaignSchema(const db::Database& database) {
  return database.FindTable(kCampaignDataTable)->schema();
}

// The campaign's row, found through its name column.
Result<const Row*> FindCampaignRow(const db::Database& database,
                                   const std::string& campaign_name) {
  const db::Table* table = database.FindTable(kCampaignDataTable);
  if (table == nullptr) return NotFoundError("no CampaignData table");
  const auto column = table->schema().FindColumn(kNameColumn);
  if (!column) return DataLossError("CampaignData has no campaign_name");
  const auto index =
      table->FindByUnique(*column, Value::Text_(campaign_name));
  if (!index) return NotFoundError("no campaign '" + campaign_name + "'");
  return &table->row(*index);
}

// The problems whose condition holds, in order.
std::vector<KeyProblem> Holding(
    std::initializer_list<std::pair<bool, KeyProblem>> rules) {
  std::vector<KeyProblem> problems;
  for (const auto& [holds, problem] : rules) {
    if (holds) problems.push_back(problem);
  }
  return problems;
}

}  // namespace

const char* TriggerKindName(TriggerKind kind) {
  return kTriggerKindNames[static_cast<std::size_t>(kind)];
}

std::vector<std::string> CampaignIniKeys() {
  std::vector<std::string> keys;
  for (const CampaignKey& key : kCampaignKeys) {
    if (key.ini_key != nullptr) keys.push_back(key.ini_key);
  }
  return keys;
}

std::vector<KeyProblem> CheckCampaignSection(const ConfigSection& section,
                                             CampaignConfig* config) {
  std::vector<KeyProblem> problems;
  for (const CampaignKey& key : kCampaignKeys) {
    if (key.ini_key == nullptr) continue;
    // A scalar key's last occurrence wins; a list takes them all.
    std::string text = section.GetStringOr(key.ini_key, "");
    if (key.ini == Ini::kList) {
      const std::vector<std::string> globs = section.GetList(key.ini_key);
      const auto bad = std::find_if(
          globs.begin(), globs.end(), [](const std::string& glob) {
            return glob.empty() || glob.find('|') != std::string::npos;
          });
      if (bad != globs.end()) {
        problems.push_back(
            {key.ini_key, "bad-value",
             StrFormat("%s glob '%s' must be non-empty and free of '|'",
                       key.ini_key, bad->c_str())});
        continue;
      }
      text = JoinStrings(globs, "|");
    }
    if (key.ini == Ini::kRequired && text.empty()) {
      problems.push_back(
          {"", "missing-key", std::string("campaign needs a ") + key.ini_key});
    } else if (!section.Has(key.ini_key)) {
      continue;
    } else if (auto rejection = ParseKey(key, text, *config)) {
      const bool named = key.ini == Ini::kText ||
                         key.ini == Ini::kFaultModel ||
                         key.ini == Ini::kAnalysis;
      problems.push_back({key.ini_key, named ? "unknown-value" : "bad-value",
                          std::move(*rejection)});
    }
  }
  if (config->time_window_hi != 0 &&
      config->time_window_lo > config->time_window_hi) {
    problems.push_back({"time_window_lo", "bad-value",
                        "empty injection time window (lo > hi)"});
  }
  return problems;
}

Result<CampaignConfig> ParseCampaignConfig(const ConfigSection& section) {
  CampaignConfig config;
  const std::vector<KeyProblem> problems =
      CheckCampaignSection(section, &config);
  if (!problems.empty()) return InvalidArgumentError(problems.front().message);
  return config;
}

Result<CampaignConfig> ParseCampaignText(const std::string& text) {
  ASSIGN_OR_RETURN(const Config file, Config::Parse(text));
  const ConfigSection* section = file.FindSection("campaign");
  if (section == nullptr) {
    return InvalidArgumentError("no [campaign] section");
  }
  return ParseCampaignConfig(*section);
}

std::vector<KeyProblem> EquivalenceViolations(const CampaignConfig& config) {
  return Holding({
      {config.trigger_kind != TriggerKind::kInstret,
       {"trigger", "equivalence-needs-instret",
        "static_analysis = equivalence partitions the instruction-time "
        "axis; it requires trigger = instret"}},
      {config.model.kind != target::FaultModel::Kind::kTransientBitFlip,
       {"fault_model", "equivalence-needs-transient",
        "static_analysis = equivalence assumes a single transient flip "
        "whose corrupted value is read exactly once; use fault_model = "
        "transient"}},
      {config.multiplicity != 1,
       {"multiplicity", "equivalence-needs-single-fault",
        "static_analysis = equivalence requires multiplicity = 1 (classes "
        "are per-location def-use intervals)"}},
      {config.technique == target::Technique::kSwifiPreRuntime,
       {"technique", "equivalence-needs-trigger-phase",
        "pre-runtime SWIFI has no injection-time axis to partition; use "
        "technique = scifi (or drop static_analysis = equivalence)"}},
      {config.logging_mode != target::LoggingMode::kNormal,
       {"logging", "equivalence-needs-normal-logging",
        "detail logging traces every experiment individually; class "
        "representatives must be logged in normal mode"}},
  });
}

std::vector<KeyProblem> CheckpointForkBlockers(const CampaignConfig& config) {
  const std::string needs = "checkpoint-fork execution requires ";
  const std::string falls_back =
      "; the campaign falls back to replaying every experiment from reset";
  return Holding({
      {config.trigger_kind != TriggerKind::kInstret,
       {"checkpoint_mode", "ignored-key",
        needs + "trigger = instret" + falls_back}},
      {config.logging_mode != target::LoggingMode::kNormal,
       {"checkpoint_mode", "ignored-key",
        needs + "logging = normal (detail mode traces the whole run)" +
            falls_back}},
      {config.technique == target::Technique::kSwifiPreRuntime,
       {"checkpoint_mode", "ignored-key",
        needs + "runtime injection (pre-runtime SWIFI has no trigger "
                "phase)" + falls_back}},
  });
}

std::string CampaignDataTableSql() {
  std::string sql = StrFormat("CREATE TABLE %s (\n", kCampaignDataTable);
  for (const CampaignKey& key : kCampaignKeys) {
    if (key.column != nullptr) {
      sql += StrFormat("  %-24s %s,\n", key.column, key.sql);
    }
  }
  return sql + StrFormat("  FOREIGN KEY (target_name) REFERENCES %s"
                         "(target_name)\n);\n",
                         kTargetSystemDataTable);
}

Status StoreCampaign(db::Database& database, const CampaignConfig& config) {
  RETURN_IF_ERROR(CreateGoofiSchema(database));
  const db::TableSchema& schema = CampaignSchema(database);
  Row row(schema.column_count());
  for (const CampaignKey& key : kCampaignKeys) {
    if (key.column == nullptr) continue;
    if (const auto index = schema.FindColumn(key.column)) {
      row[*index] = key.store(config);
    } else if (!Nullable(key) || key.store(config) != key.store({})) {
      // A table without the column can hold only the default, which is
      // what LoadCampaign reads for an absent optional column.
      return FailedPreconditionError(
          StrFormat("CampaignData has no %s column to store", key.column));
    }
  }
  return database.Insert(kCampaignDataTable, std::move(row));
}

Result<CampaignConfig> LoadCampaign(const db::Database& database,
                                    const std::string& campaign_name) {
  ASSIGN_OR_RETURN(const Row* row, FindCampaignRow(database, campaign_name));
  CampaignConfig config;
  for (const CampaignKey& key : kCampaignKeys) {
    if (key.column == nullptr) continue;
    const auto index = CampaignSchema(database).FindColumn(key.column);
    if (!index || (*row)[*index].is_null()) {
      if (Nullable(key)) continue;  // the default
      return DataLossError(StrFormat("CampaignData has no %s for '%s'",
                                     key.column, campaign_name.c_str()));
    }
    if (key.load != nullptr && !key.load((*row)[*index], config)) {
      return DataLossError(StrFormat("bad %s in CampaignData for '%s'",
                                     key.column, campaign_name.c_str()));
    }
  }
  return config;
}

Result<std::string> LoadCampaignRunStatus(const db::Database& database,
                                          const std::string& campaign_name) {
  ASSIGN_OR_RETURN(const Row* row, FindCampaignRow(database, campaign_name));
  const auto column = CampaignSchema(database).FindColumn(kStatusColumn);
  std::string status;
  if (!column || !Load((*row)[*column], status)) {
    return DataLossError("bad status in CampaignData for '" + campaign_name +
                         "'");
  }
  return status;
}

Status UpdateCampaignRunStatus(db::Database& database,
                               const std::string& campaign_name,
                               const std::string& status,
                               std::size_t experiments_done) {
  ASSIGN_OR_RETURN(const Row* row, FindCampaignRow(database, campaign_name));
  const db::TableSchema& schema = CampaignSchema(database);
  const auto status_column = schema.FindColumn(kStatusColumn);
  const auto done_column = schema.FindColumn(kExperimentsDoneColumn);
  if (!status_column || !done_column) {
    return DataLossError("CampaignData has no status/experiments_done");
  }
  Value new_status = Value::Text_(status);
  Value new_done = Store(experiments_done);
  // Elide a no-op rewrite: Update() logs a WAL record for any matched
  // row even when the stored values already equal the new ones, and
  // that extra record would make a resumed run's database differ from
  // an uninterrupted run's byte-for-byte.
  if ((*row)[*status_column] == new_status &&
      (*row)[*done_column] == new_done) {
    return Status::Ok();
  }
  const std::size_t name_column = *schema.FindColumn(kNameColumn);
  const Value name = Value::Text_(campaign_name);
  const auto result = database.Update(
      kCampaignDataTable,
      [&](const Row& candidate) { return candidate[name_column] == name; },
      {{*status_column, std::move(new_status)},
       {*done_column, std::move(new_done)}});
  return result.ok() ? Status::Ok() : result.status();
}

Result<CampaignConfig> MergeCampaigns(db::Database& database,
                                      const std::vector<std::string>& sources,
                                      const std::string& merged_name) {
  if (sources.empty()) {
    return InvalidArgumentError("nothing to merge");
  }
  ASSIGN_OR_RETURN(CampaignConfig merged, LoadCampaign(database, sources[0]));
  merged.name = merged_name;
  for (std::size_t i = 1; i < sources.size(); ++i) {
    ASSIGN_OR_RETURN(CampaignConfig next, LoadCampaign(database, sources[i]));
    if (next.target != merged.target || next.workload != merged.workload ||
        next.technique != merged.technique) {
      return FailedPreconditionError(
          "campaigns to merge must share target, technique and workload");
    }
    merged.num_experiments += next.num_experiments;
    for (const std::string& filter : next.location_filters) {
      if (std::find(merged.location_filters.begin(),
                    merged.location_filters.end(),
                    filter) == merged.location_filters.end()) {
        merged.location_filters.push_back(filter);
      }
    }
  }
  RETURN_IF_ERROR(StoreCampaign(database, merged));
  return merged;
}

Status RegisterTargetSystem(db::Database& database,
                            target::TargetSystemInterface& target,
                            const std::string& test_card_name,
                            const std::string& description) {
  RETURN_IF_ERROR(CreateGoofiSchema(database));
  const db::Table* tsd = database.FindTable(kTargetSystemDataTable);
  if (tsd->FindByUnique(0, Value::Text_(target.target_name()))) {
    return Status::Ok();  // already registered
  }
  RETURN_IF_ERROR(database.Insert(
      kTargetSystemDataTable,
      {Value::Text_(target.target_name()), Value::Text_(test_card_name),
       Value::Text_(description)}));
  const db::Table* locations = database.FindTable(kTargetLocationTable);
  std::int64_t next_id =
      static_cast<std::int64_t>(locations->row_count()) + 1;
  for (const auto& info : target.ListLocations()) {
    Row row;
    row.push_back(Value::Integer(next_id++));
    row.push_back(Value::Text_(target.target_name()));
    row.push_back(Value::Text_(info.name));
    row.push_back(Value::Text_(
        info.kind ==
                target::TargetSystemInterface::LocationInfo::Kind::kScanElement
            ? "scan_element"
            : "memory_range"));
    row.push_back(Value::Text_(info.chain));
    row.push_back(Value::Integer(info.width_bits));
    row.push_back(Value::Integer(info.writable ? 1 : 0));
    row.push_back(Value::Text_(info.category));
    row.push_back(Value::Integer(info.base));
    row.push_back(Value::Integer(info.size));
    RETURN_IF_ERROR(database.Insert(kTargetLocationTable, std::move(row)));
  }
  return Status::Ok();
}

Result<std::vector<target::TargetSystemInterface::LocationInfo>>
LoadTargetLocations(db::Database& database,
                    const std::string& target_name) {
  using LocationInfo = target::TargetSystemInterface::LocationInfo;
  const db::Table* system = database.FindTable(kTargetSystemDataTable);
  if (system == nullptr ||
      !system->FindByUnique(0, Value::Text_(target_name))) {
    return NotFoundError("target '" + target_name +
                         "' is not registered in TargetSystemData");
  }
  const db::Table* table = database.FindTable(kTargetLocationTable);
  std::vector<LocationInfo> locations;
  for (const Row& row : table->rows()) {
    if (row[1].AsText() != target_name) continue;
    LocationInfo info;
    info.name = row[2].AsText();
    info.kind = row[3].AsText() == "scan_element"
                    ? LocationInfo::Kind::kScanElement
                    : LocationInfo::Kind::kMemoryRange;
    info.chain = row[4].is_null() ? "" : row[4].AsText();
    info.width_bits = static_cast<std::uint32_t>(row[5].AsInteger());
    info.writable = row[6].AsInteger() != 0;
    info.category = row[7].is_null() ? "" : row[7].AsText();
    info.base = static_cast<std::uint32_t>(row[8].AsInteger());
    info.size = static_cast<std::uint32_t>(row[9].AsInteger());
    locations.push_back(std::move(info));
  }
  return locations;
}

}  // namespace goofi::core
