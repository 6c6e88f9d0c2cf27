#include "core/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/goofi_schema.h"
#include "core/location.h"
#include "db/sql/executor.h"
#include "target/thor_rd_target.h"
#include "util/strings.h"

namespace goofi::core {
namespace {

constexpr const char* kConfigText = R"(
[campaign]
name = regs_scifi
target = thor_rd
technique = scifi
workload = isort
experiments = 250
seed = 77
fault_model = transient
multiplicity = 2
location[] = cpu.regs.*
location[] = cpu.pc
time_window_lo = 10
time_window_hi = 900
trigger = instret
max_instructions = 50000
logging = detail
preinjection = yes
)";

TEST(CampaignConfigTest, ParsesEveryField) {
  auto config = Config::Parse(kConfigText);
  ASSERT_TRUE(config.ok());
  auto campaign = ParseCampaignConfig(*config->FindSection("campaign"));
  ASSERT_TRUE(campaign.ok()) << campaign.status().ToString();
  EXPECT_EQ(campaign->name, "regs_scifi");
  EXPECT_EQ(campaign->target, "thor_rd");
  EXPECT_EQ(campaign->technique, target::Technique::kScifi);
  EXPECT_EQ(campaign->workload, "isort");
  EXPECT_EQ(campaign->num_experiments, 250u);
  EXPECT_EQ(campaign->seed, 77u);
  EXPECT_EQ(campaign->model.kind,
            target::FaultModel::Kind::kTransientBitFlip);
  EXPECT_EQ(campaign->multiplicity, 2u);
  EXPECT_EQ(campaign->location_filters,
            (std::vector<std::string>{"cpu.regs.*", "cpu.pc"}));
  EXPECT_EQ(campaign->time_window_lo, 10u);
  EXPECT_EQ(campaign->time_window_hi, 900u);
  EXPECT_EQ(campaign->termination.max_instructions, 50000u);
  EXPECT_EQ(campaign->logging_mode, target::LoggingMode::kDetail);
  EXPECT_TRUE(campaign->use_preinjection_analysis);
}

TEST(CampaignConfigTest, ParsesJobsKey) {
  auto config =
      Config::Parse("[campaign]\nname = x\nworkload = fib\njobs = 4\n");
  ASSERT_TRUE(config.ok());
  auto campaign = ParseCampaignConfig(*config->FindSection("campaign"));
  ASSERT_TRUE(campaign.ok());
  EXPECT_EQ(campaign->jobs, 4u);
}

TEST(CampaignConfigTest, JobsIsAnExecutionKnobNotCampaignIdentity) {
  // `jobs` defaults to serial, must be >= 1, and round-trips through
  // CampaignData as the default (it is deliberately not persisted, so
  // serial and parallel runs store byte-identical campaign rows).
  auto config = Config::Parse("[campaign]\nname = x\nworkload = fib\n");
  ASSERT_TRUE(config.ok());
  auto campaign = ParseCampaignConfig(*config->FindSection("campaign"));
  ASSERT_TRUE(campaign.ok());
  EXPECT_EQ(campaign->jobs, 1u);

  auto zero =
      Config::Parse("[campaign]\nname = x\nworkload = fib\njobs = 0\n");
  EXPECT_FALSE(ParseCampaignConfig(*zero->FindSection("campaign")).ok());

  db::Database database;
  ASSERT_TRUE(CreateGoofiSchema(database).ok());
  target::ThorRdTarget target;
  ASSERT_TRUE(RegisterTargetSystem(database, target, "card", "").ok());
  CampaignConfig stored;
  stored.name = "par";
  stored.workload = "fib";
  stored.jobs = 8;
  ASSERT_TRUE(StoreCampaign(database, stored).ok());
  auto loaded = LoadCampaign(database, "par");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->jobs, 1u);  // not persisted: loads as the default
}

TEST(CampaignConfigTest, ParsesSupervisionKeys) {
  auto config = Config::Parse(
      "[campaign]\nname = x\nworkload = fib\n"
      "experiment_timeout_ms = 2000\nmax_retries = 3\n"
      "retry_backoff_ms = 50\n");
  ASSERT_TRUE(config.ok());
  auto campaign = ParseCampaignConfig(*config->FindSection("campaign"));
  ASSERT_TRUE(campaign.ok()) << campaign.status().ToString();
  EXPECT_EQ(campaign->experiment_timeout_ms, 2000u);
  EXPECT_EQ(campaign->max_retries, 3u);
  EXPECT_EQ(campaign->retry_backoff_ms, 50u);

  // All default to "off" (timeout derived, no retries).
  auto plain = Config::Parse("[campaign]\nname = x\nworkload = fib\n");
  auto defaults = ParseCampaignConfig(*plain->FindSection("campaign"));
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->experiment_timeout_ms, 0u);
  EXPECT_EQ(defaults->max_retries, 0u);
  EXPECT_EQ(defaults->retry_backoff_ms, 0u);
}

TEST(CampaignConfigTest, DefaultsApply) {
  auto config = Config::Parse("[campaign]\nname = x\nworkload = fib\n");
  ASSERT_TRUE(config.ok());
  auto campaign = ParseCampaignConfig(*config->FindSection("campaign"));
  ASSERT_TRUE(campaign.ok());
  EXPECT_EQ(campaign->technique, target::Technique::kScifi);
  EXPECT_EQ(campaign->num_experiments, 100u);
  EXPECT_EQ(campaign->multiplicity, 1u);
  EXPECT_TRUE(campaign->location_filters.empty());
  EXPECT_EQ(campaign->logging_mode, target::LoggingMode::kNormal);
  EXPECT_FALSE(campaign->use_preinjection_analysis);
}

TEST(CampaignConfigTest, ValidationErrors) {
  auto no_name = Config::Parse("[campaign]\nworkload = fib\n");
  EXPECT_FALSE(
      ParseCampaignConfig(*no_name->FindSection("campaign")).ok());
  auto no_workload = Config::Parse("[campaign]\nname = x\n");
  EXPECT_FALSE(
      ParseCampaignConfig(*no_workload->FindSection("campaign")).ok());
  auto bad_technique =
      Config::Parse("[campaign]\nname=x\nworkload=fib\ntechnique=laser\n");
  EXPECT_FALSE(
      ParseCampaignConfig(*bad_technique->FindSection("campaign")).ok());
  auto bad_multiplicity =
      Config::Parse("[campaign]\nname=x\nworkload=fib\nmultiplicity=0\n");
  EXPECT_FALSE(
      ParseCampaignConfig(*bad_multiplicity->FindSection("campaign")).ok());
  auto bad_logging =
      Config::Parse("[campaign]\nname=x\nworkload=fib\nlogging=verbose\n");
  EXPECT_FALSE(
      ParseCampaignConfig(*bad_logging->FindSection("campaign")).ok());
}

// Parses `keys` (one "key = value" per line) under a minimal campaign.
Result<CampaignConfig> ParseWith(const std::string& keys) {
  return ParseCampaignText("[campaign]\nname = x\nworkload = fib\n" + keys);
}

TEST(CampaignConfigTest, MalformedValuesAreTypedErrorsNamingTheKey) {
  // Each of these once fell back to the key's default without a word.
  for (const char* line :
       {"experiments = 3x\n", "checkpoint_mode = ture\n", "jobs = four\n",
        "multiplicity = -1\n", "experiments = -1\n", "seed = 12abc\n",
        "time_window_lo = -5\n", "experiments = 4294967296\n",
        "preinjection = maybe\n", "max_retries = 1.5\n",
        "trigger = instrett\n", "location[] = a|b\n", "location[] =\n"}) {
    const auto parsed = ParseWith(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument) << line;
    const std::string key(line, std::string(line).find_first_of(" ["));
    EXPECT_NE(parsed.status().message().find(
                  key == "trigger" ? std::string("trigger kind") : key),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(CampaignConfigTest, SeedReadsNegativeValuesInTwosComplement) {
  const auto parsed = ParseWith("seed = -1\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, ~std::uint64_t{0});
}

TEST(CampaignConfigTest, SeedTakesTheWholeUnsignedRange) {
  // goofi_serve submissions carry uniform 64-bit seeds.
  const auto top = ParseWith("seed = 18446744073709551615\n");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->seed, ~std::uint64_t{0});
  const auto high = ParseWith("seed = 9223372036854775808\n");
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  EXPECT_EQ(high->seed, std::uint64_t{1} << 63);
  EXPECT_FALSE(ParseWith("seed = 18446744073709551616\n").ok());
  // The other 64-bit keys take the unsigned range too; 32-bit ones do not.
  const auto budget = ParseWith("max_instructions = 18446744073709551615\n");
  ASSERT_TRUE(budget.ok()) << budget.status().ToString();
  EXPECT_EQ(budget->termination.max_instructions, ~std::uint64_t{0});
  EXPECT_FALSE(ParseWith("experiments = 9223372036854775808\n").ok());
}

TEST(CampaignConfigTest, EmptyTimeWindowIsRejectedBeforeAnythingRuns) {
  EXPECT_EQ(ParseWith("time_window_lo = 9\ntime_window_hi = 3\n")
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  // hi = 0 means "to the end of the run", whatever lo is.
  EXPECT_TRUE(ParseWith("time_window_lo = 9\ntime_window_hi = 0\n").ok());
}

TEST(CampaignConfigTest, ParseCampaignTextNeedsACampaignSection) {
  EXPECT_FALSE(ParseCampaignText("[service]\nfleet_workers = 2\n").ok());
  EXPECT_FALSE(ParseCampaignText("[campaign]\nno equals sign\n").ok());
}

TEST(CampaignConfigTest, StaticAnalysisIsOneThreeValuedKey) {
  EXPECT_EQ(ParseWith("")->static_analysis, StaticAnalysis::kOff);
  EXPECT_EQ(ParseWith("static_analysis = no\n")->static_analysis,
            StaticAnalysis::kOff);
  EXPECT_EQ(ParseWith("static_analysis = yes\n")->static_analysis,
            StaticAnalysis::kLiveness);
  EXPECT_EQ(ParseWith("static_analysis = Equivalence\n")->static_analysis,
            StaticAnalysis::kEquivalence);
  EXPECT_FALSE(ParseWith("static_analysis = equivalnce\n").ok());
}

class CampaignDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(CreateGoofiSchema(database_).ok());
    auto workload = target::GetBuiltinWorkload("fib");
    ASSERT_TRUE(workload.ok());
    ASSERT_TRUE(target_.SetWorkload(*workload).ok());
    ASSERT_TRUE(RegisterTargetSystem(database_, target_, "card0",
                                     "test board").ok());
  }

  CampaignConfig MakeConfig(const std::string& name) {
    CampaignConfig config;
    config.name = name;
    config.workload = "fib";
    config.num_experiments = 25;
    config.seed = 3;
    config.location_filters = {"cpu.regs.*"};
    return config;
  }

  db::Database database_;
  target::ThorRdTarget target_;
};

TEST_F(CampaignDbTest, RegisterTargetStoresLocations) {
  auto rows = db::sql::ExecuteSql(
      database_,
      "SELECT COUNT(*) FROM TargetLocation WHERE target_name = 'thor_rd'");
  ASSERT_TRUE(rows.ok());
  // 15 regs + pc + ir + wdt + edm_status + chip_id + 2*16 lines * 10
  // cache elements + 3 pins = at least 300 rows.
  EXPECT_GT(rows->rows[0][0].AsInteger(), 300);
  // Registration is idempotent.
  ASSERT_TRUE(RegisterTargetSystem(database_, target_, "card0", "").ok());
  auto again = db::sql::ExecuteSql(
      database_, "SELECT COUNT(*) FROM TargetSystemData");
  EXPECT_EQ(again->rows[0][0].AsInteger(), 1);
}

TEST_F(CampaignDbTest, LoadTargetLocationsRoundTrips) {
  auto loaded = LoadTargetLocations(database_, "thor_rd");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto live = target_.ListLocations();
  ASSERT_EQ(loaded->size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ((*loaded)[i].name, live[i].name);
    EXPECT_EQ((*loaded)[i].kind, live[i].kind);
    EXPECT_EQ((*loaded)[i].chain, live[i].chain);
    EXPECT_EQ((*loaded)[i].width_bits, live[i].width_bits);
    EXPECT_EQ((*loaded)[i].writable, live[i].writable);
    EXPECT_EQ((*loaded)[i].category, live[i].category);
  }
  // A location space built from the stored rows samples identically to
  // one built from the live target (the set-up phase is DB-driven).
  auto from_db = LocationSpace::Build(*loaded, target::Technique::kScifi,
                                      {"cpu.regs.*"});
  auto from_live = LocationSpace::Build(live, target::Technique::kScifi,
                                        {"cpu.regs.*"});
  ASSERT_TRUE(from_db.ok());
  ASSERT_TRUE(from_live.ok());
  EXPECT_EQ(from_db->total_bits(), from_live->total_bits());
  EXPECT_EQ(from_db->SampleIndex(100).location,
            from_live->SampleIndex(100).location);
  EXPECT_EQ(LoadTargetLocations(database_, "ghost").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(CampaignDbTest, StoreAndLoadRoundTrip) {
  CampaignConfig config = MakeConfig("c1");
  config.technique = target::Technique::kSwifiRuntime;
  config.model.kind = target::FaultModel::Kind::kIntermittentBitFlip;
  config.model.period = 99;
  config.model.occurrences = 3;
  config.model.stuck_to_one = false;
  config.multiplicity = 2;
  config.time_window_lo = 5;
  config.time_window_hi = 50;
  config.trigger_kind = TriggerKind::kBranch;
  config.termination.max_instructions = 7777;
  config.termination.max_iterations = 11;
  config.logging_mode = target::LoggingMode::kDetail;
  config.use_preinjection_analysis = true;
  ASSERT_TRUE(StoreCampaign(database_, config).ok());

  auto loaded = LoadCampaign(database_, "c1");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->technique, config.technique);
  EXPECT_EQ(loaded->model.kind, config.model.kind);
  EXPECT_EQ(loaded->model.period, 99u);
  EXPECT_EQ(loaded->model.occurrences, 3u);
  EXPECT_FALSE(loaded->model.stuck_to_one);
  EXPECT_EQ(loaded->multiplicity, 2u);
  EXPECT_EQ(loaded->location_filters, config.location_filters);
  EXPECT_EQ(loaded->time_window_lo, 5u);
  EXPECT_EQ(loaded->time_window_hi, 50u);
  EXPECT_EQ(loaded->trigger_kind, TriggerKind::kBranch);
  EXPECT_EQ(loaded->termination.max_instructions, 7777u);
  EXPECT_EQ(loaded->termination.max_iterations, 11u);
  EXPECT_EQ(loaded->logging_mode, target::LoggingMode::kDetail);
  EXPECT_TRUE(loaded->use_preinjection_analysis);
}

TEST_F(CampaignDbTest, SupervisionKeysRoundTripThroughCampaignData) {
  // Unlike `jobs`, the supervision keys ARE part of the campaign
  // record: an abandoned experiment's disposition depends on them.
  CampaignConfig config = MakeConfig("supervised");
  config.experiment_timeout_ms = 2500;
  config.max_retries = 2;
  config.retry_backoff_ms = 10;
  ASSERT_TRUE(StoreCampaign(database_, config).ok());
  auto loaded = LoadCampaign(database_, "supervised");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->experiment_timeout_ms, 2500u);
  EXPECT_EQ(loaded->max_retries, 2u);
  EXPECT_EQ(loaded->retry_backoff_ms, 10u);
}

TEST_F(CampaignDbTest, DuplicateCampaignRejected) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("dup")).ok());
  EXPECT_EQ(StoreCampaign(database_, MakeConfig("dup")).code(),
            ErrorCode::kConstraintViolation);
}

TEST_F(CampaignDbTest, UnknownTargetRejected) {
  CampaignConfig config = MakeConfig("orphan");
  config.target = "nonexistent";
  EXPECT_EQ(StoreCampaign(database_, config).code(),
            ErrorCode::kConstraintViolation);
}

TEST_F(CampaignDbTest, LoadMissingCampaign) {
  EXPECT_EQ(LoadCampaign(database_, "ghost").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(CampaignDbTest, MergeCampaignsUnionsSettings) {
  CampaignConfig a = MakeConfig("a");
  a.location_filters = {"cpu.regs.*"};
  a.num_experiments = 100;
  CampaignConfig b = MakeConfig("b");
  b.location_filters = {"cpu.regs.*", "icache.*"};
  b.num_experiments = 50;
  ASSERT_TRUE(StoreCampaign(database_, a).ok());
  ASSERT_TRUE(StoreCampaign(database_, b).ok());
  auto merged = MergeCampaigns(database_, {"a", "b"}, "ab");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->num_experiments, 150u);
  EXPECT_EQ(merged->location_filters,
            (std::vector<std::string>{"cpu.regs.*", "icache.*"}));
  // Stored in the database too.
  EXPECT_TRUE(LoadCampaign(database_, "ab").ok());
}

TEST_F(CampaignDbTest, MergeRejectsMixedWorkloads) {
  CampaignConfig a = MakeConfig("wa");
  ASSERT_TRUE(StoreCampaign(database_, a).ok());
  CampaignConfig b = MakeConfig("wb");
  b.workload = "isort";
  ASSERT_TRUE(StoreCampaign(database_, b).ok());
  EXPECT_EQ(MergeCampaigns(database_, {"wa", "wb"}, "bad").status().code(),
            ErrorCode::kFailedPrecondition);
}

// Every key, set to a non-default value.
constexpr const char* kEveryKey = R"(
[campaign]
name = every_key
target = thor_rd
technique = swifi_runtime
workload = isort
experiments = 250
seed = -5
fault_model = intermittent
multiplicity = 2
location[] = cpu.regs.*
location[] = cpu.pc
time_window_lo = 10
time_window_hi = 900
trigger = branch
max_instructions = 50000
max_iterations = 7
logging = detail
preinjection = yes
static_analysis = true
intermittent_period = 99
intermittent_occurrences = 3
stuck_to_one = no
jobs = 3
experiment_timeout_ms = 2000
max_retries = 2
retry_backoff_ms = 5
checkpoint_mode = on
checkpoint_stride = 100
)";

std::string KeyOf(const std::string& line) {
  return line.substr(0, line.find_first_of(" ["));
}

// kEveryKey with each `key = value` of `overrides` replacing its line.
std::string EveryKeyWith(
    const std::map<std::string, std::string>& overrides) {
  std::string text;
  for (const std::string& line : SplitString(kEveryKey, '\n')) {
    const auto it = overrides.find(KeyOf(line));
    text += it == overrides.end() ? line : it->first + " = " + it->second;
    text += '\n';
  }
  return text;
}

TEST_F(CampaignDbTest, EveryKeyAndEnumValueRoundTripsThroughCampaignData) {
  // The ini sets every key in the table, each away from its default.
  std::vector<std::string> ini_keys;
  for (const std::string& line : SplitString(kEveryKey, '\n')) {
    ini_keys.push_back(KeyOf(line));
  }
  for (const std::string& key : CampaignIniKeys()) {
    EXPECT_NE(std::find(ini_keys.begin(), ini_keys.end(), key),
              ini_keys.end())
        << "the round trip does not cover '" << key << "'";
  }

  const std::vector<std::pair<std::string, std::vector<std::string>>>
      variants = {
          {"technique", {"scifi", "swifi_pre_runtime", "swifi_runtime"}},
          {"fault_model",
           {"transient", "intermittent", "permanent", "cache_data_bit",
            "cache_tag_bit", "cache_parity_bit", "inflight_load_bit"}},
          {"trigger",
           {"instret", "pc", "data_read", "data_write", "branch", "call",
            "rtc"}},
          {"logging", {"normal", "detail"}},
          {"static_analysis", {"false", "true", "equivalence"}},
          {"preinjection", {"no", "yes"}},
          {"stuck_to_one", {"no", "yes"}},
          {"checkpoint_mode", {"off", "on"}},
          {"seed",
           {"0", "9223372036854775807", "-9223372036854775808",
            "18446744073709551615"}},
      };
  int stored = 0;
  for (const auto& [key, values] : variants) {
    for (const std::string& value : values) {
      const std::string name = StrFormat("rt%d", stored++);
      const auto parsed =
          ParseCampaignText(EveryKeyWith({{"name", name}, {key, value}}));
      ASSERT_TRUE(parsed.ok()) << key << " = " << value << ": "
                               << parsed.status().ToString();
      ASSERT_TRUE(StoreCampaign(database_, *parsed).ok()) << key;
      const auto loaded = LoadCampaign(database_, name);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      CampaignConfig expected = *parsed;
      expected.jobs = 1;  // an execution knob: never stored
      EXPECT_EQ(*loaded, expected) << key << " = " << value;
    }
  }
}

// A CampaignData table holding only the first `columns` of the schema's
// columns, with `config`'s row cut to fit, as an older database has it.
db::Database ShortCampaignData(const CampaignConfig& config,
                               std::size_t columns) {
  db::Database full;
  EXPECT_TRUE(CreateGoofiSchema(full).ok());
  target::ThorRdTarget target;
  EXPECT_TRUE(RegisterTargetSystem(full, target, "card", "").ok());
  EXPECT_TRUE(StoreCampaign(full, config).ok());
  const db::Table* stored = full.FindTable(kCampaignDataTable);
  db::TableSchema schema(kCampaignDataTable);
  for (std::size_t i = 0; i < columns; ++i) {
    EXPECT_TRUE(schema.AddColumn(stored->schema().columns()[i]).ok());
  }
  db::Database database;
  EXPECT_TRUE(database.CreateTable(schema).ok());
  const db::Row& row = stored->row(0);
  EXPECT_TRUE(database
                  .Insert(kCampaignDataTable,
                          db::Row(row.begin(), row.begin() + columns))
                  .ok());
  return database;
}

TEST_F(CampaignDbTest, AbsentOptionalColumnsLoadAsDefaults) {
  CampaignConfig config = MakeConfig("old");
  config.trigger_kind = TriggerKind::kCall;
  // Through experiments_done: every NOT NULL column, none of the
  // supervision, checkpoint or cache columns added later.
  db::Database database = ShortCampaignData(config, 22);
  const auto loaded = LoadCampaign(database, "old");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, config);
  EXPECT_EQ(*LoadCampaignRunStatus(database, "old"), "configured");

  // A NULL optional cell reads as the default too.
  ASSERT_TRUE(StoreCampaign(database_, config).ok());
  const db::TableSchema& schema =
      database_.FindTable(kCampaignDataTable)->schema();
  ASSERT_TRUE(database_
                  .Update(kCampaignDataTable,
                          [](const db::Row&) { return true; },
                          {{*schema.FindColumn("trigger_kind"), db::Value()},
                           {*schema.FindColumn("location_filter"),
                            db::Value()}})
                  .ok());
  const auto nulls = LoadCampaign(database_, "old");
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  EXPECT_EQ(nulls->trigger_kind, TriggerKind::kInstret);
  EXPECT_TRUE(nulls->location_filters.empty());
}

TEST_F(CampaignDbTest, AbsentNotNullColumnIsDataLoss) {
  // The first 15 columns stop just short of `preinjection` (NOT NULL).
  db::Database database = ShortCampaignData(MakeConfig("short"), 15);
  const auto loaded = LoadCampaign(database, "short");
  EXPECT_EQ(loaded.status().code(), ErrorCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("preinjection"),
            std::string::npos);
  // Such a table cannot take a campaign row either.
  EXPECT_FALSE(StoreCampaign(database, MakeConfig("later")).ok());
}

TEST_F(CampaignDbTest, MistypedCellIsDataLoss) {
  // A table whose columns take any type, holding a stored row with one
  // cell changed.
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("typed")).ok());
  const db::Table* stored = database_.FindTable(kCampaignDataTable);
  const auto with_cell = [&](const char* column, db::Value cell) {
    db::TableSchema schema(kCampaignDataTable);
    for (db::Column loose : stored->schema().columns()) {
      loose.type = db::ColumnType::kAny;
      EXPECT_TRUE(schema.AddColumn(loose).ok());
    }
    db::Database database;
    EXPECT_TRUE(database.CreateTable(schema).ok());
    db::Row row = stored->row(0);
    row[*schema.FindColumn(column)] = std::move(cell);
    EXPECT_TRUE(database.Insert(kCampaignDataTable, std::move(row)).ok());
    return database;
  };
  EXPECT_TRUE(LoadCampaign(with_cell("seed", db::Value::Integer(3)), "typed")
                  .ok());
  EXPECT_EQ(LoadCampaign(with_cell("num_experiments", db::Value::Text_("25")),
                         "typed")
                .status()
                .code(),
            ErrorCode::kDataLoss);
  EXPECT_EQ(LoadCampaign(with_cell("max_retries", db::Value::Integer(-1)),
                         "typed")
                .status()
                .code(),
            ErrorCode::kDataLoss);
  // An unknown stored name is as bad as a mistyped cell.
  EXPECT_EQ(LoadCampaign(with_cell("trigger_kind", db::Value::Text_("x")),
                         "typed")
                .status()
                .code(),
            ErrorCode::kDataLoss);
}

}  // namespace
}  // namespace goofi::core
