// CacheHierarchyTarget: Thor RD with access-path fault injection into
// the memory hierarchy (sim/fault_injector.h). Instantiates the
// target-agnostic conformance contract (TEST_P bodies in
// framework_target_test.cpp) with zero changes to the contract itself —
// the headline proof that the access-path seam is just another port —
// then pins down the cache-specific semantics: the detected/escaped
// parity split, coordinate validation, and the campaign-level guarantee
// that serial, sharded and checkpoint-forked cache campaigns log
// byte-identical databases.
#include "target/cache_target.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "conformance.h"
#include "core/experiment_codec.h"
#include "core/goofi_schema.h"
#include "core/runner.h"
#include "target/workloads.h"

namespace goofi::target {
namespace {

using sim::CacheArray;
using sim::MemUnit;

std::unique_ptr<CacheHierarchyTarget> MakeLoadedTarget(
    const std::string& workload) {
  auto target = MakeCacheHierarchyTarget();
  auto spec = GetBuiltinWorkload(workload);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(target->SetWorkload(std::move(spec.value())).ok());
  return target;
}

// =====================================================================
// Conformance: the suite in conformance.h / framework_target_test.cpp,
// unmodified. The writable fault is a cache coordinate — proving the
// access-path location family satisfies the same contract as scan
// chains and counter machines.
// =====================================================================

ConformanceParam CacheIsortParam() {
  ConformanceParam param;
  param.label = "CacheHierarchyIsort";
  param.make = [] {
    return std::unique_ptr<TargetSystemInterface>(MakeLoadedTarget("isort"));
  };
  param.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  param.trigger.count = 50;
  param.writable_fault = {"dcache.set0.word0.data", 5};
  param.readonly_location = "cpu.chip_id";
  return param;
}

INSTANTIATE_TEST_SUITE_P(CacheHierarchy, TargetConformanceTest,
                         ::testing::Values(CacheIsortParam()),
                         ConformanceParamName);

// =====================================================================
// Coordinate grammar and the advertised location space.
// =====================================================================

TEST(CacheCoordinateTest, ParsesTheFourArrayFamilies) {
  auto tag = ParseCacheCoordinate("icache.set3.tag");
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(tag->unit, MemUnit::kIcache);
  EXPECT_EQ(tag->array, CacheArray::kTag);
  EXPECT_EQ(tag->set, 3u);

  auto data = ParseCacheCoordinate("dcache.set15.word2.data");
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->unit, MemUnit::kDcache);
  EXPECT_EQ(data->array, CacheArray::kData);
  EXPECT_EQ(data->set, 15u);
  EXPECT_EQ(data->word, 2u);

  auto parity = ParseCacheCoordinate("dcache.set0.word0.parity");
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ(parity->array, CacheArray::kParity);

  auto inflight = ParseCacheCoordinate("icache.set1.word3.inflight");
  ASSERT_TRUE(inflight.has_value());
  EXPECT_EQ(inflight->array, CacheArray::kInflight);
}

TEST(CacheCoordinateTest, RejectsEverythingElse) {
  EXPECT_FALSE(ParseCacheCoordinate("cpu.regs.r2").has_value());
  EXPECT_FALSE(ParseCacheCoordinate("dcache.set.word0.data").has_value());
  EXPECT_FALSE(ParseCacheCoordinate("dcache.set0.word0").has_value());
  EXPECT_FALSE(ParseCacheCoordinate("dcache.set0.word0.valid").has_value());
  EXPECT_FALSE(ParseCacheCoordinate("dcache.set0.tagx").has_value());
  EXPECT_FALSE(ParseCacheCoordinate("mem@0x10000").has_value());
}

TEST(CacheCoordinateTest, ModelNamesAndGlobsRoundTrip) {
  for (const CacheFaultModel model :
       {CacheFaultModel::kDataBit, CacheFaultModel::kTagBit,
        CacheFaultModel::kParityBit, CacheFaultModel::kInflightLoadBit}) {
    const auto back = CacheFaultModelFromName(CacheFaultModelName(model));
    ASSERT_TRUE(back.has_value()) << CacheFaultModelName(model);
    EXPECT_EQ(*back, model);
  }
  EXPECT_FALSE(CacheFaultModelFromName("transient").has_value());
}

TEST(CacheHierarchyTargetTest, AdvertisesCacheCoordinatesOnTopOfThorRd) {
  auto target = MakeLoadedTarget("isort");
  bool saw_regs = false;
  std::size_t tags = 0, data = 0, parity = 0, inflight = 0;
  for (const auto& location : target->ListLocations()) {
    if (location.name == "cpu.regs.r2") saw_regs = true;
    const auto coordinate = ParseCacheCoordinate(location.name);
    if (!coordinate.has_value()) continue;
    EXPECT_TRUE(location.writable) << location.name;
    EXPECT_EQ(location.chain, "access_path") << location.name;
    EXPECT_EQ(location.category, "cache_access_path") << location.name;
    switch (coordinate->array) {
      case CacheArray::kTag:
        ++tags;
        EXPECT_EQ(location.width_bits, 24u) << location.name;
        break;
      case CacheArray::kData:
        ++data;
        EXPECT_EQ(location.width_bits, 32u) << location.name;
        break;
      case CacheArray::kParity:
        ++parity;
        EXPECT_EQ(location.width_bits, 1u) << location.name;
        break;
      case CacheArray::kInflight:
        ++inflight;
        EXPECT_EQ(location.width_bits, 32u) << location.name;
        break;
    }
  }
  // The inherited Thor RD space is still there...
  EXPECT_TRUE(saw_regs);
  // ...plus, per unit: one tag per set, and one data/parity/inflight
  // coordinate per (set, word) of the 16x4 geometry.
  EXPECT_EQ(tags, 2u * 16u);
  EXPECT_EQ(data, 2u * 16u * 4u);
  EXPECT_EQ(parity, 2u * 16u * 4u);
  EXPECT_EQ(inflight, 2u * 16u * 4u);
}

// =====================================================================
// Injection semantics: the section 3.4 detected/escaped split.
// =====================================================================

ExperimentSpec AtInstret(std::uint64_t count, FaultTarget fault,
                         Technique technique = Technique::kScifi) {
  ExperimentSpec spec;
  spec.technique = technique;
  spec.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  spec.trigger.count = count;
  spec.targets = {std::move(fault)};
  return spec;
}

TEST(CacheHierarchyTargetTest, DataArrayFlipIsCaughtByTheParityEdm) {
  // isort keeps its working set resident in the D-cache; a flipped data
  // bit leaves the stored parity stale, so the next read hit of that
  // word trips the kDcacheParity checker.
  auto target = MakeLoadedTarget("isort");
  target->set_experiment(AtInstret(50, {"dcache.set0.word0.data", 7}));
  ASSERT_TRUE(target->RunExperiment().ok());
  const Observation& observation = target->observation();
  EXPECT_TRUE(observation.fault_was_injected);
  EXPECT_EQ(observation.stop_reason, sim::StopReason::kEdm);
  ASSERT_TRUE(observation.edm.has_value());
  EXPECT_EQ(observation.edm->type, sim::EdmType::kDcacheParity);
}

TEST(CacheHierarchyTargetTest, InflightLoadFlipEscapesTheParityEdm) {
  // The same bit of the same word, corrupted on the wires after the
  // parity comparison: the EDM is blind to it, the workload keeps
  // running on wrong data — the escaped half of the taxonomy.
  auto target = MakeLoadedTarget("isort");
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const std::vector<std::uint8_t> golden =
      target->observation().output_region;

  target->set_experiment(
      AtInstret(50, {"dcache.set0.word0.inflight", 7}));
  ASSERT_TRUE(target->RunExperiment().ok());
  const Observation& observation = target->observation();
  EXPECT_TRUE(observation.fault_was_injected);
  if (observation.edm.has_value()) {
    EXPECT_NE(observation.edm->type, sim::EdmType::kDcacheParity);
    EXPECT_NE(observation.edm->type, sim::EdmType::kIcacheParity);
  }
  // The flip corrupted a value isort actually loaded: wrong output.
  EXPECT_NE(observation.output_region, golden);
}

TEST(CacheHierarchyTargetTest, ExperimentsDoNotLeakArmedFaults) {
  // A permanent stuck-at is the stickiest state a fault model has;
  // initTestCard must still wipe it before the next run.
  auto target = MakeLoadedTarget("isort");
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const std::string golden = target->TakeObservation().Serialize();

  ExperimentSpec spec = AtInstret(50, {"dcache.set0.word0.data", 0});
  spec.model.kind = FaultModel::Kind::kPermanentStuckAt;
  spec.model.stuck_to_one = true;
  target->set_experiment(spec);
  ASSERT_TRUE(target->RunExperiment().ok());
  EXPECT_GT(target->injector().applied_count(), 0u);
  (void)target->TakeObservation();

  ASSERT_TRUE(target->MakeReferenceRun().ok());
  EXPECT_TRUE(target->injector().armed().empty());
  EXPECT_EQ(target->TakeObservation().Serialize(), golden);
}

TEST(CacheHierarchyTargetTest, RejectsCoordinatesOutsideTheGeometry) {
  auto target = MakeLoadedTarget("isort");
  target->set_experiment(AtInstret(50, {"dcache.set99.word0.data", 0}));
  EXPECT_EQ(target->RunExperiment().code(), ErrorCode::kOutOfRange);

  target->set_experiment(AtInstret(50, {"dcache.set0.word9.data", 0}));
  EXPECT_EQ(target->RunExperiment().code(), ErrorCode::kOutOfRange);

  // Real coordinate, impossible bit: parity is a 1-bit location.
  target->set_experiment(AtInstret(50, {"dcache.set0.word0.parity", 1}));
  EXPECT_EQ(target->RunExperiment().code(), ErrorCode::kOutOfRange);
}

TEST(CacheHierarchyTargetTest, PreRuntimeSwifiCannotReachTheAccessPath) {
  // Cache coordinates only exist while the workload runs; arming one
  // before download makes no physical sense and must be rejected.
  auto target = MakeLoadedTarget("isort");
  target->set_experiment(AtInstret(0, {"icache.set0.word0.data", 3},
                                   Technique::kSwifiPreRuntime));
  EXPECT_EQ(target->RunExperiment().code(), ErrorCode::kInvalidArgument);
}

// =====================================================================
// Campaign-level determinism: a cache campaign logs the identical
// database serially, sharded across 4 workers, and checkpoint-forked —
// the guarantee every execution mode in the tool rides on, extended to
// the new location family. Mirrors checkpoint_fork_test.cpp.
// =====================================================================

std::vector<std::string> DumpTable(db::Database& database,
                                   const std::string& table_name) {
  std::vector<std::string> rows;
  const db::Table* table = database.FindTable(table_name);
  if (table == nullptr) return rows;
  for (const db::Row& row : table->rows()) {
    std::string line;
    for (const db::Value& value : row) {
      line += value.Encode();
      line += '\t';
    }
    rows.push_back(std::move(line));
  }
  return rows;
}

class CacheCampaignTest : public ::testing::Test {
 protected:
  static core::CampaignConfig MakeConfig() {
    core::CampaignConfig config;
    config.name = "cache_parity";
    config.target = "cache_hierarchy";
    config.workload = "isort";
    config.num_experiments = 30;
    config.seed = 17;
    config.cache_fault_model = "cache_data_bit";
    config.location_filters = {"dcache.*"};
    config.checkpoint_mode = true;
    config.checkpoint_stride = 200;
    return config;
  }

  static void SetUpDatabase(db::Database& database,
                            const core::CampaignConfig& config) {
    ASSERT_TRUE(core::CreateGoofiSchema(database).ok());
    CacheHierarchyTarget registrar;
    ASSERT_TRUE(
        core::RegisterTargetSystem(database, registrar, "card", "").ok());
    ASSERT_TRUE(core::StoreCampaign(database, config).ok());
  }

  static core::CampaignSummary RunSerial(db::Database& database,
                                         const core::CampaignConfig& config,
                                         std::optional<bool> checkpoint) {
    SetUpDatabase(database, config);
    CacheHierarchyTarget target;
    core::CampaignRunner runner(&database, &target);
    runner.set_checkpoint_fork(checkpoint);
    auto summary = runner.Run(config.name);
    EXPECT_TRUE(summary.ok()) << summary.status().ToString();
    return *summary;
  }
};

TEST_F(CacheCampaignTest, SerialShardedAndForkedRunsLogIdentically) {
  const core::CampaignConfig config = MakeConfig();

  db::Database replay_db;
  const core::CampaignSummary replay = RunSerial(replay_db, config, false);
  EXPECT_EQ(replay.checkpoint_forks, 0u);
  const auto replay_logged =
      DumpTable(replay_db, core::kLoggedSystemStateTable);
  const auto replay_campaign =
      DumpTable(replay_db, core::kCampaignDataTable);
  ASSERT_FALSE(replay_logged.empty());

  // Checkpoint-fork execution (eligibility carries over unmodified:
  // instret triggers, normal logging, a fork-capable board).
  db::Database fork_db;
  const core::CampaignSummary fork = RunSerial(fork_db, config, true);
  EXPECT_GT(fork.checkpoint_forks, 0u);
  EXPECT_GT(fork.instructions_skipped, 0u);
  EXPECT_EQ(DumpTable(fork_db, core::kLoggedSystemStateTable),
            replay_logged);
  EXPECT_EQ(DumpTable(fork_db, core::kCampaignDataTable), replay_campaign);

  // Four-way sharding.
  auto factory = BuiltinTargetFactory("cache_hierarchy");
  ASSERT_TRUE(factory.ok());
  db::Database sharded_db;
  SetUpDatabase(sharded_db, config);
  core::ParallelCampaignRunner sharded(&sharded_db, *factory, 4);
  auto summary = sharded.Run(config.name);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(DumpTable(sharded_db, core::kLoggedSystemStateTable),
            replay_logged);
  EXPECT_EQ(DumpTable(sharded_db, core::kCampaignDataTable),
            replay_campaign);
}

TEST_F(CacheCampaignTest, EveryExperimentInjectsIntoTheDataArrayOnly) {
  // The cache_data_bit model narrows the sampled family: every logged
  // fault location must be a *.data coordinate.
  const core::CampaignConfig config = MakeConfig();
  db::Database database;
  RunSerial(database, config, std::nullopt);
  const db::Table* table =
      database.FindTable(core::kLoggedSystemStateTable);
  ASSERT_NE(table, nullptr);
  ASSERT_FALSE(table->rows().empty());
  std::size_t experiments = 0;
  for (const db::Row& row : table->rows()) {
    const std::string experiment_data = row[3].AsText();
    if (experiment_data == "reference") continue;
    const auto spec = core::ParseExperimentSpec(experiment_data);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    ASSERT_FALSE(spec->targets.empty());
    for (const FaultTarget& fault : spec->targets) {
      const auto coordinate = ParseCacheCoordinate(fault.location);
      ASSERT_TRUE(coordinate.has_value()) << fault.location;
      EXPECT_EQ(coordinate->array, CacheArray::kData) << fault.location;
      EXPECT_EQ(coordinate->unit, MemUnit::kDcache) << fault.location;
    }
    ++experiments;
  }
  EXPECT_EQ(experiments, config.num_experiments);
}

TEST_F(CacheCampaignTest, CacheModelOnAScanChainBoardFailsLoudly) {
  // thor_rd advertises no cache coordinates: the runner must refuse the
  // campaign instead of silently sampling an empty family.
  core::CampaignConfig config = MakeConfig();
  config.target = "thor_rd";
  db::Database database;
  ASSERT_TRUE(core::CreateGoofiSchema(database).ok());
  ThorRdTarget registrar;
  ASSERT_TRUE(
      core::RegisterTargetSystem(database, registrar, "card", "").ok());
  ASSERT_TRUE(core::StoreCampaign(database, config).ok());
  ThorRdTarget target;
  core::CampaignRunner runner(&database, &target);
  EXPECT_EQ(runner.Run(config.name).status().code(),
            ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace goofi::target
