// Campaign-level tests for `static_analysis = equivalence`: one
// representative injection per def-use class, stub rows for the pruned
// duplicates, weighted extrapolation in the analysis stage, serial /
// parallel bit-identity, and the exhaustive class re-injection audit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/campaign.h"
#include "core/crosscheck.h"
#include "core/goofi_schema.h"
#include "core/runner.h"
#include "core/supervision.h"
#include "db/sql/executor.h"
#include "target/thor_rd_target.h"
#include "target/workloads.h"

namespace goofi::core {
namespace {

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

class EquivalenceCampaignTest : public ::testing::Test {
 protected:
  // A narrow injection window keeps the class space small enough that
  // 160 draws reliably collide: the fib prologue touches few
  // registers, so distinct (reg, bit, interval) triples are scarce.
  static CampaignConfig MakeConfig(const std::string& name,
                                   std::uint32_t experiments = 160) {
    CampaignConfig config;
    config.name = name;
    config.workload = "fib";
    config.num_experiments = experiments;
    config.seed = 7;
    config.location_filters = {"cpu.regs.*"};
    config.use_preinjection_analysis = true;
    config.use_static_analysis = true;
    config.use_equivalence = true;
    config.time_window_lo = 0;
    config.time_window_hi = 30;
    return config;
  }

  static void SetUpDatabase(db::Database& database,
                            const CampaignConfig& config) {
    ASSERT_TRUE(CreateGoofiSchema(database).ok());
    target::ThorRdTarget registrar;
    ASSERT_TRUE(RegisterTargetSystem(database, registrar, "card", "").ok());
    ASSERT_TRUE(StoreCampaign(database, config).ok());
  }

  static target::TargetFactory ThorFactory() {
    auto factory = target::BuiltinTargetFactory("thor_rd");
    EXPECT_TRUE(factory.ok());
    return *factory;
  }
};

TEST_F(EquivalenceCampaignTest, RepresentativesRunAndDuplicatesStub) {
  const CampaignConfig config = MakeConfig("equiv");
  db::Database database;
  SetUpDatabase(database, config);
  target::ThorRdTarget target;
  auto summary = CampaignRunner(&database, &target).Run("equiv");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  // Every planned experiment is either a class representative or a
  // pruned duplicate, and the narrow window guarantees collisions.
  EXPECT_EQ(summary->equiv_classes + summary->equiv_duplicates,
            config.num_experiments);
  EXPECT_GT(summary->equiv_duplicates, 0u);
  EXPECT_GE(summary->equiv_space_weight, summary->equiv_classes);
  EXPECT_EQ(summary->experiments_run, config.num_experiments);

  std::size_t stubs = 0;
  std::size_t representatives = 0;
  const db::Table* logged = database.FindTable(kLoggedSystemStateTable);
  ASSERT_NE(logged, nullptr);
  for (const db::Row& row : logged->rows()) {
    if (row[6].is_null()) continue;  // the reference row
    if (row[6].AsText() == kToolStatusEquivalent) {
      ++stubs;
      // A stub points at its representative and stores no state: the
      // outcome IS the representative's.
      EXPECT_FALSE(row[1].is_null());
      EXPECT_TRUE(row[4].is_null());
      ASSERT_FALSE(row[8].is_null());
      EXPECT_EQ(row[5].AsInteger(), 0);
    } else if (!row[8].is_null()) {
      ++representatives;
      EXPECT_TRUE(row[1].is_null());
      EXPECT_FALSE(row[4].is_null());
      EXPECT_GE(row[9].AsInteger(), 1);
    }
  }
  EXPECT_EQ(stubs, summary->equiv_duplicates);
  EXPECT_EQ(representatives, summary->equiv_classes);

  auto analysis = AnalyzeCampaign(database, "equiv");
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_TRUE(analysis->equivalence.enabled);
  EXPECT_EQ(analysis->equivalence.classes, summary->equiv_classes);
  EXPECT_EQ(analysis->equivalence.duplicates, summary->equiv_duplicates);
  EXPECT_EQ(analysis->equivalence.unresolved_duplicates, 0u);
  EXPECT_EQ(analysis->equivalence.space_weight, summary->equiv_space_weight);
  // Each class weight >= 1, so every weighted count dominates its
  // per-representative (measured) counterpart.
  EXPECT_GE(analysis->equivalence.weighted_detected, analysis->detected);
  EXPECT_GE(analysis->equivalence.weighted_escaped, analysis->escaped);
  const std::uint64_t weighted_total =
      analysis->equivalence.weighted_detected +
      analysis->equivalence.weighted_escaped +
      analysis->equivalence.weighted_latent +
      analysis->equivalence.weighted_overwritten +
      analysis->equivalence.weighted_not_injected;
  EXPECT_EQ(weighted_total, analysis->equivalence.space_weight);
  // The report renders the extrapolation block.
  EXPECT_NE(FormatAnalysisReport(*analysis).find("Equivalence classes"),
            std::string::npos);
}

TEST_F(EquivalenceCampaignTest, SerialAndParallelDatabasesAreBitIdentical) {
  const CampaignConfig config = MakeConfig("equiv_par");
  db::Database serial_db;
  SetUpDatabase(serial_db, config);
  target::ThorRdTarget serial_target;
  auto serial_summary =
      CampaignRunner(&serial_db, &serial_target).Run("equiv_par");
  ASSERT_TRUE(serial_summary.ok()) << serial_summary.status().ToString();

  db::Database parallel_db;
  SetUpDatabase(parallel_db, config);
  ParallelCampaignRunner runner(&parallel_db, ThorFactory(), 4);
  auto summary = runner.Run("equiv_par");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  EXPECT_EQ(DumpTable(parallel_db, kLoggedSystemStateTable),
            DumpTable(serial_db, kLoggedSystemStateTable));
  EXPECT_EQ(DumpTable(parallel_db, kCampaignDataTable),
            DumpTable(serial_db, kCampaignDataTable));
  EXPECT_EQ(summary->equiv_classes, serial_summary->equiv_classes);
  EXPECT_EQ(summary->equiv_duplicates, serial_summary->equiv_duplicates);
  EXPECT_EQ(summary->equiv_space_weight, serial_summary->equiv_space_weight);
  EXPECT_EQ(summary->preinjection_resamples,
            serial_summary->preinjection_resamples);
}

TEST_F(EquivalenceCampaignTest, EquivalenceModeRoundTripsThroughTheDb) {
  const CampaignConfig config = MakeConfig("equiv_rt");
  db::Database database;
  SetUpDatabase(database, config);
  auto loaded = LoadCampaign(database, "equiv_rt");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->use_static_analysis);
  EXPECT_TRUE(loaded->use_equivalence);

  CampaignConfig liveness_only = MakeConfig("liveness_rt");
  liveness_only.use_equivalence = false;
  ASSERT_TRUE(StoreCampaign(database, liveness_only).ok());
  auto loaded_liveness = LoadCampaign(database, "liveness_rt");
  ASSERT_TRUE(loaded_liveness.ok());
  EXPECT_TRUE(loaded_liveness->use_static_analysis);
  EXPECT_FALSE(loaded_liveness->use_equivalence);
}

TEST_F(EquivalenceCampaignTest, CrossCheckProvesHomogeneityAndBounds) {
  const CampaignConfig config = MakeConfig("equiv_audit", 60);
  db::Database database;
  SetUpDatabase(database, config);
  target::ThorRdTarget target;
  auto summary = CampaignRunner(&database, &target).Run("equiv_audit");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  auto bounded = CrossCheckEquivalenceCampaign(database, "equiv_audit", 3);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_EQ(bounded->classes_checked, 3u);
  EXPECT_GE(bounded->members_injected, 3u);
  EXPECT_EQ(bounded->members_injected, bounded->space_weight);

  auto full = CrossCheckEquivalenceCampaign(database, "equiv_audit");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->classes_checked, summary->equiv_classes);
  EXPECT_EQ(full->space_weight, summary->equiv_space_weight);
}

TEST_F(EquivalenceCampaignTest, CrossCheckDetectsATamperedRepresentative) {
  const CampaignConfig config = MakeConfig("equiv_tamper", 40);
  db::Database database;
  SetUpDatabase(database, config);
  target::ThorRdTarget target;
  ASSERT_TRUE(CampaignRunner(&database, &target).Run("equiv_tamper").ok());

  // Corrupt the first representative's stored observation; every
  // member re-injection now disagrees with it, and the audit must say
  // so rather than bless the class.
  auto tampered = db::sql::ExecuteSql(
      database,
      "UPDATE LoggedSystemState SET state_vector = 'tampered' WHERE "
      "tool_status = 'ok' AND campaign_name = 'equiv_tamper'");
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  ASSERT_GT(tampered->affected_rows, 0u);

  auto audit = CrossCheckEquivalenceCampaign(database, "equiv_tamper", 1);
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.status().message().find("outcome-heterogeneous"),
            std::string::npos);
}

TEST_F(EquivalenceCampaignTest, RejectsCombinationsTheTheoryCannotCover) {
  db::Database database;
  CampaignConfig config = MakeConfig("equiv_bad");
  config.model.kind = target::FaultModel::Kind::kPermanentStuckAt;
  SetUpDatabase(database, config);
  target::ThorRdTarget target;
  auto summary = CampaignRunner(&database, &target).Run("equiv_bad");
  EXPECT_FALSE(summary.ok());
}

}  // namespace
}  // namespace goofi::core
