// End-to-end integration: the paper's four phases (configuration,
// set-up, fault injection, analysis) across techniques and workloads,
// including database persistence between phases — the whole tool, not
// just its modules.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/goofi.h"
#include "test_util/temp_dir.h"

namespace goofi::core {
namespace {

namespace fs = std::filesystem;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = target::GetBuiltinWorkload("isort");
    ASSERT_TRUE(workload.ok());
    ASSERT_TRUE(target_.SetWorkload(*workload).ok());
    ASSERT_TRUE(RegisterTargetSystem(database_, target_, "sim-card",
                                     "integration board").ok());
  }

  db::Database database_;
  target::ThorRdTarget target_;
};

TEST_F(IntegrationTest, FullScifiPipelineOnIsort) {
  CampaignConfig config;
  config.name = "it_scifi";
  config.workload = "isort";
  config.num_experiments = 120;
  config.seed = 20030623;  // DSN 2003
  config.location_filters = {"cpu.regs.*", "cpu.pc", "cpu.ir", "icache.*",
                             "dcache.*"};
  ASSERT_TRUE(StoreCampaign(database_, config).ok());

  CampaignRunner runner(&database_, &target_);
  auto summary = runner.FaultInjectorSCIFI("it_scifi");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->experiments_run, 120u);

  auto analysis = AnalyzeCampaign(database_, "it_scifi");
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->total, 120u);
  EXPECT_EQ(analysis->detected + analysis->escaped + analysis->latent +
                analysis->overwritten + analysis->not_injected,
            analysis->total);
  // With cache arrays in the location mix, parity detections must occur.
  EXPECT_GT(analysis->detected, 0u);
  EXPECT_GT(analysis->detected_by_mechanism.count("dcache_parity") +
                analysis->detected_by_mechanism.count("icache_parity"),
            0u);
  // And a healthy chunk of random faults do nothing (the paper's
  // motivation for pre-injection analysis).
  EXPECT_GT(analysis->overwritten + analysis->not_injected, 10u);
  // Coverage estimate is a proper interval.
  EXPECT_LE(analysis->detection_coverage.low,
            analysis->detection_coverage.estimate);
  EXPECT_GE(analysis->detection_coverage.high,
            analysis->detection_coverage.estimate);
}

TEST_F(IntegrationTest, EngineControlCampaignFindsFailSilenceViolations) {
  CampaignConfig config;
  config.name = "it_engine";
  config.workload = "engine_control";
  config.num_experiments = 150;
  config.seed = 7;
  config.location_filters = {"cpu.regs.*"};
  ASSERT_TRUE(StoreCampaign(database_, config).ok());
  CampaignRunner runner(&database_, &target_);
  auto summary = runner.Run("it_engine");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_EQ(summary->reference.env_outputs.size(), 40u);

  auto analysis = AnalyzeCampaign(database_, "it_engine");
  ASSERT_TRUE(analysis.ok());
  // The control loop reads sensors every iteration: register faults can
  // corrupt the actuator stream. Either the executable assertions catch
  // them (detected) or they become fail-silence violations (escaped).
  EXPECT_GT(analysis->detected + analysis->fail_silence, 0u);
}

TEST_F(IntegrationTest, DatabaseSurvivesSaveAndLoadBetweenPhases) {
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_integration_db").string();
  fs::remove_all(dir);
  ASSERT_TRUE(database_.AttachWal(dir).ok());
  CampaignConfig config;
  config.name = "it_persist";
  config.workload = "isort";
  config.num_experiments = 40;
  config.seed = 99;
  config.location_filters = {"cpu.regs.*"};
  ASSERT_TRUE(StoreCampaign(database_, config).ok());
  CampaignRunner runner(&database_, &target_);
  ASSERT_TRUE(runner.Run("it_persist").ok());
  ASSERT_TRUE(database_.Commit().ok());
  auto reloaded = db::Database::Open(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  // Analysis of the reloaded database matches the in-memory one.
  auto original = AnalyzeCampaign(database_, "it_persist");
  auto restored = AnalyzeCampaign(*reloaded, "it_persist");
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->total, original->total);
  EXPECT_EQ(restored->detected, original->detected);
  EXPECT_EQ(restored->escaped, original->escaped);
  EXPECT_EQ(restored->latent, original->latent);
  EXPECT_EQ(restored->overwritten, original->overwritten);
  fs::remove_all(dir);
}

TEST_F(IntegrationTest, AnalysisViaSqlMatchesApi) {
  CampaignConfig config;
  config.name = "it_sql";
  config.workload = "fib";
  config.num_experiments = 30;
  config.seed = 5;
  config.location_filters = {"cpu.regs.*"};
  ASSERT_TRUE(StoreCampaign(database_, config).ok());
  CampaignRunner runner(&database_, &target_);
  ASSERT_TRUE(runner.Run("it_sql").ok());

  // The paper's analysis phase: user-written SQL over LoggedSystemState.
  auto rows = db::sql::ExecuteSql(
      database_,
      "SELECT COUNT(*) FROM LoggedSystemState WHERE campaign_name = "
      "'it_sql' AND parent_experiment IS NULL");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].AsInteger(), 31);  // 30 + reference

  auto analysis = AnalyzeCampaign(database_, "it_sql");
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->total, 30u);
}

TEST_F(IntegrationTest, MergedCampaignRuns) {
  CampaignConfig a;
  a.name = "it_a";
  a.workload = "fib";
  a.num_experiments = 10;
  a.seed = 1;
  a.location_filters = {"cpu.regs.*"};
  CampaignConfig b = a;
  b.name = "it_b";
  b.location_filters = {"cpu.pc"};
  ASSERT_TRUE(StoreCampaign(database_, a).ok());
  ASSERT_TRUE(StoreCampaign(database_, b).ok());
  auto merged = MergeCampaigns(database_, {"it_a", "it_b"}, "it_merged");
  ASSERT_TRUE(merged.ok());
  CampaignRunner runner(&database_, &target_);
  auto summary = runner.Run("it_merged");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->experiments_run, 20u);
}

TEST_F(IntegrationTest, AllThreeTechniquesOnOneWorkload) {
  CampaignRunner runner(&database_, &target_);
  const struct {
    const char* name;
    target::Technique technique;
    std::vector<std::string> filters;
  } cases[] = {
      {"t_scifi", target::Technique::kScifi, {"cpu.regs.*", "icache.*"}},
      {"t_pre", target::Technique::kSwifiPreRuntime, {}},
      {"t_rt", target::Technique::kSwifiRuntime, {"cpu.regs.*"}},
  };
  for (const auto& c : cases) {
    CampaignConfig config;
    config.name = c.name;
    config.workload = "isort";
    config.technique = c.technique;
    config.num_experiments = 30;
    config.seed = 13;
    config.location_filters = c.filters;
    ASSERT_TRUE(StoreCampaign(database_, config).ok());
    auto summary = runner.Run(c.name);
    ASSERT_TRUE(summary.ok()) << c.name << ": "
                              << summary.status().ToString();
    auto analysis = AnalyzeCampaign(database_, c.name);
    ASSERT_TRUE(analysis.ok());
    EXPECT_EQ(analysis->total, 30u) << c.name;
  }
}

}  // namespace
}  // namespace goofi::core
