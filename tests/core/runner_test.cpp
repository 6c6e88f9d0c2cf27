#include "core/runner.h"

#include <gtest/gtest.h>

#include <thread>

#include "core/analysis.h"
#include "core/goofi_schema.h"
#include "db/sql/executor.h"
#include "target/thor_rd_target.h"
#include "util/strings.h"

namespace goofi::core {
namespace {

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(CreateGoofiSchema(database_).ok());
    auto workload = target::GetBuiltinWorkload("fib");
    ASSERT_TRUE(workload.ok());
    ASSERT_TRUE(target_.SetWorkload(*workload).ok());
    ASSERT_TRUE(RegisterTargetSystem(database_, target_, "card0", "").ok());
  }

  CampaignConfig MakeConfig(const std::string& name,
                            std::uint32_t experiments = 20) {
    CampaignConfig config;
    config.name = name;
    config.workload = "fib";
    config.num_experiments = experiments;
    config.seed = 11;
    config.location_filters = {"cpu.regs.*"};
    return config;
  }

  std::int64_t CountRows(const std::string& where) {
    auto result = db::sql::ExecuteSql(
        database_, "SELECT COUNT(*) FROM LoggedSystemState WHERE " + where);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows[0][0].AsInteger() : -1;
  }

  db::Database database_;
  target::ThorRdTarget target_;
};

TEST_F(RunnerTest, RunsFullCampaignAndLogsEverything) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("c1")).ok());
  CampaignRunner runner(&database_, &target_);
  std::size_t progress_calls = 0;
  std::size_t last_done = 0;
  runner.set_progress_callback([&](const ProgressInfo& info) {
    ++progress_calls;
    last_done = info.experiments_done;
    EXPECT_EQ(info.experiments_total, 20u);
  });
  auto summary = runner.FaultInjectorSCIFI("c1");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->experiments_run, 20u);
  EXPECT_EQ(summary->experiments_stopped_early, 0u);
  EXPECT_GT(summary->reference.instructions, 50u);
  EXPECT_EQ(progress_calls, 20u);
  EXPECT_EQ(last_done, 20u);
  // 20 experiments + 1 reference row.
  EXPECT_EQ(CountRows("campaign_name = 'c1'"), 21);
  EXPECT_EQ(CountRows("experiment_name = 'c1/reference'"), 1);
  // Campaign status updated.
  auto status = db::sql::ExecuteSql(
      database_,
      "SELECT status, experiments_done FROM CampaignData WHERE "
      "campaign_name = 'c1'");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rows[0][0].AsText(), "completed");
  EXPECT_EQ(status->rows[0][1].AsInteger(), 20);
}

TEST_F(RunnerTest, SameSeedSameExperiments) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("s1", 10)).ok());
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("s2", 10)).ok());
  CampaignRunner runner(&database_, &target_);
  ASSERT_TRUE(runner.Run("s1").ok());
  ASSERT_TRUE(runner.Run("s2").ok());
  // The experiment_data for the i-th experiment differs only in name.
  for (int i = 0; i < 10; ++i) {
    auto fetch = [&](const std::string& campaign) {
      auto result = db::sql::ExecuteSql(
          database_, StrFormat("SELECT experiment_data FROM "
                               "LoggedSystemState WHERE experiment_name = "
                               "'%s/exp%05d'",
                               campaign.c_str(), i));
      EXPECT_TRUE(result.ok());
      std::string data = result->rows[0][0].AsText();
      return data.substr(data.find(';'));  // drop name=...
    };
    EXPECT_EQ(fetch("s1"), fetch("s2")) << i;
  }
}

TEST_F(RunnerTest, TechniqueWrappersEnforceTechnique) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("scifi_c")).ok());
  CampaignConfig swifi = MakeConfig("swifi_c");
  swifi.technique = target::Technique::kSwifiPreRuntime;
  swifi.location_filters = {"mem.*"};
  ASSERT_TRUE(StoreCampaign(database_, swifi).ok());
  CampaignRunner runner(&database_, &target_);
  EXPECT_EQ(runner.FaultInjectorSWIFI("scifi_c").status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(runner.FaultInjectorSCIFI("swifi_c").status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(runner.FaultInjectorSWIFI("swifi_c").ok());
}

TEST_F(RunnerTest, PreRuntimeSwifiCampaign) {
  CampaignConfig config = MakeConfig("pre", 15);
  config.technique = target::Technique::kSwifiPreRuntime;
  config.location_filters.clear();  // all memory ranges
  ASSERT_TRUE(StoreCampaign(database_, config).ok());
  CampaignRunner runner(&database_, &target_);
  auto summary = runner.Run("pre");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->experiments_run, 15u);
  auto analysis = AnalyzeCampaign(database_, "pre");
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->total, 15u);
}

TEST_F(RunnerTest, RuntimeSwifiCampaign) {
  CampaignConfig config = MakeConfig("rt", 15);
  config.technique = target::Technique::kSwifiRuntime;
  ASSERT_TRUE(StoreCampaign(database_, config).ok());
  CampaignRunner runner(&database_, &target_);
  auto summary = runner.Run("rt");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->experiments_run, 15u);
}

TEST_F(RunnerTest, ControllerStopsEarly) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("stop_me", 50)).ok());
  CampaignRunner runner(&database_, &target_);
  CampaignController controller;
  runner.set_controller(&controller);
  runner.set_progress_callback([&](const ProgressInfo& info) {
    if (info.experiments_done == 10) controller.Stop();
  });
  auto summary = runner.Run("stop_me");
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->experiments_run, 10u);
  EXPECT_EQ(summary->experiments_stopped_early, 40u);
  auto status = db::sql::ExecuteSql(
      database_,
      "SELECT status FROM CampaignData WHERE campaign_name = 'stop_me'");
  EXPECT_EQ(status->rows[0][0].AsText(), "stopped");
}

TEST_F(RunnerTest, PauseAndResumeFromAnotherThread) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("pausable", 30)).ok());
  CampaignRunner runner(&database_, &target_);
  CampaignController controller;
  controller.Pause();  // paused before the first experiment
  runner.set_controller(&controller);
  std::thread resumer([&controller]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    controller.Resume();
  });
  auto summary = runner.Run("pausable");
  resumer.join();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->experiments_run, 30u);
}

TEST_F(RunnerTest, DetailReRunCreatesChildWithParent) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("parented", 5)).ok());
  CampaignRunner runner(&database_, &target_);
  ASSERT_TRUE(runner.Run("parented").ok());

  auto child = runner.ReRunInDetailMode("parented/exp00002");
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  EXPECT_EQ(*child, "parented/exp00002/detail0");
  auto row = db::sql::ExecuteSql(
      database_,
      "SELECT parent_experiment, state_vector FROM LoggedSystemState WHERE "
      "experiment_name = 'parented/exp00002/detail0'");
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->rows.size(), 1u);
  EXPECT_EQ(row->rows[0][0].AsText(), "parented/exp00002");
  // The detail re-run logged a per-instruction trace.
  auto observation =
      target::Observation::Deserialize(row->rows[0][1].AsText());
  ASSERT_TRUE(observation.ok());
  EXPECT_FALSE(observation->detail_trace.empty());
  // Second re-run gets a fresh child name.
  auto second = runner.ReRunInDetailMode("parented/exp00002");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "parented/exp00002/detail1");
  // The detail child reproduces the parent's outcome: same experiment
  // data modulo the name.
  auto parent_data = db::sql::ExecuteSql(
      database_,
      "SELECT experiment_data FROM LoggedSystemState WHERE experiment_name "
      "= 'parented/exp00002'");
  auto child_data = db::sql::ExecuteSql(
      database_,
      "SELECT experiment_data FROM LoggedSystemState WHERE experiment_name "
      "= 'parented/exp00002/detail0'");
  const std::string parent_tail =
      parent_data->rows[0][0].AsText().substr(
          parent_data->rows[0][0].AsText().find(';'));
  const std::string child_tail =
      child_data->rows[0][0].AsText().substr(
          child_data->rows[0][0].AsText().find(';'));
  EXPECT_EQ(parent_tail, child_tail);
}

TEST_F(RunnerTest, ReRunRejectsReferenceAndUnknown) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("rr", 3)).ok());
  CampaignRunner runner(&database_, &target_);
  ASSERT_TRUE(runner.Run("rr").ok());
  EXPECT_EQ(runner.ReRunInDetailMode("rr/reference").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(runner.ReRunInDetailMode("ghost").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(RunnerTest, NoTargetAndEmptyFactoryFailsTyped) {
  // A runner with neither a target nor a way to mint one refuses both
  // a run and a detail re-run with a typed error, logging nothing.
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("nf", 3)).ok());
  {
    CampaignRunner runner(&database_, &target_);
    ASSERT_TRUE(runner.Run("nf").ok());
  }
  const std::int64_t rows = CountRows("campaign_name = 'nf'");
  CampaignRunner runner(&database_, target::TargetFactory{}, 1);
  EXPECT_EQ(runner.Run("nf").status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(runner.ReRunInDetailMode("nf/exp00000").status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(CountRows("campaign_name = 'nf'"), rows);
}

TEST_F(RunnerTest, PreinjectionAnalysisFiltersDeadPoints) {
  // Plain campaign vs pre-injection campaign on the same seed: the
  // pre-injection one must produce strictly fewer overwritten/no-effect
  // outcomes among register faults.
  CampaignConfig plain = MakeConfig("plain", 60);
  ASSERT_TRUE(StoreCampaign(database_, plain).ok());
  CampaignConfig filtered = MakeConfig("filtered", 60);
  filtered.use_preinjection_analysis = true;
  ASSERT_TRUE(StoreCampaign(database_, filtered).ok());

  CampaignRunner runner(&database_, &target_);
  auto plain_summary = runner.Run("plain");
  ASSERT_TRUE(plain_summary.ok());
  auto filtered_summary = runner.Run("filtered");
  ASSERT_TRUE(filtered_summary.ok()) << filtered_summary.status().ToString();
  EXPECT_GT(filtered_summary->preinjection_resamples, 0u);
  EXPECT_GT(filtered_summary->register_live_fraction, 0.0);
  EXPECT_LT(filtered_summary->register_live_fraction, 0.5);

  auto plain_analysis = AnalyzeCampaign(database_, "plain");
  auto filtered_analysis = AnalyzeCampaign(database_, "filtered");
  ASSERT_TRUE(plain_analysis.ok());
  ASSERT_TRUE(filtered_analysis.ok());
  const std::size_t plain_noneffect =
      plain_analysis->overwritten + plain_analysis->not_injected;
  const std::size_t filtered_noneffect =
      filtered_analysis->overwritten + filtered_analysis->not_injected;
  EXPECT_LT(filtered_noneffect, plain_noneffect);
  const std::size_t filtered_effective =
      filtered_analysis->detected + filtered_analysis->escaped +
      filtered_analysis->latent;
  const std::size_t plain_effective =
      plain_analysis->detected + plain_analysis->escaped +
      plain_analysis->latent;
  EXPECT_GT(filtered_effective, plain_effective);
}

TEST_F(RunnerTest, MissingCampaignFails) {
  CampaignRunner runner(&database_, &target_);
  EXPECT_EQ(runner.Run("ghost").status().code(), ErrorCode::kNotFound);
}

TEST_F(RunnerTest, TargetMismatchFails) {
  CampaignConfig config = MakeConfig("mismatch");
  config.target = "other_board";
  ASSERT_TRUE(db::sql::ExecuteSql(database_,
                                  "INSERT INTO TargetSystemData VALUES "
                                  "('other_board', 'c', '')").ok());
  ASSERT_TRUE(StoreCampaign(database_, config).ok());
  CampaignRunner runner(&database_, &target_);
  EXPECT_EQ(runner.Run("mismatch").status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(RunnerTest, TriggerKindsProduceRunnableCampaigns) {
  CampaignRunner runner(&database_, &target_);
  for (const TriggerKind kind :
       {TriggerKind::kInstret, TriggerKind::kRtc, TriggerKind::kBranch,
        TriggerKind::kCall, TriggerKind::kPc, TriggerKind::kDataRead,
        TriggerKind::kDataWrite}) {
    const std::string trigger = TriggerKindName(kind);
    CampaignConfig config = MakeConfig("trig_" + trigger, 8);
    config.trigger_kind = kind;
    ASSERT_TRUE(StoreCampaign(database_, config).ok());
    auto summary = runner.Run("trig_" + trigger);
    ASSERT_TRUE(summary.ok()) << trigger << ": "
                              << summary.status().ToString();
    EXPECT_EQ(summary->experiments_run, 8u) << trigger;
  }
}

}  // namespace
}  // namespace goofi::core
