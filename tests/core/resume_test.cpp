// Resume semantics: a stopped campaign continues deterministically and
// ends up byte-identical (modulo timing-free state) to an uninterrupted
// run with the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/goofi.h"
#include "test_util/temp_dir.h"

namespace goofi::core {
namespace {

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(CreateGoofiSchema(database_).ok());
    auto workload = target::GetBuiltinWorkload("fib");
    ASSERT_TRUE(workload.ok());
    ASSERT_TRUE(target_.SetWorkload(*workload).ok());
    ASSERT_TRUE(RegisterTargetSystem(database_, target_, "card", "").ok());
  }

  CampaignConfig MakeConfig(const std::string& name) {
    CampaignConfig config;
    config.name = name;
    config.workload = "fib";
    config.num_experiments = 30;
    config.seed = 17;
    config.location_filters = {"cpu.regs.*"};
    return config;
  }

  std::vector<std::string> ExperimentData(const std::string& campaign) {
    return ExperimentDataIn(database_, campaign);
  }

  static std::vector<std::string> ExperimentDataIn(
      db::Database& database, const std::string& campaign) {
    std::vector<std::string> data;
    const db::Table* logged = database.FindTable(kLoggedSystemStateTable);
    for (const db::Row& row : logged->rows()) {
      if (row[2].AsText() != campaign) continue;
      if (row[3].AsText() == "reference") continue;
      std::string entry = row[3].AsText();
      data.push_back(entry.substr(entry.find(';')));  // drop the name
    }
    std::sort(data.begin(), data.end());
    return data;
  }

  db::Database database_;
  target::ThorRdTarget target_;
};

TEST_F(ResumeTest, StoppedCampaignResumesToCompletion) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("r1")).ok());
  CampaignRunner runner(&database_, &target_);
  CampaignController controller;
  runner.set_controller(&controller);
  runner.set_progress_callback([&](const ProgressInfo& info) {
    if (info.experiments_done == 12) controller.Stop();
  });
  auto stopped = runner.Run("r1");
  ASSERT_TRUE(stopped.ok());
  EXPECT_EQ(stopped->experiments_run, 12u);

  // Resume with a fresh runner and no controller.
  CampaignRunner resumer(&database_, &target_);
  auto resumed = resumer.Resume("r1");
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->experiments_run, 18u);

  // The completed campaign matches an uninterrupted run with the same
  // seed, experiment for experiment.
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("r2")).ok());
  ASSERT_TRUE(CampaignRunner(&database_, &target_).Run("r2").ok());
  EXPECT_EQ(ExperimentData("r1"), ExperimentData("r2"));

  auto status = db::sql::ExecuteSql(
      database_,
      "SELECT status, experiments_done FROM CampaignData WHERE "
      "campaign_name = 'r1'");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rows[0][0].AsText(), "completed");
  EXPECT_EQ(status->rows[0][1].AsInteger(), 30);
}

TEST_F(ResumeTest, ResumingCompletedCampaignIsNoOp) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("done")).ok());
  CampaignRunner runner(&database_, &target_);
  ASSERT_TRUE(runner.Run("done").ok());
  auto again = runner.Resume("done");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->experiments_run, 0u);
  auto count = db::sql::ExecuteSql(
      database_,
      "SELECT COUNT(*) FROM LoggedSystemState WHERE campaign_name = "
      "'done'");
  EXPECT_EQ(count->rows[0][0].AsInteger(), 31);  // no duplicates
}

TEST_F(ResumeTest, RunRefusesToRerunCompletedCampaign) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("once")).ok());
  CampaignRunner runner(&database_, &target_);
  ASSERT_TRUE(runner.Run("once").ok());
  EXPECT_EQ(runner.Run("once").status().code(), ErrorCode::kAlreadyExists);
}

TEST_F(ResumeTest, CrashRecoveryViaCheckpointDirectory) {
  namespace fs = std::filesystem;
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_checkpoint_test").string();
  fs::remove_all(dir);

  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("ckpt")).ok());
  CampaignRunner runner(&database_, &target_);
  runner.set_checkpoint(dir, /*every_n=*/5);
  CampaignController controller;
  runner.set_controller(&controller);
  runner.set_progress_callback([&](const ProgressInfo& info) {
    // "Crash" right after the third checkpoint.
    if (info.experiments_done == 15) controller.Stop();
  });
  ASSERT_TRUE(runner.Run("ckpt").ok());

  // Recovery: reload the world from the checkpoint and resume there.
  auto recovered = db::Database::LoadFromDirectory(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  target::ThorRdTarget fresh_target;
  auto workload = target::GetBuiltinWorkload("fib");
  ASSERT_TRUE(fresh_target.SetWorkload(*workload).ok());
  CampaignRunner resumer(&(*recovered), &fresh_target);
  auto summary = resumer.Resume("ckpt");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->experiments_run, 15u);  // 15 survived the checkpoint

  auto analysis = AnalyzeCampaign(*recovered, "ckpt");
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->total, 30u);
  fs::remove_all(dir);
}

TEST_F(ResumeTest, ParallelCrashAfterCheckpointResumesWithOtherWorkerCount) {
  namespace fs = std::filesystem;
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_parallel_checkpoint_test").string();
  fs::remove_all(dir);

  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("pckpt")).ok());
  auto factory = target::BuiltinTargetFactory("thor_rd");
  ASSERT_TRUE(factory.ok());
  ParallelCampaignRunner runner(&database_, *factory, 4);
  runner.set_checkpoint(dir, /*every_n=*/5);
  CampaignController controller;
  runner.set_controller(&controller);
  runner.set_progress_callback([&](ProgressInfo info) {
    // "Crash" mid-campaign: stop the fleet right after a checkpoint.
    if (info.experiments_done == 15) controller.Stop();
  });
  ASSERT_TRUE(runner.Run("pckpt").ok());

  // Recovery: reload the checkpointed world (which holds some multiple
  // of 5 experiments — in-flight claims may land after the stop) and
  // resume the sharded plan with a *different* worker count.
  auto recovered = db::Database::LoadFromDirectory(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ParallelCampaignRunner resumer(&(*recovered), *factory, 2);
  auto summary = resumer.Resume("pckpt");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->experiments_stopped_early, 0u);

  // Completion with no duplicates: exactly 30 experiments + reference.
  auto count = db::sql::ExecuteSql(
      *recovered,
      "SELECT COUNT(*) FROM LoggedSystemState WHERE campaign_name = "
      "'pckpt'");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInteger(), 31);
  auto status = db::sql::ExecuteSql(
      *recovered,
      "SELECT status, experiments_done FROM CampaignData WHERE "
      "campaign_name = 'pckpt'");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rows[0][0].AsText(), "completed");
  EXPECT_EQ(status->rows[0][1].AsInteger(), 30);

  // And the recovered campaign holds the same experiments as a serial
  // uninterrupted run of the same configuration.
  CampaignConfig reference_config = MakeConfig("pserial");
  ASSERT_TRUE(StoreCampaign(*recovered, reference_config).ok());
  ASSERT_TRUE(CampaignRunner(&(*recovered), &target_).Run("pserial").ok());
  EXPECT_EQ(ExperimentDataIn(*recovered, "pckpt"),
            ExperimentDataIn(*recovered, "pserial"));
  fs::remove_all(dir);
}

TEST_F(ResumeTest, ResumeOfNeverRunCampaignRunsEverything) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("fresh")).ok());
  CampaignRunner runner(&database_, &target_);
  auto summary = runner.Resume("fresh");
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->experiments_run, 30u);
}

}  // namespace
}  // namespace goofi::core
