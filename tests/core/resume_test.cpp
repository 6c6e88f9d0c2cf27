// Resume semantics: a stopped campaign continues deterministically and
// ends up byte-identical (modulo timing-free state) to an uninterrupted
// run with the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>

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

  ASSERT_TRUE(database_.AttachWal(dir).ok());
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

  // Recovery: reopen the world at its last checkpoint commit and resume
  // there.
  auto recovered = db::Database::Open(dir);
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

  ASSERT_TRUE(database_.AttachWal(dir).ok());
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

  // Recovery: reopen the checkpointed world (the stop landed right
  // after the third cadence commit, so it holds the first 15
  // experiments) and resume the sharded plan with a *different* worker
  // count.
  auto recovered = db::Database::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ParallelCampaignRunner resumer(&(*recovered), *factory, 2);
  auto summary = resumer.Resume("pckpt");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->experiments_run, 15u);
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

// This process's peak resident set in kB (VmHWM), or nullopt where
// /proc/self/status is not available.
std::optional<long> PeakResidentKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return std::nullopt;
}

// Nothing about a run or a resume grows with the plan: a campaign of
// 10^9 experiments is stopped at 5, resumed at the logged prefix and
// stopped at 10, with no byte kept or name formatted per planned
// experiment.
TEST_F(ResumeTest, BillionExperimentPlanResumesAtTheLoggedPrefix) {
  constexpr std::uint32_t kPlanned = 1000000000;
  CampaignConfig config = MakeConfig("huge");
  config.num_experiments = kPlanned;
  ASSERT_TRUE(StoreCampaign(database_, config).ok());
  const std::optional<long> peak_before = PeakResidentKb();
  for (const std::size_t stop_at : {5u, 10u}) {
    CampaignController controller;
    CampaignRunner runner(&database_, &target_);
    runner.set_controller(&controller);
    runner.set_progress_callback([&](ProgressInfo info) {
      if (info.experiments_done == stop_at) controller.Stop();
    });
    auto summary = stop_at == 5 ? runner.Run("huge") : runner.Resume("huge");
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->experiments_run, 5u);
    EXPECT_EQ(summary->experiments_stopped_early, kPlanned - stop_at);
  }
  const db::Table* logged = database_.FindTable(kLoggedSystemStateTable);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(logged->FindByUnique(0, db::Value::Text_(
                                            ExperimentName("huge", i)))
                    .has_value())
        << i;
  }
  auto count = db::sql::ExecuteSql(
      database_,
      "SELECT COUNT(*) FROM LoggedSystemState WHERE campaign_name = "
      "'huge'");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInteger(), 11);  // + the reference
  auto status = db::sql::ExecuteSql(
      database_,
      "SELECT status, experiments_done FROM CampaignData WHERE "
      "campaign_name = 'huge'");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rows[0][0].AsText(), "stopped");
  EXPECT_EQ(status->rows[0][1].AsInteger(), 10);
  // One byte per planned experiment would be ~1 GB; the bound leaves
  // room for sanitizer runtimes.
  if (peak_before.has_value()) {
    EXPECT_LT(*PeakResidentKb() - *peak_before, 256 * 1024);
  }
}

// Every run leaves a prefix of the plan logged, so a hole in it means
// rows were lost. Resume refuses, naming the campaign, before it writes
// anything: re-running the hole would append it out of order.
TEST_F(ResumeTest, HoleInTheLoggedPrefixIsDataLoss) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("holed")).ok());
  CampaignController controller;
  CampaignRunner runner(&database_, &target_);
  runner.set_controller(&controller);
  runner.set_progress_callback([&](ProgressInfo info) {
    if (info.experiments_done == 10) controller.Stop();
  });
  ASSERT_TRUE(runner.Run("holed").ok());
  auto deleted = db::sql::ExecuteSql(
      database_,
      "DELETE FROM LoggedSystemState WHERE experiment_name = "
      "'holed/exp00004'");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  ASSERT_EQ(deleted->affected_rows, 1u);

  auto resumed = CampaignRunner(&database_, &target_).Resume("holed");
  EXPECT_EQ(resumed.status().code(), ErrorCode::kDataLoss);
  EXPECT_NE(resumed.status().message().find("'holed'"), std::string::npos)
      << resumed.status().ToString();
  auto count = db::sql::ExecuteSql(
      database_,
      "SELECT COUNT(*) FROM LoggedSystemState WHERE campaign_name = "
      "'holed'");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInteger(), 10);  // nothing re-ran
  // Nor was anything written: the campaign still reads stopped at 10.
  auto status = db::sql::ExecuteSql(
      database_,
      "SELECT status, experiments_done FROM CampaignData WHERE "
      "campaign_name = 'holed'");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rows[0][0].AsText(), "stopped");
  EXPECT_EQ(status->rows[0][1].AsInteger(), 10);
}

TEST_F(ResumeTest, ResumeOfNeverRunCampaignRunsEverything) {
  ASSERT_TRUE(StoreCampaign(database_, MakeConfig("fresh")).ok());
  CampaignRunner runner(&database_, &target_);
  auto summary = runner.Resume("fresh");
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->experiments_run, 30u);
}

// Every file of a database directory: name -> bytes.
std::map<std::string, std::string> DirectoryBytes(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

// goofi_tool's and goofi_serve's sequence (OpenOrCreate, store, run on
// the shared cadence), drained before experiment 0, then resumed: the
// campaign must be there to resume, and the finished directory must be
// byte-identical to an uninterrupted run's.
TEST_F(ResumeTest, DrainBeforeFirstExperimentResumesToOneShotBytes) {
  const std::filesystem::path root = test_util::ProcessTempDir();
  CampaignConfig config = MakeConfig("drain0");
  config.num_experiments = 40;  // past one cadence commit
  const target::TargetFactory factory = [] {
    return TargetRegistry::Instance().Create("thor_rd");
  };
  const auto run = [&](const std::string& dir, bool resume,
                       CampaignController* controller) {
    auto database = OpenOrCreate(dir);
    ASSERT_TRUE(database.ok()) << database.status().ToString();
    if (!resume) {
      auto stored = StoreCampaignOnce(*database, config);
      ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    }
    CampaignRunner runner(&*database, factory, 1);
    runner.set_controller(controller);
    runner.set_checkpoint(dir, kCommitEveryExperiments);
    auto summary = resume ? runner.Resume(config.name)
                          : runner.Run(config.name);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    if (controller != nullptr) {
      EXPECT_EQ(summary->experiments_run, 0u);
      return;  // drained: no closing commit
    }
    ASSERT_TRUE(database->Commit().ok());
  };

  const std::string one_shot = (root / "drain0_one_shot").string();
  run(one_shot, /*resume=*/false, nullptr);

  const std::string drained = (root / "drain0_drained").string();
  CampaignController controller;
  controller.Drain();
  run(drained, /*resume=*/false, &controller);
  run(drained, /*resume=*/true, nullptr);

  const auto expected = DirectoryBytes(one_shot);
  const auto actual = DirectoryBytes(drained);
  EXPECT_EQ(actual.size(), expected.size());
  for (const auto& [name, bytes] : expected) {
    EXPECT_TRUE(actual.count(name) != 0 && actual.at(name) == bytes)
        << name << " differs from the uninterrupted run's";
  }
}

}  // namespace
}  // namespace goofi::core
