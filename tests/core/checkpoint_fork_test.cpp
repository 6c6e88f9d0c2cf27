// Checkpoint-fork execution: the golden run's boundary lookup and the
// recordings the targets make, and the guarantee the whole mode rides
// on — a campaign run with fork-from-checkpoint logs a database
// bit-identical to replay-from-reset, serially, at any worker count,
// under supervision retries, and on the framework skeleton target.
// Ineligible campaigns must silently fall back to replay rather than
// change results.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/goofi_schema.h"
#include "core/runner.h"
#include "target/flaky_target.h"
#include "target/framework_target.h"
#include "target/golden_run.h"
#include "target/thor_rd_target.h"

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

class CheckpointForkTest : public ::testing::Test {
 protected:
  // A register-SCIFI campaign with checkpoint_mode stored in the
  // campaign itself; the stride covers the isort reference run (~1679
  // instructions) with several checkpoints.
  static CampaignConfig MakeConfig(std::uint32_t experiments = 40) {
    CampaignConfig config;
    config.name = "ckfork";
    config.workload = "isort";
    config.num_experiments = experiments;
    config.seed = 31;
    config.location_filters = {"cpu.regs.*"};
    config.checkpoint_mode = true;
    config.checkpoint_stride = 200;
    return config;
  }

  static void SetUpDatabase(db::Database& database,
                            const CampaignConfig& config) {
    ASSERT_TRUE(CreateGoofiSchema(database).ok());
    target::ThorRdTarget registrar;
    ASSERT_TRUE(RegisterTargetSystem(database, registrar, "card", "").ok());
    ASSERT_TRUE(StoreCampaign(database, config).ok());
  }

  // Run `config`'s stored campaign with the execution-mode override.
  static CampaignSummary RunWith(db::Database& database,
                                 const CampaignConfig& config,
                                 std::optional<bool> checkpoint) {
    SetUpDatabase(database, config);
    target::ThorRdTarget target;
    CampaignRunner runner(&database, &target);
    runner.set_checkpoint_fork(checkpoint);
    auto summary = runner.Run(config.name);
    EXPECT_TRUE(summary.ok()) << summary.status().ToString();
    return *summary;
  }

  static target::TargetFactory ThorFactory() {
    auto factory = target::BuiltinTargetFactory("thor_rd");
    EXPECT_TRUE(factory.ok());
    return *factory;
  }
};

// ---- the golden run's boundaries ---------------------------------------

target::GoldenRun RunWithBoundariesAt(
    const std::vector<std::uint64_t>& instrets) {
  target::GoldenRun golden;
  golden.stride = 100;
  for (const std::uint64_t instret : instrets) {
    auto snapshot = std::make_shared<sim::Snapshot>();
    snapshot->instret = instret;
    golden.boundaries.push_back({std::move(snapshot), {}});
  }
  return golden;
}

std::uint64_t InstretAtOrBelow(const target::GoldenRun& golden,
                               std::uint64_t instret) {
  const target::GoldenRun::Boundary* boundary = golden.AtOrBelow(instret);
  EXPECT_NE(boundary, nullptr) << instret;
  return boundary != nullptr ? boundary->snapshot->instret : ~0ull;
}

TEST_F(CheckpointForkTest, AtOrBelowFindsTheBoundaryNearestBelow) {
  const target::GoldenRun golden = RunWithBoundariesAt({100, 200, 300});
  EXPECT_EQ(golden.AtOrBelow(99), nullptr);        // below the first
  EXPECT_EQ(InstretAtOrBelow(golden, 100), 100u);  // an exact hit
  EXPECT_EQ(InstretAtOrBelow(golden, 250), 200u);  // between two
  EXPECT_EQ(InstretAtOrBelow(golden, 299), 200u);
  EXPECT_EQ(InstretAtOrBelow(golden, 300), 300u);
  EXPECT_EQ(InstretAtOrBelow(golden, 1000), 300u);  // past the last
}

TEST_F(CheckpointForkTest, AtOrBelowOnAnEmptyRunFindsNothing) {
  const target::GoldenRun golden = RunWithBoundariesAt({});
  EXPECT_EQ(golden.AtOrBelow(0), nullptr);
  EXPECT_EQ(golden.AtOrBelow(~0ull), nullptr);
}

// A recording reference run on `target`: the boundaries' instrets.
std::vector<std::uint64_t> RecordedInstrets(
    target::TargetSystemInterface& target, const std::string& workload,
    std::uint64_t stride) {
  auto spec = target::GetBuiltinWorkload(workload);
  EXPECT_TRUE(spec.ok());
  EXPECT_TRUE(target.SetWorkload(*spec).ok());
  target::GoldenRun golden;
  golden.stride = stride;
  target.set_checkpoint_recording(&golden);
  const Status ran = target.MakeReferenceRun();
  target.set_checkpoint_recording(nullptr);
  EXPECT_TRUE(ran.ok()) << ran.ToString();
  std::vector<std::uint64_t> instrets;
  for (const target::GoldenRun::Boundary& boundary : golden.boundaries) {
    instrets.push_back(boundary.snapshot->instret);
  }
  return instrets;
}

TEST_F(CheckpointForkTest, RecordingsStartAtZeroAndIncreaseStrictly) {
  // AtOrBelow and the runner's boundary count rely on this: one boundary
  // per instret, from the boot snapshot up, in order.
  target::ThorRdTarget thor;
  target::FrameworkTarget framework;
  const std::vector<std::uint64_t> thor_instrets =
      RecordedInstrets(thor, "isort", 200);
  const std::vector<std::uint64_t> framework_instrets =
      RecordedInstrets(framework, "fib", 5);
  for (const auto* instrets : {&thor_instrets, &framework_instrets}) {
    ASSERT_GT(instrets->size(), 2u);
    EXPECT_EQ(instrets->front(), 0u);
    for (std::size_t i = 1; i < instrets->size(); ++i) {
      EXPECT_LT((*instrets)[i - 1], (*instrets)[i]) << i;
    }
  }
  // The framework machine runs 64 steps: 0, 5, ..., 60.
  EXPECT_EQ(framework_instrets.size(), 13u);
  EXPECT_EQ(framework_instrets.back(), 60u);
}

// ---- fork vs replay equivalence ---------------------------------------

TEST_F(CheckpointForkTest, ForkedRunLogsTheIdenticalDatabase) {
  const CampaignConfig config = MakeConfig();

  db::Database replay_db;
  const CampaignSummary replay = RunWith(replay_db, config, false);
  EXPECT_EQ(replay.checkpoint_forks, 0u);
  EXPECT_EQ(replay.instructions_skipped, 0u);

  db::Database fork_db;
  const CampaignSummary fork = RunWith(fork_db, config, true);
  EXPECT_GT(fork.checkpoints_recorded, 2u);
  EXPECT_GT(fork.checkpoint_forks, 0u);
  EXPECT_GT(fork.instructions_skipped, 0u);
  EXPECT_EQ(fork.experiments_run, replay.experiments_run);

  // The whole logged row set and the campaign bookkeeping, byte for
  // byte: the mode is pure execution, invisible in the database.
  EXPECT_EQ(DumpTable(fork_db, kLoggedSystemStateTable),
            DumpTable(replay_db, kLoggedSystemStateTable));
  EXPECT_EQ(DumpTable(fork_db, kCampaignDataTable),
            DumpTable(replay_db, kCampaignDataTable));
}

TEST_F(CheckpointForkTest, StoredCheckpointModeEnablesForkWithoutOverride) {
  const CampaignConfig config = MakeConfig(12);
  db::Database database;
  const CampaignSummary summary = RunWith(database, config, std::nullopt);
  EXPECT_GT(summary.checkpoint_forks, 0u);

  // And the override wins over the stored mode in both directions.
  db::Database forced_off;
  EXPECT_EQ(RunWith(forced_off, config, false).checkpoint_forks, 0u);
  EXPECT_EQ(DumpTable(forced_off, kLoggedSystemStateTable),
            DumpTable(database, kLoggedSystemStateTable));
}

TEST_F(CheckpointForkTest, IneligibleCampaignsFallBackToReplay) {
  // Pre-runtime SWIFI injects before the workload starts — there is no
  // pre-trigger replay to skip. The mode must fall back silently.
  CampaignConfig swifi = MakeConfig(10);
  swifi.name = "ck_swifi";
  swifi.technique = target::Technique::kSwifiPreRuntime;
  swifi.location_filters.clear();
  db::Database swifi_fork_db;
  const CampaignSummary swifi_fork = RunWith(swifi_fork_db, swifi, true);
  EXPECT_EQ(swifi_fork.checkpoints_recorded, 0u);
  EXPECT_EQ(swifi_fork.checkpoint_forks, 0u);
  db::Database swifi_replay_db;
  RunWith(swifi_replay_db, swifi, false);
  EXPECT_EQ(DumpTable(swifi_fork_db, kLoggedSystemStateTable),
            DumpTable(swifi_replay_db, kLoggedSystemStateTable));

  // Detail logging traces every pre-trigger instruction; forking over
  // them would lose trace rows, so the mode must decline.
  CampaignConfig detail = MakeConfig(4);
  detail.name = "ck_detail";
  detail.logging_mode = target::LoggingMode::kDetail;
  db::Database detail_fork_db;
  const CampaignSummary detail_fork = RunWith(detail_fork_db, detail, true);
  EXPECT_EQ(detail_fork.checkpoint_forks, 0u);
  db::Database detail_replay_db;
  RunWith(detail_replay_db, detail, false);
  EXPECT_EQ(DumpTable(detail_fork_db, kLoggedSystemStateTable),
            DumpTable(detail_replay_db, kLoggedSystemStateTable));
}

TEST_F(CheckpointForkTest, ParallelForkMatchesSerialReplayAtEveryWorkerCount) {
  const CampaignConfig config = MakeConfig();

  db::Database replay_db;
  RunWith(replay_db, config, false);
  const auto replay_logged = DumpTable(replay_db, kLoggedSystemStateTable);
  const auto replay_campaign = DumpTable(replay_db, kCampaignDataTable);

  for (const std::size_t workers : {1u, 4u, 8u}) {
    db::Database fork_db;
    SetUpDatabase(fork_db, config);
    ParallelCampaignRunner runner(&fork_db, ThorFactory(), workers);
    runner.set_checkpoint_fork(true);
    auto summary = runner.Run(config.name);
    ASSERT_TRUE(summary.ok())
        << workers << " workers: " << summary.status().ToString();
    EXPECT_GT(summary->checkpoint_forks, 0u) << workers;
    EXPECT_GT(summary->instructions_skipped, 0u) << workers;
    EXPECT_EQ(DumpTable(fork_db, kLoggedSystemStateTable), replay_logged)
        << workers << " workers";
    EXPECT_EQ(DumpTable(fork_db, kCampaignDataTable), replay_campaign)
        << workers << " workers";
  }
}

TEST_F(CheckpointForkTest, SupervisionRetriesComposeWithForking) {
  // Scripted target faults force retries and a quarantine replacement
  // mid-campaign; the replacement instance must fork from the same
  // checkpoint and the flaky forked run must match the flaky replay
  // run bit for bit, serially and sharded.
  CampaignConfig config = MakeConfig(24);
  config.name = "ck_flaky";
  config.experiment_timeout_ms = 30'000;
  config.max_retries = 2;
  config.retry_backoff_ms = 1;

  auto make_script = [] {
    auto script = std::make_shared<target::FlakyScript>();
    script->faults[{5, 1}] = target::FlakyFault::kTargetFault;
    script->faults[{13, 1}] = target::FlakyFault::kIo;
    return script;
  };

  db::Database replay_db;
  SetUpDatabase(replay_db, config);
  target::ThorRdTarget replay_target;
  CampaignRunner replay_runner(&replay_db, &replay_target);
  replay_runner.set_target_factory(
      target::MakeFlakyTargetFactory(ThorFactory(), make_script()));
  replay_runner.set_checkpoint_fork(false);
  auto replay = replay_runner.Run("ck_flaky");
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  db::Database fork_db;
  SetUpDatabase(fork_db, config);
  target::ThorRdTarget fork_target;
  CampaignRunner fork_runner(&fork_db, &fork_target);
  fork_runner.set_target_factory(
      target::MakeFlakyTargetFactory(ThorFactory(), make_script()));
  fork_runner.set_checkpoint_fork(true);
  auto fork = fork_runner.Run("ck_flaky");
  ASSERT_TRUE(fork.ok()) << fork.status().ToString();

  EXPECT_EQ(fork->experiment_retries, replay->experiment_retries);
  EXPECT_EQ(fork->targets_quarantined, replay->targets_quarantined);
  EXPECT_GT(fork->checkpoint_forks, 0u);
  EXPECT_EQ(DumpTable(fork_db, kLoggedSystemStateTable),
            DumpTable(replay_db, kLoggedSystemStateTable));

  db::Database sharded_db;
  SetUpDatabase(sharded_db, config);
  ParallelCampaignRunner sharded_runner(
      &sharded_db,
      target::MakeFlakyTargetFactory(ThorFactory(), make_script()), 4);
  sharded_runner.set_checkpoint_fork(true);
  auto sharded = sharded_runner.Run("ck_flaky");
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(DumpTable(sharded_db, kLoggedSystemStateTable),
            DumpTable(replay_db, kLoggedSystemStateTable));
  // Forked rows equal replayed rows by design, so the rows alone cannot
  // show that the sharded run forked: every target there, the reference
  // included, is a flaky decorator, which must hand the recording sink,
  // the start snapshot and the golden run to the target it wraps.
  EXPECT_GT(fork->experiments_converged, 0u);
  EXPECT_GT(sharded->checkpoint_forks, 0u);
  EXPECT_EQ(sharded->checkpoints_recorded, fork->checkpoints_recorded);
  EXPECT_EQ(sharded->experiments_converged, fork->experiments_converged);
}

TEST_F(CheckpointForkTest, NextCampaignOnTheSameTargetStartsFromReset) {
  // A forked campaign leaves its last experiment's start snapshot and
  // golden run installed on a caller's target; the next campaign's
  // reference run and experiments on that target must not fork from
  // them.
  CampaignConfig forked = MakeConfig(12);
  forked.name = "ck_first";
  CampaignConfig next = MakeConfig(12);
  next.name = "ck_next";
  next.workload = "fib";
  next.checkpoint_mode = false;

  db::Database reused_db;
  SetUpDatabase(reused_db, forked);
  ASSERT_TRUE(StoreCampaign(reused_db, next).ok());
  target::ThorRdTarget reused;
  CampaignRunner runner(&reused_db, &reused);
  auto first = runner.Run("ck_first");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->checkpoint_forks, 0u);
  auto second = runner.Run("ck_next");
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  db::Database fresh_db;
  const CampaignSummary fresh = RunWith(fresh_db, next, std::nullopt);
  EXPECT_EQ(second->reference.instructions, fresh.reference.instructions);
  EXPECT_TRUE(second->reference.Serialize() == fresh.reference.Serialize());
  auto rows_of = [](db::Database& database, const std::string& campaign) {
    std::vector<std::string> rows;
    for (const std::string& row :
         DumpTable(database, kLoggedSystemStateTable)) {
      if (row.find(campaign + "/") != std::string::npos) rows.push_back(row);
    }
    return rows;
  };
  EXPECT_TRUE(rows_of(reused_db, "ck_next") == rows_of(fresh_db, "ck_next"));
}

TEST_F(CheckpointForkTest, FrameworkTargetForksThroughTheExtrasBlob) {
  // The skeleton target carries its counter machine in
  // Snapshot::extras; forking must reproduce the replay database on it
  // just as on the full simulator.
  CampaignConfig config;
  config.name = "ck_fw";
  config.workload = "fib";
  config.num_experiments = 12;
  config.seed = 23;
  config.target = "framework";
  config.location_filters = {"counter*"};
  config.checkpoint_mode = true;
  config.checkpoint_stride = 5;

  auto run = [&](std::optional<bool> checkpoint, db::Database& database) {
    ASSERT_TRUE(CreateGoofiSchema(database).ok());
    target::FrameworkTarget registrar;
    ASSERT_TRUE(RegisterTargetSystem(database, registrar, "card", "").ok());
    ASSERT_TRUE(StoreCampaign(database, config).ok());
    target::FrameworkTarget target;
    CampaignRunner runner(&database, &target);
    runner.set_checkpoint_fork(checkpoint);
    auto summary = runner.Run("ck_fw");
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    if (checkpoint == std::optional<bool>(true)) {
      EXPECT_GT(summary->checkpoint_forks, 0u);
    }
  };

  db::Database replay_db, fork_db;
  run(false, replay_db);
  run(true, fork_db);
  EXPECT_EQ(DumpTable(fork_db, kLoggedSystemStateTable),
            DumpTable(replay_db, kLoggedSystemStateTable));
}

}  // namespace
}  // namespace goofi::core
