// Checkpoint-fork execution: the CheckpointStore/CheckpointCache lookup
// machinery, and the guarantee the whole mode rides on — a campaign run
// with fork-from-checkpoint logs a database bit-identical to
// replay-from-reset, serially, at any worker count, under supervision
// retries, and on the framework skeleton target. Ineligible campaigns
// must silently fall back to replay rather than change results.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/goofi_schema.h"
#include "core/runner.h"
#include "target/flaky_target.h"
#include "target/framework_target.h"
#include "target/thor_rd_target.h"

namespace goofi::core {
namespace {

sim::Snapshot At(std::uint64_t instret) {
  sim::Snapshot snapshot;
  snapshot.instret = instret;
  return snapshot;
}

TEST(CheckpointStoreTest, AddKeepsOnlyIncreasingInstret) {
  CheckpointStore store;
  EXPECT_TRUE(store.empty());
  store.Add(At(100));
  store.Add(At(100));  // duplicate: ignored
  store.Add(At(50));   // out of order: ignored
  store.Add(At(200));
  EXPECT_EQ(store.size(), 2u);
}

TEST(CheckpointStoreTest, NearestAtOrBelowReturnsPredecessorAndInterval) {
  CheckpointStore store;
  store.Add(At(100));
  store.Add(At(200));
  store.Add(At(300));

  EXPECT_EQ(store.NearestAtOrBelow(99), nullptr);

  std::uint64_t lo = 0, hi = 0;
  auto exact = store.NearestAtOrBelow(100, &lo, &hi);
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->instret, 100u);
  EXPECT_EQ(lo, 100u);
  EXPECT_EQ(hi, 200u);

  auto mid = store.NearestAtOrBelow(250, &lo, &hi);
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->instret, 200u);
  EXPECT_EQ(lo, 200u);
  EXPECT_EQ(hi, 300u);

  auto past_last = store.NearestAtOrBelow(1000, &lo, &hi);
  ASSERT_NE(past_last, nullptr);
  EXPECT_EQ(past_last->instret, 300u);
  EXPECT_EQ(lo, 300u);
  EXPECT_EQ(hi, std::numeric_limits<std::uint64_t>::max());
}

TEST(CheckpointCacheTest, MemoizesWithinIntervalAndTalliesSavings) {
  CheckpointStore store;
  store.Add(At(100));
  store.Add(At(200));

  CheckpointCache cache(&store);
  auto first = cache.ForTrigger(150);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->instret, 100u);
  // Same stride interval: the memoized snapshot, no re-search needed.
  EXPECT_EQ(cache.ForTrigger(199), first);
  auto next = cache.ForTrigger(250);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->instret, 200u);
  // Below every checkpoint: a miss that doesn't count as a fork.
  EXPECT_EQ(cache.ForTrigger(10), nullptr);

  EXPECT_EQ(cache.forks(), 3u);
  EXPECT_EQ(cache.instructions_skipped(), 100u + 100u + 200u);
}

TEST(CheckpointCacheTest, NullStoreMeansEveryLookupMisses) {
  CheckpointCache cache(nullptr);
  EXPECT_EQ(cache.ForTrigger(0), nullptr);
  EXPECT_EQ(cache.ForTrigger(1000), nullptr);
  EXPECT_EQ(cache.forks(), 0u);
  EXPECT_EQ(cache.instructions_skipped(), 0u);
}

// ---- fork vs replay equivalence ---------------------------------------

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
