// The serial-equivalence proof suite for sharded campaign execution:
// a CampaignRunner at any worker count, fed a borrowed target or a
// factory, must produce a database bit-identical to the one-worker
// borrowed-target run's — same LoggedSystemState rows in the same
// order, same CampaignData state, same outcome classification, same
// CampaignSummary — plus the fleet-wide control-and-resume behaviours
// (pause/stop under fire, sharded resume with a different worker
// count, value-copied progress snapshots).
#include "core/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "core/goofi_schema.h"
#include "db/sql/executor.h"
#include "target/flaky_target.h"
#include "target/framework_target.h"
#include "target/thor_rd_target.h"
#include "target/workloads.h"

namespace goofi::core {
namespace {

// Every column of every row, encoded, in table order: the "dump" the
// equivalence criterion is stated over.
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

class ParallelRunnerTest : public ::testing::Test {
 protected:
  static CampaignConfig MakeConfig(const std::string& name,
                                   std::uint32_t experiments = 24) {
    CampaignConfig config;
    config.name = name;
    config.workload = "fib";
    config.num_experiments = experiments;
    config.seed = 23;
    config.location_filters = {"cpu.regs.*"};
    return config;
  }

  // A fresh database with the target registered and `config` stored,
  // exactly as the serial tests set theirs up.
  static void SetUpDatabase(db::Database& database,
                            const CampaignConfig& config) {
    ASSERT_TRUE(CreateGoofiSchema(database).ok());
    target::ThorRdTarget registrar;
    ASSERT_TRUE(
        RegisterTargetSystem(database, registrar, "card", "").ok());
    ASSERT_TRUE(StoreCampaign(database, config).ok());
  }

  static target::TargetFactory ThorFactory() {
    auto factory = target::BuiltinTargetFactory("thor_rd");
    EXPECT_TRUE(factory.ok());
    return *factory;
  }
};

// Every CampaignSummary field, so a counter that one way of driving the
// runner computes differently cannot hide behind equal databases.
void ExpectSameSummary(const CampaignSummary& actual,
                       const CampaignSummary& expected,
                       const std::string& label) {
  EXPECT_EQ(actual.campaign_name, expected.campaign_name) << label;
  EXPECT_EQ(actual.reference_experiment, expected.reference_experiment)
      << label;
  EXPECT_EQ(actual.experiments_run, expected.experiments_run) << label;
  EXPECT_EQ(actual.experiments_stopped_early,
            expected.experiments_stopped_early)
      << label;
  EXPECT_EQ(actual.reference.Serialize(), expected.reference.Serialize())
      << label;
  EXPECT_EQ(actual.register_live_fraction, expected.register_live_fraction)
      << label;
  EXPECT_EQ(actual.preinjection_resamples, expected.preinjection_resamples)
      << label;
  EXPECT_EQ(actual.static_pruned_bits, expected.static_pruned_bits) << label;
  EXPECT_EQ(actual.static_pruned_fraction, expected.static_pruned_fraction)
      << label;
  EXPECT_EQ(actual.experiment_retries, expected.experiment_retries) << label;
  EXPECT_EQ(actual.experiments_abandoned, expected.experiments_abandoned)
      << label;
  EXPECT_EQ(actual.targets_quarantined, expected.targets_quarantined)
      << label;
  EXPECT_EQ(actual.checkpoints_recorded, expected.checkpoints_recorded)
      << label;
  EXPECT_EQ(actual.checkpoint_forks, expected.checkpoint_forks) << label;
  EXPECT_EQ(actual.instructions_skipped, expected.instructions_skipped)
      << label;
  EXPECT_EQ(actual.trigger_instructions_total,
            expected.trigger_instructions_total)
      << label;
  EXPECT_EQ(actual.equiv_classes, expected.equiv_classes) << label;
  EXPECT_EQ(actual.equiv_duplicates, expected.equiv_duplicates) << label;
  EXPECT_EQ(actual.equiv_space_weight, expected.equiv_space_weight) << label;
}

TEST_F(ParallelRunnerTest, MatchesSerialRunBitForBitAtEveryWorkerCount) {
  const CampaignConfig config = MakeConfig("eq");

  // Checkpoint fork is an execution choice as well: with it off and on,
  // every runner shape matches the serial run.
  for (const bool fork : {false, true}) {
    const std::string mode = fork ? ", fork" : ", replay";
    db::Database serial_db;
    SetUpDatabase(serial_db, config);
    target::ThorRdTarget serial_target;
    CampaignRunner serial_runner(&serial_db, &serial_target);
    serial_runner.set_checkpoint_fork(fork);
    auto serial_summary = serial_runner.Run("eq");
    ASSERT_TRUE(serial_summary.ok()) << serial_summary.status().ToString();
    if (fork) EXPECT_GT(serial_summary->checkpoint_forks, 0u);
    const auto serial_logged = DumpTable(serial_db, kLoggedSystemStateTable);
    const auto serial_campaign = DumpTable(serial_db, kCampaignDataTable);
    ASSERT_EQ(serial_logged.size(), 25u);  // 24 experiments + reference
    auto serial_analysis = AnalyzeCampaign(serial_db, "eq");
    ASSERT_TRUE(serial_analysis.ok());

    // 0 workers stands for the borrowed target plus a factory.
    for (const std::size_t workers : {0u, 1u, 2u, 4u, 8u}) {
      const std::string shape =
          (workers == 0 ? std::string("borrowed target + factory")
                        : std::to_string(workers) + " workers") +
          mode;
      db::Database parallel_db;
      SetUpDatabase(parallel_db, config);
      target::ThorRdTarget borrowed;
      ParallelCampaignRunner runner =
          workers == 0
              ? CampaignRunner(&parallel_db, &borrowed)
              : ParallelCampaignRunner(&parallel_db, ThorFactory(), workers);
      if (workers == 0) runner.set_target_factory(ThorFactory());
      runner.set_checkpoint_fork(fork);
      auto summary = runner.Run("eq");
      ASSERT_TRUE(summary.ok())
          << shape << ": " << summary.status().ToString();
      EXPECT_EQ(summary->experiments_run, 24u) << shape;
      EXPECT_EQ(summary->experiments_stopped_early, 0u) << shape;
      // The drift guard: no counter may depend on how the runner was
      // driven.
      ExpectSameSummary(*summary, *serial_summary, shape);

      // The whole LoggedSystemState row set, row for row and byte for
      // byte — names, parentExperiment links, specs, state vectors, and
      // the row order a dump would serialize.
      EXPECT_EQ(DumpTable(parallel_db, kLoggedSystemStateTable),
                serial_logged)
          << shape;
      EXPECT_EQ(DumpTable(parallel_db, kCampaignDataTable), serial_campaign)
          << shape;

      // Outcome classification counts match (implied by the dump check,
      // asserted separately for a readable failure).
      auto analysis = AnalyzeCampaign(parallel_db, "eq");
      ASSERT_TRUE(analysis.ok());
      EXPECT_EQ(analysis->detected, serial_analysis->detected) << shape;
      EXPECT_EQ(analysis->escaped, serial_analysis->escaped) << shape;
      EXPECT_EQ(analysis->latent, serial_analysis->latent) << shape;
      EXPECT_EQ(analysis->overwritten, serial_analysis->overwritten)
          << shape;
      EXPECT_EQ(analysis->not_injected, serial_analysis->not_injected)
          << shape;
    }
  }
}

TEST_F(ParallelRunnerTest, MatchesSerialWithPreinjectionAnalysis) {
  CampaignConfig config = MakeConfig("eq_pre", 40);
  config.use_preinjection_analysis = true;

  db::Database serial_db;
  SetUpDatabase(serial_db, config);
  target::ThorRdTarget serial_target;
  auto serial_summary =
      CampaignRunner(&serial_db, &serial_target).Run("eq_pre");
  ASSERT_TRUE(serial_summary.ok()) << serial_summary.status().ToString();

  db::Database parallel_db;
  SetUpDatabase(parallel_db, config);
  ParallelCampaignRunner runner(&parallel_db, ThorFactory(), 4);
  auto summary = runner.Run("eq_pre");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  EXPECT_EQ(DumpTable(parallel_db, kLoggedSystemStateTable),
            DumpTable(serial_db, kLoggedSystemStateTable));
  // Per-experiment RNG streams make even the resample count a sum of
  // per-experiment constants, identical however the plan is sharded.
  EXPECT_EQ(summary->preinjection_resamples,
            serial_summary->preinjection_resamples);
  EXPECT_EQ(summary->register_live_fraction,
            serial_summary->register_live_fraction);
}

TEST_F(ParallelRunnerTest, SingleWorkerDegeneratesToSerial) {
  const CampaignConfig config = MakeConfig("eq_one", 10);

  db::Database serial_db;
  SetUpDatabase(serial_db, config);
  target::ThorRdTarget serial_target;
  ASSERT_TRUE(CampaignRunner(&serial_db, &serial_target).Run("eq_one").ok());

  db::Database parallel_db;
  SetUpDatabase(parallel_db, config);
  ParallelCampaignRunner runner(&parallel_db, ThorFactory(), 1);
  ASSERT_TRUE(runner.Run("eq_one").ok());
  EXPECT_EQ(DumpTable(parallel_db, kLoggedSystemStateTable),
            DumpTable(serial_db, kLoggedSystemStateTable));

  // One factory-fed worker stops exactly where a Stop() from the
  // progress callback lands, like the borrowed-target runner: no
  // experiment is claimed ahead of the writer.
  for (const std::size_t stop_at : {1u, 4u, 9u}) {
    db::Database stop_db;
    SetUpDatabase(stop_db, config);
    CampaignController controller;
    CampaignRunner stopper(&stop_db, ThorFactory(), 1);
    stopper.set_controller(&controller);
    stopper.set_progress_callback([&](ProgressInfo info) {
      if (info.experiments_done == stop_at) controller.Stop();
    });
    auto stopped = stopper.Run("eq_one");
    ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
    EXPECT_EQ(stopped->experiments_run, stop_at);
    EXPECT_EQ(stopped->experiments_stopped_early, 10u - stop_at);
    EXPECT_EQ(DumpTable(stop_db, kLoggedSystemStateTable).size(),
              1u + stop_at);  // the reference run + exactly stop_at
  }
}

TEST_F(ParallelRunnerTest, FrameworkTargetShardsThroughTheFactory) {
  CampaignConfig config = MakeConfig("eq_fw", 12);
  config.target = "framework";
  config.location_filters = {"counter*"};  // the skeleton's chain elements

  auto factory = target::BuiltinTargetFactory("framework");
  ASSERT_TRUE(factory.ok());

  db::Database serial_db;
  ASSERT_TRUE(CreateGoofiSchema(serial_db).ok());
  target::FrameworkTarget registrar;
  ASSERT_TRUE(RegisterTargetSystem(serial_db, registrar, "card", "").ok());
  ASSERT_TRUE(StoreCampaign(serial_db, config).ok());
  target::FrameworkTarget serial_target;
  ASSERT_TRUE(CampaignRunner(&serial_db, &serial_target).Run("eq_fw").ok());

  db::Database parallel_db;
  ASSERT_TRUE(CreateGoofiSchema(parallel_db).ok());
  target::FrameworkTarget registrar2;
  ASSERT_TRUE(
      RegisterTargetSystem(parallel_db, registrar2, "card", "").ok());
  ASSERT_TRUE(StoreCampaign(parallel_db, config).ok());
  ParallelCampaignRunner runner(&parallel_db, *factory, 4);
  auto summary = runner.Run("eq_fw");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(DumpTable(parallel_db, kLoggedSystemStateTable),
            DumpTable(serial_db, kLoggedSystemStateTable));
}

TEST_F(ParallelRunnerTest, UnknownTargetFactoryIsNotFound) {
  EXPECT_EQ(target::BuiltinTargetFactory("no_such_board").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(ParallelRunnerTest, WithWorkloadPreinstallsOnEveryInstance) {
  auto factory = target::BuiltinTargetFactory("thor_rd");
  ASSERT_TRUE(factory.ok());
  auto workload = target::GetBuiltinWorkload("fib");
  ASSERT_TRUE(workload.ok());
  target::TargetFactory wrapped =
      target::WithWorkload(*factory, *workload);
  for (int i = 0; i < 2; ++i) {
    auto target = wrapped();
    ASSERT_TRUE(target.ok());
    // A ready-to-run instance: the reference run works immediately.
    target::ExperimentSpec reference;
    reference.name = "probe";
    (*target)->set_experiment(reference);
    EXPECT_TRUE((*target)->MakeReferenceRun().ok());
  }
}

// Satellite: the progress-callback data race. Snapshots are value
// copies aggregated in canonical order — a callback may stash them and
// a control thread may read them while the fleet runs (TSan-clean),
// and the stored sequence is exactly the serial runner's.
TEST_F(ParallelRunnerTest, ProgressSnapshotsAreOrderedValueCopies) {
  const CampaignConfig config = MakeConfig("prog", 20);
  db::Database database;
  SetUpDatabase(database, config);

  std::vector<ProgressInfo> snapshots;
  std::atomic<std::size_t> done_view{0};  // read from another thread
  ParallelCampaignRunner runner(&database, ThorFactory(), 4);
  runner.set_progress_callback([&](ProgressInfo info) {
    done_view = info.experiments_done;
    snapshots.push_back(std::move(info));
  });

  std::atomic<bool> finished{false};
  std::thread observer([&] {
    std::size_t last = 0;
    while (!finished) {
      const std::size_t now = done_view;
      EXPECT_GE(now, last);  // monotonic across threads
      last = now;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  ASSERT_TRUE(runner.Run("prog").ok());
  finished = true;
  observer.join();

  ASSERT_EQ(snapshots.size(), 20u);  // one per logged experiment
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].experiments_done, i + 1);
    EXPECT_EQ(snapshots[i].experiments_total, 20u);
    EXPECT_EQ(snapshots[i].current_experiment, ExperimentName("prog", i));
  }
}

// Satellite: concurrency stress. A control thread hammers
// Pause()/Resume()/Stop() while the fleet runs; no experiment may be
// logged twice, and a stop must leave a resumable state that a fleet
// of a *different* size completes to the serial result. Runs under
// ThreadSanitizer in the GOOFI_TSAN CI job.
TEST_F(ParallelRunnerTest, PauseResumeStopUnderFireLeavesResumableState) {
  const CampaignConfig config = MakeConfig("stress", 120);
  db::Database database;
  SetUpDatabase(database, config);

  CampaignController controller;
  ParallelCampaignRunner runner(&database, ThorFactory(), 4);
  runner.set_controller(&controller);

  std::atomic<bool> run_finished{false};
  std::thread control([&] {
    // Hammer the controls until the run has made some progress, then
    // stop mid-flight.
    for (int burst = 0; !run_finished && burst < 400; ++burst) {
      controller.Pause();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      controller.Resume();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    controller.Stop();
  });
  auto stopped = runner.Run("stress");
  run_finished = true;
  control.join();
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();

  // No experiment logged twice: names are the primary key, so count
  // distinct-by-construction rows against the total.
  auto count = db::sql::ExecuteSql(
      database,
      "SELECT COUNT(*) FROM LoggedSystemState WHERE campaign_name = "
      "'stress'");
  ASSERT_TRUE(count.ok());
  const std::int64_t logged_rows = count->rows[0][0].AsInteger();
  EXPECT_EQ(static_cast<std::size_t>(logged_rows),
            1 + 120 - stopped->experiments_stopped_early);
  std::set<std::string> names;
  const db::Table* logged = database.FindTable(kLoggedSystemStateTable);
  for (const db::Row& row : logged->rows()) {
    EXPECT_TRUE(names.insert(row[0].AsText()).second)
        << "duplicate " << row[0].AsText();
  }

  // Stop leaves a resumable state: a different worker count finishes
  // the campaign, and the completed database matches a serial run.
  ParallelCampaignRunner resumer(&database, ThorFactory(), 8);
  auto resumed = resumer.Resume("stress");
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->experiments_run + (120 - stopped->experiments_stopped_early),
            120u);

  db::Database serial_db;
  SetUpDatabase(serial_db, config);
  target::ThorRdTarget serial_target;
  ASSERT_TRUE(
      CampaignRunner(&serial_db, &serial_target).Run("stress").ok());
  // Row *sets* match; the row order may differ from a never-stopped
  // run when the stop landed between shards.
  auto sorted = [](std::vector<std::string> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(sorted(DumpTable(database, kLoggedSystemStateTable)),
            sorted(DumpTable(serial_db, kLoggedSystemStateTable)));
  auto status = db::sql::ExecuteSql(
      database,
      "SELECT status, experiments_done FROM CampaignData WHERE "
      "campaign_name = 'stress'");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rows[0][0].AsText(), "completed");
  EXPECT_EQ(status->rows[0][1].AsInteger(), 120);
}

// Satellite: the supervisor must not cost the sharded runner its
// serial-equivalence guarantee. With the same scripted faults, a flaky
// 4-worker run is bit-identical to a flaky serial run; every surviving
// experiment matches a fault-free serial baseline; and the abandoned
// experiment is recorded with its non-ok tool status, not lost.
TEST_F(ParallelRunnerTest, SupervisorPreservesSerialEquivalenceUnderFaults) {
  CampaignConfig config = MakeConfig("flaky_eq");
  config.experiment_timeout_ms = 30'000;
  config.max_retries = 2;
  config.retry_backoff_ms = 1;

  // The script is keyed by (experiment, attempt), so two fresh copies
  // of it steer the serial and parallel runs identically regardless of
  // worker scheduling.
  auto make_script = [] {
    auto script = std::make_shared<target::FlakyScript>();
    script->faults[{3, 1}] = target::FlakyFault::kTargetFault;
    script->faults[{11, 1}] = target::FlakyFault::kIo;
    script->faults[{11, 2}] = target::FlakyFault::kIo;
    script->always[17] = target::FlakyFault::kIo;  // abandoned
    return script;
  };

  db::Database clean_db;
  SetUpDatabase(clean_db, config);
  target::ThorRdTarget clean_target;
  ASSERT_TRUE(
      CampaignRunner(&clean_db, &clean_target).Run("flaky_eq").ok());

  db::Database serial_db;
  SetUpDatabase(serial_db, config);
  target::ThorRdTarget serial_target;
  CampaignRunner serial_runner(&serial_db, &serial_target);
  serial_runner.set_target_factory(
      target::MakeFlakyTargetFactory(ThorFactory(), make_script()));
  auto serial_summary = serial_runner.Run("flaky_eq");
  ASSERT_TRUE(serial_summary.ok()) << serial_summary.status().ToString();

  db::Database parallel_db;
  SetUpDatabase(parallel_db, config);
  ParallelCampaignRunner parallel_runner(
      &parallel_db,
      target::MakeFlakyTargetFactory(ThorFactory(), make_script()), 4);
  auto parallel_summary = parallel_runner.Run("flaky_eq");
  ASSERT_TRUE(parallel_summary.ok())
      << parallel_summary.status().ToString();

  // No experiment lost, and the supervision counters agree.
  EXPECT_EQ(serial_summary->experiments_run, 24u);
  EXPECT_EQ(parallel_summary->experiments_run, 24u);
  EXPECT_EQ(serial_summary->experiment_retries, 5u);
  EXPECT_EQ(parallel_summary->experiment_retries, 5u);
  EXPECT_EQ(serial_summary->experiments_abandoned, 1u);
  EXPECT_EQ(parallel_summary->experiments_abandoned, 1u);
  EXPECT_EQ(serial_summary->targets_quarantined, 6u);
  EXPECT_EQ(parallel_summary->targets_quarantined, 6u);

  // Flaky serial and flaky 4-worker databases are bit-identical —
  // dispositions, row order and all.
  EXPECT_EQ(DumpTable(parallel_db, kLoggedSystemStateTable),
            DumpTable(serial_db, kLoggedSystemStateTable));
  EXPECT_EQ(DumpTable(parallel_db, kCampaignDataTable),
            DumpTable(serial_db, kCampaignDataTable));

  // Every surviving experiment — retried ones included — produced the
  // same spec and observation as the fault-free baseline.
  for (std::size_t i = 0; i < 24; ++i) {
    const std::string query =
        "SELECT experiment_data, state_vector, tool_status FROM "
        "LoggedSystemState WHERE experiment_name = '" +
        ExperimentName("flaky_eq", i) + "'";
    auto flaky = db::sql::ExecuteSql(parallel_db, query);
    auto clean = db::sql::ExecuteSql(clean_db, query);
    ASSERT_TRUE(flaky.ok());
    ASSERT_TRUE(clean.ok());
    ASSERT_EQ(flaky->rows.size(), 1u) << i;
    if (i == 17) {
      // The abandoned experiment keeps its row: disposition recorded,
      // observation absent.
      EXPECT_EQ(flaky->rows[0][2].AsText(), "io");
      EXPECT_TRUE(flaky->rows[0][1].is_null());
      continue;
    }
    EXPECT_EQ(flaky->rows[0][2].AsText(), "ok") << i;
    EXPECT_EQ(flaky->rows[0][0].AsText(), clean->rows[0][0].AsText()) << i;
    EXPECT_EQ(flaky->rows[0][1].AsText(), clean->rows[0][1].AsText()) << i;
  }

  // The drift guard under the same faults: a borrowed target plus a
  // factory (0 workers) and a factory at 1 and 4 workers log these rows
  // and agree on every summary field, with checkpoint fork off and on.
  // (A lone borrowed target takes no part: quarantine needs a factory.)
  for (const bool fork : {false, true}) {
    std::optional<CampaignSummary> first;
    for (const std::size_t workers : {0u, 1u, 4u}) {
      const std::string shape =
          std::to_string(workers) + " workers" + (fork ? ", fork" : "");
      db::Database database;
      SetUpDatabase(database, config);
      target::ThorRdTarget borrowed;
      auto factory =
          target::MakeFlakyTargetFactory(ThorFactory(), make_script());
      CampaignRunner runner =
          workers == 0 ? CampaignRunner(&database, &borrowed)
                       : CampaignRunner(&database, factory, workers);
      if (workers == 0) runner.set_target_factory(factory);
      runner.set_checkpoint_fork(fork);
      auto summary = runner.Run("flaky_eq");
      ASSERT_TRUE(summary.ok())
          << shape << ": " << summary.status().ToString();
      EXPECT_EQ(DumpTable(database, kLoggedSystemStateTable),
                DumpTable(serial_db, kLoggedSystemStateTable))
          << shape;
      if (!first.has_value()) {
        first = *summary;
        EXPECT_EQ(first->targets_quarantined, 6u) << shape;
        if (fork) EXPECT_GT(first->checkpoint_forks, 0u) << shape;
        continue;
      }
      ExpectSameSummary(*summary, *first, shape);
    }
  }
}

// Aggregate-aware pause: with the fleet paused before the first claim,
// nothing is logged until a Resume from another thread releases all
// workers.
TEST_F(ParallelRunnerTest, FleetWidePauseBlocksAllWorkers) {
  const CampaignConfig config = MakeConfig("pausefleet", 16);
  db::Database database;
  SetUpDatabase(database, config);

  CampaignController controller;
  controller.Pause();
  ParallelCampaignRunner runner(&database, ThorFactory(), 4);
  runner.set_controller(&controller);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    controller.Resume();
  });
  auto summary = runner.Run("pausefleet");
  releaser.join();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->experiments_run, 16u);
}

}  // namespace
}  // namespace goofi::core
