// Shadow test for convergence: a forked experiment that rejoins the
// golden run at a checkpoint boundary stops there and takes the golden
// run's outcome (target/golden_run.h). That shortcut must be invisible
// in the results: every builtin workload x {SCIFI, runtime SWIFI} x
// {transient, permanent, intermittent}, with the default EDMs and with
// every EDM off, logs the same LoggedSystemState rows with convergence
// as with checkpoint fork off, where every experiment runs to its end.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/goofi_schema.h"
#include "core/runner.h"
#include "target/factory.h"
#include "target/thor_rd_target.h"
#include "target/workloads.h"

namespace goofi::core {
namespace {

std::vector<std::string> LoggedRows(db::Database& database) {
  std::vector<std::string> rows;
  for (const db::Row& row :
       database.FindTable(kLoggedSystemStateTable)->rows()) {
    std::string line;
    for (const db::Value& value : row) {
      line += value.Encode();
      line += '\t';
    }
    rows.push_back(std::move(line));
  }
  return rows;
}

target::TestCardOptions EdmOptions(bool edms_on) {
  target::TestCardOptions options;
  if (!edms_on) {
    for (int type = 0; type < sim::kEdmTypeCount; ++type) {
      options.cpu_config.edm.SetEnabled(static_cast<sim::EdmType>(type),
                                        false);
    }
  }
  return options;
}

CampaignConfig ShadowConfig(const std::string& workload,
                            target::Technique technique,
                            target::FaultModel::Kind model,
                            std::uint32_t experiments,
                            std::uint64_t max_iterations = 0) {
  CampaignConfig config;
  config.name = "shadow";
  config.workload = workload;
  config.technique = technique;
  config.model.kind = model;
  config.model.period = 37;
  config.model.occurrences = 3;
  config.num_experiments = experiments;
  config.seed = 17;
  config.checkpoint_mode = true;
  config.checkpoint_stride = 256;
  // A budget a few times the longest reference run keeps faults that
  // hang the workload cheap.
  config.termination.max_instructions = 30000;
  config.termination.max_iterations = max_iterations;
  return config;
}

struct ShadowRun {
  CampaignSummary summary;
  std::vector<std::string> rows;
};

// Runs `config` on a Thor RD target with the given EDMs, forked (and so
// converging) or replayed from reset.
ShadowRun RunShadow(const CampaignConfig& config, bool edms_on, bool fork) {
  db::Database database;
  EXPECT_TRUE(CreateGoofiSchema(database).ok());
  target::ThorRdTarget target(EdmOptions(edms_on));
  EXPECT_TRUE(RegisterTargetSystem(database, target, "card", "").ok());
  EXPECT_TRUE(StoreCampaign(database, config).ok());
  CampaignRunner runner(&database, &target);
  runner.set_checkpoint_fork(fork);
  auto summary = runner.Run(config.name);
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  if (!summary.ok()) return {};
  return {*summary, LoggedRows(database)};
}

const char* ModelName(target::FaultModel::Kind model) {
  switch (model) {
    case target::FaultModel::Kind::kTransientBitFlip: return "transient";
    case target::FaultModel::Kind::kPermanentStuckAt: return "permanent";
    case target::FaultModel::Kind::kIntermittentBitFlip: return "intermittent";
  }
  return "?";
}

TEST(ConvergenceShadowTest, EveryWorkloadTechniqueAndModelLogsTheSameRows) {
  for (const std::string& workload : target::BuiltinWorkloadNames()) {
    for (const target::Technique technique :
         {target::Technique::kScifi, target::Technique::kSwifiRuntime}) {
      for (const auto model : {target::FaultModel::Kind::kTransientBitFlip,
                               target::FaultModel::Kind::kPermanentStuckAt,
                               target::FaultModel::Kind::kIntermittentBitFlip}) {
        for (const bool edms_on : {true, false}) {
          const CampaignConfig config =
              ShadowConfig(workload, technique, model, 12);
          SCOPED_TRACE(workload + " " + target::TechniqueName(technique) +
                       " " + ModelName(model) +
                       (edms_on ? " edms on" : " edms off"));
          const ShadowRun converging = RunShadow(config, edms_on, true);
          const ShadowRun replayed = RunShadow(config, edms_on, false);
          EXPECT_EQ(replayed.summary.experiments_converged, 0u);
          if (model != target::FaultModel::Kind::kTransientBitFlip) {
            EXPECT_EQ(converging.summary.experiments_converged, 0u);
          }
          EXPECT_EQ(converging.rows, replayed.rows);
        }
      }
    }
  }
}

TEST(ConvergenceShadowTest, TransientRuntimeSwifiConverges) {
  for (const std::string workload :
       {"isort", "qsort", "matmul", "engine_control"}) {
    SCOPED_TRACE(workload);
    // About one engine experiment in 600 rejoins the golden run with an
    // actuator history of its own (the plant and the controller settle
    // back onto the golden trajectory); only the environment comparison
    // tells it apart, so the engine campaign is that long.
    // The mission runs a few hundred iterations, so a fault has
    // boundaries left to rejoin the golden run at.
    const bool engine = workload == "engine_control";
    const CampaignConfig config = ShadowConfig(
        workload, target::Technique::kSwifiRuntime,
        target::FaultModel::Kind::kTransientBitFlip, engine ? 600 : 100,
        engine ? 200 : 0);
    const ShadowRun converging = RunShadow(config, true, true);
    const ShadowRun replayed = RunShadow(config, true, false);
    EXPECT_GT(converging.summary.experiments_converged, 0u);
    EXPECT_GT(converging.summary.converged_instructions_skipped, 0u);
    EXPECT_EQ(converging.rows, replayed.rows);
  }
}

TEST(ConvergenceShadowTest, FourWorkersShareOneGoldenRun) {
  // The workers read one immutable golden run concurrently; which worker
  // ran an experiment must not change whether it converged or what it
  // logged.
  const CampaignConfig config =
      ShadowConfig("engine_control", target::Technique::kSwifiRuntime,
                   target::FaultModel::Kind::kTransientBitFlip, 100, 200);
  const ShadowRun serial = RunShadow(config, true, true);
  db::Database database;
  ASSERT_TRUE(CreateGoofiSchema(database).ok());
  target::ThorRdTarget registrar;
  ASSERT_TRUE(RegisterTargetSystem(database, registrar, "card", "").ok());
  ASSERT_TRUE(StoreCampaign(database, config).ok());
  auto factory = target::BuiltinTargetFactory("thor_rd");
  ASSERT_TRUE(factory.ok());
  CampaignRunner runner(&database, *factory, 4);
  auto sharded = runner.Run(config.name);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->experiments_converged,
            serial.summary.experiments_converged);
  EXPECT_EQ(sharded->converged_instructions_skipped,
            serial.summary.converged_instructions_skipped);
  EXPECT_GT(sharded->experiments_converged, 0u);
  EXPECT_EQ(LoggedRows(database), serial.rows);
}

}  // namespace
}  // namespace goofi::core
