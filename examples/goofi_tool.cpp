// goofi_tool: the command-line face of GOOFI++ — the reproduction's
// substitute for the paper's graphical user interface. Each subcommand
// corresponds to a GUI window:
//
//   targets / workloads          the configuration-phase pickers (Fig. 5)
//   run <campaign.ini>           set-up + fault-injection phase (Figs. 6, 7)
//   resume <campaign>            continue a stopped campaign
//   analyze <campaign>           the analysis phase (§3.4 report)
//   rerun <experiment>           detail-mode re-run with parentExperiment
//   sql "<statement>"            ad-hoc queries over the campaign database
//   schema                       print the Fig. 4 schema as SQL
//
// The campaign database persists in the directory given by --db (default
// ./goofi_db), so phases can run in separate invocations, as they would
// with the Java tool and its SQL database.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/goofi.h"
#include "target/flaky_target.h"
#include "util/strings.h"

namespace {

using namespace goofi;

// SIGINT/SIGTERM drain the in-flight campaign instead of killing it
// mid-write: the controller's Drain() only flips lock-free atomics
// (async-signal-safe), the run ends at its next experiment boundary,
// and the database is left at its last cadence commit — the same state
// a SIGKILL there would leave, so `goofi_tool resume` finishes the
// campaign byte-identical to an uninterrupted run. Exit code 3 tells
// scripts "checkpointed, resumable" apart from success (0)/error (1).
constexpr int kExitDrained = 3;
core::CampaignController g_run_controller;

void HandleDrainSignal(int) { g_run_controller.Drain(); }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

struct Arguments {
  std::string command;
  std::vector<std::string> positional;
  std::string db_dir = "goofi_db";
  std::size_t jobs = 0;  // 0 = take the campaign's `jobs` key (default 1)
  // Scripted target faults (target/flaky_target.h), e.g.
  // "io@3;hang@5;target_fault@7:2;hang_ms=200" — exercises the
  // supervision layer against a deterministic flaky transport.
  std::string flaky;
  // --checkpoint on|off forces checkpoint-fork execution for this run
  // only (execution-only override; the stored campaign row and the
  // logged results are identical either way). Unset honours the
  // campaign's checkpoint_mode key.
  std::optional<bool> checkpoint;
  bool bad_checkpoint = false;
};

Arguments ParseArguments(int argc, char** argv) {
  Arguments arguments;
  if (argc > 1) arguments.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--db") == 0 && i + 1 < argc) {
      arguments.db_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      arguments.jobs = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--flaky") == 0 && i + 1 < argc) {
      arguments.flaky = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "on") {
        arguments.checkpoint = true;
      } else if (value == "off") {
        arguments.checkpoint = false;
      } else {
        arguments.bad_checkpoint = true;
      }
    } else {
      arguments.positional.emplace_back(argv[i]);
    }
  }
  return arguments;
}

// How often the runners group-commit the WAL, in experiments. The
// cadence is counted in canonical order by both runners, so serial and
// --jobs N runs flush at the same points and write identical log bytes.
constexpr std::size_t kCommitEveryExperiments = 32;

// Open the database directory in whichever format it holds; a fresh
// directory becomes a WAL database (legacy text directories keep their
// format until migrated with goofi_dbck).
Result<db::Database> OpenOrCreate(const std::string& dir) {
  namespace fs = std::filesystem;
  if (fs::exists(fs::path(dir) / "wal.log") ||
      fs::exists(fs::path(dir) / "snapshot.manifest") ||
      fs::exists(fs::path(dir) / "manifest.txt") ||
      fs::exists(fs::path(dir + ".saving") / "manifest.txt")) {
    return db::Database::Open(dir);
  }
  db::Database database;
  RETURN_IF_ERROR(database.AttachWal(dir));
  RETURN_IF_ERROR(core::CreateGoofiSchema(database));
  RETURN_IF_ERROR(database.Commit());
  return database;
}

Result<std::unique_ptr<target::TargetSystemInterface>> MakeTarget(
    const std::string& name, const std::string& workload_name) {
  ASSIGN_OR_RETURN(auto target,
                   core::TargetRegistry::Instance().Create(name));
  if (!workload_name.empty()) {
    if (EndsWith(workload_name, ".workload")) {
      ASSIGN_OR_RETURN(target::WorkloadSpec workload,
                       target::LoadWorkloadSpecFromFile(workload_name));
      RETURN_IF_ERROR(target->SetWorkload(std::move(workload)));
    } else {
      ASSIGN_OR_RETURN(target::WorkloadSpec workload,
                       target::GetBuiltinWorkload(workload_name));
      RETURN_IF_ERROR(target->SetWorkload(std::move(workload)));
    }
  }
  return target;
}

int CmdTargets() {
  core::TargetRegistry& registry = core::TargetRegistry::Instance();
  std::printf("registered target systems:\n");
  for (const std::string& name : registry.Names()) {
    auto target = registry.Create(name);
    if (!target.ok()) continue;
    std::printf("  %-12s (%zu fault-injection locations before workload "
                "load)\n",
                name.c_str(), (*target)->ListLocations().size());
  }
  return 0;
}

int CmdWorkloads() {
  std::printf("built-in workloads:\n");
  for (const std::string& name : target::BuiltinWorkloadNames()) {
    auto workload = target::GetBuiltinWorkload(name);
    std::printf("  %-16s output %u bytes @0x%08x%s%s\n", name.c_str(),
                workload->output_length, workload->output_base,
                workload->environment.empty() ? "" : ", environment: ",
                workload->environment.c_str());
  }
  std::printf("(or pass a .workload file path in the campaign config's "
              "'workload_file' key)\n");
  return 0;
}

int CmdRun(const Arguments& arguments, bool resume) {
  if (arguments.positional.empty()) {
    std::fprintf(stderr, resume ? "usage: goofi_tool resume <campaign> "
                                  "[--db DIR]\n"
                                : "usage: goofi_tool run <campaign.ini> "
                                  "[--db DIR]\n");
    return 1;
  }
  if (arguments.bad_checkpoint) {
    return Fail(InvalidArgumentError("--checkpoint takes 'on' or 'off'"));
  }
  auto opened = OpenOrCreate(arguments.db_dir);
  if (!opened.ok()) return Fail(opened.status());
  db::Database database = std::move(*opened);

  std::string campaign_name;
  std::string workload_file;
  std::size_t ini_jobs = 1;
  if (resume) {
    campaign_name = arguments.positional[0];
  } else {
    auto file = Config::LoadFile(arguments.positional[0]);
    if (!file.ok()) return Fail(file.status());
    const ConfigSection* section = file->FindSection("campaign");
    if (section == nullptr) {
      return Fail(InvalidArgumentError("no [campaign] section"));
    }
    auto config = core::ParseCampaignConfig(*section);
    if (!config.ok()) return Fail(config.status());
    workload_file = section->GetStringOr("workload_file", "");
    campaign_name = config->name;
    ini_jobs = config->jobs;
    // Idempotent target registration + campaign storage.
    if (!database.HasTable(core::kCampaignDataTable)) {
      (void)core::CreateGoofiSchema(database);
    }
    const db::Table* campaigns =
        database.FindTable(core::kCampaignDataTable);
    if (!campaigns->FindByUnique(0, db::Value::Text_(campaign_name))) {
      auto target = MakeTarget(config->target, "");
      if (!target.ok()) return Fail(target.status());
      if (auto s = core::RegisterTargetSystem(database, **target,
                                              "goofi-tool-card", "");
          !s.ok()) {
        return Fail(s);
      }
      if (auto s = core::StoreCampaign(database, *config); !s.ok()) {
        return Fail(s);
      }
    }
  }

  auto loaded = core::LoadCampaign(database, campaign_name);
  if (!loaded.ok()) return Fail(loaded.status());

  const auto print_progress = [](core::ProgressInfo info) {
    if (info.experiments_done % 100 == 0 ||
        info.experiments_done == info.experiments_total) {
      if (info.checkpoint_forks > 0) {
        // Fork-mode speedup is visible in flight: how many experiments
        // skipped to a checkpoint and the replay instructions saved.
        std::printf("\r[%zu/%zu] %zu faults injected, %zu forked "
                    "(%llu instructions saved)   ",
                    info.experiments_done, info.experiments_total,
                    info.faults_injected, info.checkpoint_forks,
                    static_cast<unsigned long long>(
                        info.instructions_skipped));
      } else {
        std::printf("\r[%zu/%zu] %zu faults injected   ",
                    info.experiments_done, info.experiments_total,
                    info.faults_injected);
      }
      std::fflush(stdout);
    }
  };
  // Scripted transport faults: wrap every minted target in the flaky
  // decorator so the supervision layer has something to survive.
  std::shared_ptr<target::FlakyScript> flaky_script;
  if (!arguments.flaky.empty()) {
    auto parsed = target::ParseFlakyScript(arguments.flaky);
    if (!parsed.ok()) return Fail(parsed.status());
    flaky_script = std::move(*parsed);
  }
  target::TargetFactory factory = [name = loaded->target, workload_file]() {
    return MakeTarget(name, workload_file);
  };
  if (flaky_script != nullptr) {
    factory = target::MakeFlakyTargetFactory(std::move(factory),
                                             flaky_script);
  }

  // --jobs beats the campaign's `jobs` key; either way the database is
  // bit-identical to a one-worker run.
  const std::size_t jobs = arguments.jobs != 0 ? arguments.jobs : ini_jobs;
  std::signal(SIGINT, HandleDrainSignal);
  std::signal(SIGTERM, HandleDrainSignal);
  core::CampaignRunner runner(&database, factory, jobs);
  runner.set_controller(&g_run_controller);
  runner.set_progress_callback(print_progress);
  runner.set_checkpoint_fork(arguments.checkpoint);
  // With a WAL attached, checkpoints are cheap group-commit flushes, so
  // run them on a fixed cadence; legacy text databases keep the old
  // behaviour (no mid-campaign rewrites unless asked).
  if (database.wal_attached()) {
    runner.set_checkpoint(arguments.db_dir, kCommitEveryExperiments);
  }
  auto summary =
      resume ? runner.Resume(campaign_name) : runner.Run(campaign_name);
  std::printf("\n");
  if (!summary.ok()) return Fail(summary.status());
  if (g_run_controller.drain_requested()) {
    // Checkpointed, not finished: the database holds exactly its last
    // cadence commit (nothing else was written), so `goofi_tool resume`
    // completes the campaign byte-identical to an uninterrupted run.
    // No Persist, no analysis — that is the drain contract.
    std::printf("campaign %s: interrupted after %zu experiments; "
                "checkpoint saved, resume with "
                "`goofi_tool resume %s --db %s`\n",
                campaign_name.c_str(), summary->experiments_run,
                campaign_name.c_str(), arguments.db_dir.c_str());
    if (!core::WaitForAbandonedTargets(std::chrono::milliseconds(10000))) {
      std::fprintf(stderr,
                   "warning: %zu abandoned target(s) still in flight at "
                   "exit\n",
                   core::AbandonedTargetsInFlight());
    }
    return kExitDrained;
  }
  std::printf("campaign %s: %zu experiments run (%zu skipped early)\n",
              campaign_name.c_str(), summary->experiments_run,
              summary->experiments_stopped_early);
  if (summary->experiment_retries > 0 ||
      summary->experiments_abandoned > 0 ||
      summary->targets_quarantined > 0) {
    std::printf("supervision: %zu retries, %zu experiments abandoned "
                "(tool-incomplete), %zu target instances quarantined\n",
                summary->experiment_retries,
                summary->experiments_abandoned,
                summary->targets_quarantined);
  }
  if (summary->checkpoint_forks > 0) {
    std::printf("checkpoint-fork: %zu checkpoints recorded, %zu/%zu "
                "experiments forked, %llu of %llu pre-trigger instructions "
                "skipped (%.1f%%)\n",
                summary->checkpoints_recorded, summary->checkpoint_forks,
                summary->experiments_run,
                static_cast<unsigned long long>(
                    summary->instructions_skipped),
                static_cast<unsigned long long>(
                    summary->trigger_instructions_total),
                summary->trigger_instructions_total > 0
                    ? 100.0 * static_cast<double>(
                                  summary->instructions_skipped) /
                          static_cast<double>(
                              summary->trigger_instructions_total)
                    : 0.0);
  }
  if (flaky_script != nullptr) {
    std::printf("flaky script: %llu faults + %llu hangs injected\n",
                static_cast<unsigned long long>(
                    flaky_script->faults_injected.load()),
                static_cast<unsigned long long>(
                    flaky_script->hangs_injected.load()));
  }
  if (summary->static_pruned_bits > 0) {
    std::printf("static analysis pruned %llu location bits "
                "(%.1f%% of the selected fault space)\n",
                static_cast<unsigned long long>(summary->static_pruned_bits),
                100.0 * summary->static_pruned_fraction);
  }
  if (summary->equiv_classes > 0) {
    std::printf("equivalence partitioning: %zu classes, %zu/%zu experiments "
                "injected (%zu duplicates pruned), %llu fault points "
                "extrapolated\n",
                summary->equiv_classes,
                summary->experiments_run - summary->equiv_duplicates,
                summary->experiments_run, summary->equiv_duplicates,
                static_cast<unsigned long long>(summary->equiv_space_weight));
  }

  auto analysis = core::AnalyzeCampaign(database, campaign_name,
                                        /*collect_experiments=*/false);
  if (!analysis.ok()) return Fail(analysis.status());
  std::printf("%s", core::FormatAnalysisReport(*analysis).c_str());

  if (auto s = database.Persist(arguments.db_dir); !s.ok()) {
    return Fail(s);
  }
  std::printf("database saved to %s\n", arguments.db_dir.c_str());

  // Abandoned (wedged) target instances drain on their own when their
  // runs return; give them a bounded grace period instead of racing
  // process teardown.
  if (!core::WaitForAbandonedTargets(std::chrono::milliseconds(10000))) {
    std::fprintf(stderr,
                 "warning: %zu abandoned target(s) still in flight at exit\n",
                 core::AbandonedTargetsInFlight());
  }
  return 0;
}

int CmdAnalyze(const Arguments& arguments, bool csv) {
  if (arguments.positional.empty()) {
    std::fprintf(stderr, "usage: goofi_tool %s <campaign> [--db DIR]\n",
                 csv ? "export" : "analyze");
    return 1;
  }
  auto database = db::Database::Open(arguments.db_dir);
  if (!database.ok()) return Fail(database.status());
  // The CSV export needs per-experiment rows; the report streams.
  auto analysis = core::AnalyzeCampaign(*database, arguments.positional[0],
                                        /*collect_experiments=*/csv);
  if (!analysis.ok()) return Fail(analysis.status());
  std::printf("%s", csv ? core::FormatAnalysisCsv(*analysis).c_str()
                        : core::FormatAnalysisReport(*analysis).c_str());
  return 0;
}

int CmdRerun(const Arguments& arguments) {
  if (arguments.positional.empty()) {
    std::fprintf(stderr, "usage: goofi_tool rerun <experiment> [--db DIR]\n");
    return 1;
  }
  auto database = db::Database::Open(arguments.db_dir);
  if (!database.ok()) return Fail(database.status());
  // Resolve the experiment's campaign to know which target to build.
  const db::Table* logged =
      database->FindTable(core::kLoggedSystemStateTable);
  if (logged == nullptr) return Fail(NotFoundError("empty database"));
  const auto row =
      logged->FindByUnique(0, db::Value::Text_(arguments.positional[0]));
  if (!row) {
    return Fail(NotFoundError("no experiment '" + arguments.positional[0] +
                              "'"));
  }
  auto config = core::LoadCampaign(*database,
                                   logged->row(*row)[2].AsText());
  if (!config.ok()) return Fail(config.status());
  auto target = MakeTarget(config->target, config->workload);
  if (!target.ok()) return Fail(target.status());
  core::CampaignRunner runner(&(*database), target->get());
  auto child = runner.ReRunInDetailMode(arguments.positional[0]);
  if (!child.ok()) return Fail(child.status());
  std::printf("detail re-run logged as %s (parentExperiment = %s)\n",
              child->c_str(), arguments.positional[0].c_str());
  if (auto s = database->Persist(arguments.db_dir); !s.ok()) {
    return Fail(s);
  }
  return 0;
}

int CmdEquivCheck(const Arguments& arguments) {
  if (arguments.positional.empty()) {
    std::fprintf(stderr,
                 "usage: goofi_tool equivcheck <campaign> [max_classes] "
                 "[--db DIR]\n");
    return 1;
  }
  auto database = db::Database::Open(arguments.db_dir);
  if (!database.ok()) return Fail(database.status());
  const std::size_t max_classes =
      arguments.positional.size() > 1
          ? static_cast<std::size_t>(std::atol(
                arguments.positional[1].c_str()))
          : 0;
  auto audit = core::CrossCheckEquivalenceCampaign(
      *database, arguments.positional[0], max_classes);
  if (!audit.ok()) return Fail(audit.status());
  std::printf("equivalence crosscheck: %zu classes checked, %zu member "
              "injections re-run (%llu fault points), all "
              "outcome-homogeneous\n",
              audit->classes_checked, audit->members_injected,
              static_cast<unsigned long long>(audit->space_weight));
  return 0;
}

int CmdSql(const Arguments& arguments) {
  if (arguments.positional.empty()) {
    std::fprintf(stderr, "usage: goofi_tool sql \"<statement>\" [--db DIR]\n");
    return 1;
  }
  auto database = db::Database::Open(arguments.db_dir);
  if (!database.ok()) return Fail(database.status());
  auto result = db::sql::ExecuteSql(*database, arguments.positional[0]);
  if (!result.ok()) return Fail(result.status());
  if (!result->columns.empty()) {
    std::printf("%s", result->ToAsciiTable().c_str());
    std::printf("(%zu rows)\n", result->rows.size());
  } else {
    std::printf("%zu rows affected\n", result->affected_rows);
    if (auto s = database->Persist(arguments.db_dir); !s.ok()) {
      return Fail(s);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Arguments arguments = ParseArguments(argc, argv);
  if (arguments.command == "targets") return CmdTargets();
  if (arguments.command == "workloads") return CmdWorkloads();
  if (arguments.command == "run") return CmdRun(arguments, false);
  if (arguments.command == "resume") return CmdRun(arguments, true);
  if (arguments.command == "analyze") return CmdAnalyze(arguments, false);
  if (arguments.command == "export") return CmdAnalyze(arguments, true);
  if (arguments.command == "rerun") return CmdRerun(arguments);
  if (arguments.command == "equivcheck") return CmdEquivCheck(arguments);
  if (arguments.command == "sql") return CmdSql(arguments);
  if (arguments.command == "schema") {
    std::printf("%s\n", core::GoofiSchemaSql());
    return 0;
  }
  std::fprintf(stderr,
               "GOOFI++ command-line tool\n"
               "usage: goofi_tool <command> [args] [--db DIR]\n"
               "commands:\n"
               "  targets                 list registered target systems\n"
               "  workloads               list built-in workloads\n"
               "  run <campaign.ini>      store + run a campaign, print "
               "analysis\n"
               "                          (--jobs N or a `jobs` campaign "
               "key shards it\n"
               "                          across N workers, same database "
               "bit for bit)\n"
               "  resume <campaign>       continue a stopped campaign "
               "(any --jobs)\n"
               "                          (--flaky \"io@3;hang@5\" scripts "
               "transport faults\n"
               "                          to exercise the supervision "
               "layer)\n"
               "                          (--checkpoint on|off forces "
               "checkpoint-fork\n"
               "                          execution; results are identical "
               "either way)\n"
               "  analyze <campaign>      re-print the analysis report\n"
               "  export <campaign>       per-experiment outcomes as CSV\n"
               "  rerun <experiment>      detail-mode re-run "
               "(parentExperiment)\n"
               "  equivcheck <campaign>   re-inject every member of logged\n"
               "                          equivalence classes and prove "
               "them\n"
               "                          outcome-homogeneous "
               "([max_classes] bounds it)\n"
               "  sql \"<statement>\"       query the campaign database\n"
               "  schema                  print the Fig. 4 schema as SQL\n");
  return arguments.command.empty() ? 0 : 1;
}
