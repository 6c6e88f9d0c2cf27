// Experiment T-CAMPAIGN (DESIGN.md): end-to-end campaign throughput —
// experiments per second as a function of workload length, technique and
// logging mode, plus where the time goes (link traffic, TCK cycles).
// The second half measures checkpoint-fork execution: the same
// register-SCIFI campaign replayed from reset vs forked from golden-run
// checkpoints, with the speedup and the replay instructions saved; then
// convergence on the runtime-SWIFI mission: the share of forked runs
// that rejoined the golden run, the post-injection instructions they
// skipped, and the cost of one boundary comparison.
// Everything also lands in BENCH_campaign_throughput.json.
#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.h"
#include "target/cache_target.h"

namespace {

// Mean pre-trigger instructions each experiment actually replayed:
// the trigger sum minus what forking skipped, per experiment run.
double MeanReplayed(const goofi::core::CampaignSummary& summary) {
  if (summary.experiments_run == 0) return 0.0;
  return static_cast<double>(summary.trigger_instructions_total -
                             summary.instructions_skipped) /
         static_cast<double>(summary.experiments_run);
}

constexpr int kForkTrials = 5;

double Rate(const goofi::bench::CampaignRun& run) {
  return static_cast<double>(run.summary.experiments_run) / run.wall_seconds;
}

double Share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double median = n % 2 == 1
                            ? values[n / 2]
                            : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  return {median, values.front(), values.back()};
}

goofi::bench::BenchJson& AddSpread(goofi::bench::BenchJson& json,
                                   const Spread& spread) {
  return json.Field("trials", std::uint64_t{kForkTrials})
      .Field("experiments_per_sec", spread.median)
      .Field("experiments_per_sec_min", spread.min)
      .Field("experiments_per_sec_max", spread.max);
}

goofi::bench::BenchJson& ForkRow(goofi::bench::BenchJson& json,
                                 const char* technique,
                                 const goofi::bench::CampaignRun& run,
                                 bool checkpoint_on, std::uint64_t stride) {
  return json.BeginEntry()
      .Field("workload", "engine_control")
      .Field("technique", technique)
      .Field("logging", "normal")
      .Field("experiments", std::uint64_t{run.summary.experiments_run})
      .Field("reference_instructions", run.summary.reference.instructions)
      .Field("mean_pretrigger_instructions_replayed",
             MeanReplayed(run.summary))
      .Field("checkpoint_mode", checkpoint_on)
      .Field("checkpoint_stride", stride)
      .Field("checkpoint_forks", std::uint64_t{run.summary.checkpoint_forks})
      .Field("instructions_skipped", run.summary.instructions_skipped);
}

goofi::bench::BenchJson& MissionRow(goofi::bench::BenchJson& json,
                                    const goofi::bench::CampaignRun& run,
                                    bool checkpoint_on, std::uint64_t stride) {
  return ForkRow(json, "swifi_runtime", run, checkpoint_on, stride)
      .Field("experiments_converged",
             std::uint64_t{run.summary.experiments_converged})
      .Field("post_injection_instructions",
             run.summary.post_injection_instructions_total)
      .Field("post_injection_instructions_skipped",
             run.summary.converged_instructions_skipped);
}

// Median microseconds of one convergence test at a boundary where the
// live state matches: the golden snapshot restored onto the target and
// compared with itself, the whole emitted and environment history
// included (a forked run skips the prefix it shares with its
// checkpoint, so this bounds the real cost from above).
double BoundaryCompareMicros(const goofi::core::CampaignConfig& config) {
  using namespace goofi;
  target::ThorRdTarget target;
  auto workload = target::GetBuiltinWorkload(config.workload);
  if (!workload.ok() || !target.SetWorkload(*workload).ok()) std::abort();
  target::ExperimentSpec spec;
  spec.name = "compare/reference";
  spec.technique = config.technique;
  spec.termination = config.termination;
  target.set_experiment(spec);
  target::GoldenRun golden;
  golden.stride = config.checkpoint_stride;
  target.set_checkpoint_recording(&golden);
  if (!target.MakeReferenceRun().ok()) std::abort();
  target.set_checkpoint_recording(nullptr);
  constexpr int kRepeats = 20;
  std::vector<double> micros;
  for (std::size_t b = 1; b < golden.boundaries.size(); ++b) {
    const target::GoldenRun::Boundary& boundary = golden.boundaries[b];
    if (!target.RestoreSnapshot(*boundary.snapshot).ok()) std::abort();
    bool matched = true;
    const auto begin = std::chrono::steady_clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      matched = matched && target.MatchesGoldenAt(boundary);
    }
    const auto end = std::chrono::steady_clock::now();
    if (!matched) std::abort();
    micros.push_back(std::chrono::duration<double, std::micro>(end - begin)
                         .count() /
                     kRepeats);
  }
  return micros.empty() ? 0.0 : SpreadOf(micros).median;
}

}  // namespace

int main() {
  using namespace goofi;
  bench::BenchJson json("campaign_throughput");
  std::printf("== T-CAMPAIGN: campaign throughput ==\n\n");
  std::printf("%-16s %-14s %-8s %6s | %9s %12s %14s\n", "workload",
              "technique", "mode", "N", "exps/s", "ref instr",
              "link bytes/exp");

  struct Case {
    const char* workload;
    target::Technique technique;
    target::LoggingMode mode;
  };
  const Case cases[] = {
      {"fib", target::Technique::kScifi, target::LoggingMode::kNormal},
      {"crc32", target::Technique::kScifi, target::LoggingMode::kNormal},
      {"isort", target::Technique::kScifi, target::LoggingMode::kNormal},
      {"isort", target::Technique::kSwifiPreRuntime,
       target::LoggingMode::kNormal},
      {"isort", target::Technique::kSwifiRuntime,
       target::LoggingMode::kNormal},
      {"isort", target::Technique::kScifi, target::LoggingMode::kDetail},
      {"engine_control", target::Technique::kScifi,
       target::LoggingMode::kNormal},
  };
  int case_index = 0;
  for (const Case& c : cases) {
    db::Database database;
    target::ThorRdTarget target;
    core::CampaignConfig config;
    config.name = goofi::StrFormat("thr_%d", case_index++);
    config.workload = c.workload;
    config.technique = c.technique;
    config.num_experiments =
        c.mode == target::LoggingMode::kDetail ? 40 : 200;
    config.seed = 2;
    config.logging_mode = c.mode;
    if (c.technique != target::Technique::kSwifiPreRuntime) {
      config.location_filters = {"cpu.regs.*"};
    }
    const bench::CampaignRun run =
        bench::RunCampaign(database, target, config);
    const target::LinkStats& link = target.test_card().link_stats();
    const double exps_per_sec =
        static_cast<double>(run.summary.experiments_run) / run.wall_seconds;
    std::printf("%-16s %-14s %-8s %6zu | %9.1f %12llu %14llu\n",
                c.workload, target::TechniqueName(c.technique),
                c.mode == target::LoggingMode::kDetail ? "detail"
                                                       : "normal",
                run.summary.experiments_run, exps_per_sec,
                static_cast<unsigned long long>(
                    run.summary.reference.instructions),
                static_cast<unsigned long long>(
                    link.bytes_transferred /
                    (run.summary.experiments_run + 1)));
    json.BeginEntry()
        .Field("workload", c.workload)
        .Field("technique", target::TechniqueName(c.technique))
        .Field("logging", c.mode == target::LoggingMode::kDetail
                              ? "detail" : "normal")
        .Field("experiments", std::uint64_t{run.summary.experiments_run})
        .Field("experiments_per_sec", exps_per_sec)
        .Field("reference_instructions",
               run.summary.reference.instructions)
        .Field("mean_pretrigger_instructions_replayed", MeanReplayed(run.summary))
        .Field("checkpoint_mode", false);
  }
  // ---- cache target: access-path injection instead of scan shifting ----
  // The same isort SCIFI campaign, but on the cache_hierarchy board with
  // the fault family narrowed to the D-cache data array. Arming an
  // access-path fault is a list append, not a chain shift, so the
  // per-experiment fixed cost is lower than register SCIFI's.
  {
    db::Database database;
    target::CacheHierarchyTarget target;
    core::CampaignConfig config;
    config.name = "thr_cache";
    config.target = "cache_hierarchy";
    config.workload = "isort";
    config.num_experiments = 200;
    config.seed = 2;
    config.cache_fault_model = "cache_data_bit";
    config.location_filters = {"dcache.*"};
    const bench::CampaignRun run =
        bench::RunCampaign(database, target, config);
    const double exps_per_sec =
        static_cast<double>(run.summary.experiments_run) / run.wall_seconds;
    std::printf("%-16s %-14s %-8s %6zu | %9.1f %12llu %14s\n",
                "isort (dcache)", "scifi", "normal",
                run.summary.experiments_run, exps_per_sec,
                static_cast<unsigned long long>(
                    run.summary.reference.instructions),
                "-");
    json.BeginEntry()
        .Field("workload", "isort")
        .Field("target", "cache_hierarchy")
        .Field("fault_model", "cache_data_bit")
        .Field("technique", "scifi")
        .Field("logging", "normal")
        .Field("experiments", std::uint64_t{run.summary.experiments_run})
        .Field("experiments_per_sec", exps_per_sec)
        .Field("reference_instructions",
               run.summary.reference.instructions)
        .Field("mean_pretrigger_instructions_replayed",
               MeanReplayed(run.summary))
        .Field("checkpoint_mode", false);
  }

  std::printf(
      "\nExpected shape: throughput falls with workload length (the\n"
      "reference duration bounds every experiment); pre-runtime SWIFI is\n"
      "the fastest technique (no breakpoint wait, no scan-chain\n"
      "shifting); detail mode is the big outlier, paying a full\n"
      "internal-chain capture per executed instruction; the cache-target\n"
      "row injects through the access-path hooks (no chain shifting at\n"
      "the trigger), trading that saving against parity-EDM stops that\n"
      "end faulty runs early.\n");

  // ---- checkpoint-fork: replay-from-reset vs fork-from-checkpoint ------
  // A register-SCIFI campaign on a long engine_control mission (10000
  // control iterations, ~280k instructions — the regime checkpointing
  // targets), injecting in the back 7% of the run, once with
  // checkpoint-fork off and once forced on (execution-only override —
  // the stored campaign is identical). Stride is a tenth of the
  // reference duration, so every fork lands within one stride of its
  // trigger.
  std::printf("\n== checkpoint-fork execution ==\n\n");
  constexpr std::uint64_t kMissionIterations = 10000;
  const std::uint64_t probe_duration = [] {
    db::Database database;
    target::ThorRdTarget target;
    core::CampaignConfig config;
    config.name = "ckpt_probe";
    config.workload = "engine_control";
    config.num_experiments = 1;
    config.seed = 7;
    config.location_filters = {"cpu.regs.*"};
    config.termination.max_iterations = kMissionIterations;
    return bench::RunCampaign(database, target, config)
        .summary.reference.instructions;
  }();
  core::CampaignConfig ckpt_config;
  ckpt_config.name = "ckpt";
  ckpt_config.workload = "engine_control";
  ckpt_config.num_experiments = 200;
  ckpt_config.seed = 7;
  ckpt_config.location_filters = {"cpu.regs.*"};
  ckpt_config.termination.max_iterations = kMissionIterations;
  ckpt_config.time_window_lo = probe_duration * 93 / 100;
  ckpt_config.checkpoint_stride = std::max<std::uint64_t>(
      1, probe_duration / 10);

  // Fork rows run kForkTrials times and report the median and range;
  // the replay baselines run once.
  std::printf("%-10s %6s | %9s %17s %9s | %12s %6s\n", "mode", "N",
              "exps/s", "[min, max]", "speedup", "replayed/exp", "forks");
  const double replay_rate = [&] {
    db::Database database;
    target::ThorRdTarget target;
    const bench::CampaignRun run =
        bench::RunCampaign(database, target, ckpt_config, false);
    const double rate = Rate(run);
    std::printf("%-10s %6zu | %9.1f %17s %9s | %12.0f %6zu\n", "replay",
                run.summary.experiments_run, rate, "", "1.00x",
                MeanReplayed(run.summary), run.summary.checkpoint_forks);
    ForkRow(json, "scifi", run, false, ckpt_config.checkpoint_stride)
        .Field("experiments_per_sec", rate);
    return rate;
  }();
  {
    std::vector<double> rates;
    bench::CampaignRun run;
    for (int trial = 0; trial < kForkTrials; ++trial) {
      db::Database database;
      target::ThorRdTarget target;
      run = bench::RunCampaign(database, target, ckpt_config, true);
      rates.push_back(Rate(run));
    }
    const Spread spread = SpreadOf(rates);
    std::printf("%-10s %6zu | %9.1f [%7.1f, %7.1f] %8.2fx | %12.0f %6zu\n",
                "fork", run.summary.experiments_run, spread.median,
                spread.min, spread.max, spread.median / replay_rate,
                MeanReplayed(run.summary), run.summary.checkpoint_forks);
    AddSpread(
        ForkRow(json, "scifi", run, true, ckpt_config.checkpoint_stride),
        spread);
  }
  std::printf(
      "\nFork mode skips the pre-trigger replay: every experiment\n"
      "restores the checkpoint below its trigger and runs only the\n"
      "remainder, so the late-window campaign speeds up by roughly\n"
      "window position / (1 - window position). The logged database is\n"
      "bit-identical in both modes (tests/core/checkpoint_fork_test.cpp\n"
      "proves it row for row).\n");

  // ---- convergence: the runtime-SWIFI mission --------------------------
  // Runtime SWIFI over the whole 10000-iteration mission (the shape of
  // goofi_benchmark's swifi_fork_mission). Forked experiments stop at
  // the first checkpoint boundary where they have rejoined the golden
  // run; the share that did and the post-injection instructions they
  // skipped are telemetry, the rows are the replay's.
  std::printf("\n== convergence: runtime-SWIFI mission ==\n\n");
  core::CampaignConfig mission = ckpt_config;
  mission.name = "mission";
  mission.technique = target::Technique::kSwifiRuntime;
  mission.location_filters.clear();
  mission.time_window_lo = 0;
  std::printf("%-10s %6s | %9s %17s %9s | %9s %9s\n", "mode", "N",
              "exps/s", "[min, max]", "speedup", "converged",
              "skipped");
  const double mission_replay_rate = [&] {
    db::Database database;
    target::ThorRdTarget target;
    const bench::CampaignRun run =
        bench::RunCampaign(database, target, mission, false);
    const double rate = Rate(run);
    std::printf("%-10s %6zu | %9.1f %17s %9s | %9s %9s\n", "replay",
                run.summary.experiments_run, rate, "", "1.00x", "-", "-");
    MissionRow(json, run, false, mission.checkpoint_stride)
        .Field("experiments_per_sec", rate);
    return rate;
  }();
  {
    std::vector<double> rates;
    bench::CampaignRun run;
    for (int trial = 0; trial < kForkTrials; ++trial) {
      db::Database database;
      target::ThorRdTarget target;
      run = bench::RunCampaign(database, target, mission, true);
      rates.push_back(Rate(run));
    }
    const Spread spread = SpreadOf(rates);
    const double converged_share =
        Share(run.summary.experiments_converged, run.summary.experiments_run);
    const double skipped_share =
        Share(run.summary.converged_instructions_skipped,
              run.summary.post_injection_instructions_total);
    std::printf(
        "%-10s %6zu | %9.1f [%7.1f, %7.1f] %8.2fx | %8.1f%% %8.1f%%\n",
        "fork", run.summary.experiments_run, spread.median, spread.min,
        spread.max, spread.median / mission_replay_rate,
        100.0 * converged_share, 100.0 * skipped_share);
    AddSpread(MissionRow(json, run, true, mission.checkpoint_stride), spread)
        .Field("converged_share", converged_share)
        .Field("post_injection_instructions_skipped_share", skipped_share)
        .Field("boundary_compare_us", BoundaryCompareMicros(mission));
  }
  std::printf(
      "\nA forked run compares its state with the golden snapshot at each\n"
      "boundary after its injection (CPU, caches, logs, environment, and\n"
      "memory modulo words the golden run overwrites before reading);\n"
      "tests/core/convergence_shadow_test.cpp proves the logged rows are\n"
      "the replay's.\n");
  json.Write();
  return 0;
}
