#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>

#include "core/goofi.h"
#include "service/executor.h"
#include "service/protocol.h"
#include "service/server.h"
#include "stats.h"
#include "util/config.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/strings.h"

namespace goofi::bench {

namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ---- sizes ----------------------------------------------------------------
// Campaign workloads repeat rounds, each exactly one `goofi_tool run` of
// a freshly stored campaign, until the run's time is up; short rounds
// give the percentiles enough samples.
struct Size {
  std::size_t full;
  std::size_t smoke;
};
constexpr Size kScifiExperiments{500, 60};    // ~1.1 s serial
constexpr Size kMissionExperiments{100, 20};  // ~1.1 s
constexpr std::uint64_t kMissionIterations = 10000;
// goofi_serve: an open loop of fib campaigns, one due every 600 ms,
// polled every 2 ms. That is about a quarter of the fleet's capacity,
// so that the latencies price the service path rather than queueing,
// and stay so when co-tenant load halves the host's speed: at a third,
// such an episode backed the queue up for seconds.
constexpr Size kServeExperiments{150, 30};
constexpr std::size_t kSmokeSubmissions = 3;
constexpr auto kServeInterval = 600ms;
constexpr auto kPollInterval = 2ms;
constexpr std::size_t kServeFleet = 3;
constexpr std::size_t kServeCampaignJobs = 2;

std::size_t SizeFor(const Size& size, const RunOptions& options) {
  return options.smoke ? size.smoke : size.full;
}

// "First result": the first group commit's worth of experiments logged,
// the earliest point another reader of the results can see any.
std::size_t FirstResultExperiments(std::size_t campaign_experiments) {
  return std::min(service::kCommitEveryExperiments, campaign_experiments);
}

constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kSetupSamples = 40;  // at least, per run
constexpr int kSetupSamplesPerRound = 2;
constexpr int kReopenSamples = 3;
constexpr std::size_t kDaemonStarts = 10;
constexpr std::size_t kSpotChecks = 8;

void Check(RunOutcome& out, bool ok, const std::string& what) {
  if (!ok) out.problems.push_back(what);
}

bool Check(RunOutcome& out, const Status& status, const std::string& what) {
  if (!status.ok()) out.problems.push_back(what + ": " + status.ToString());
  return status.ok();
}

// Temporary files live next to the binary, inside the build directory.
fs::path TempBase() {
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  return (ec ? fs::current_path() : exe.parent_path()) / "tmp";
}

// goofi_tool's target wiring: the registry's "thor_rd" (the traced
// subclass in traced runs) with a built-in workload installed.
Result<std::unique_ptr<target::TargetSystemInterface>> MakeTarget(
    const std::string& name, const std::string& workload) {
  core::TargetRegistry& registry = core::TargetRegistry::Instance();
  core::RegisterBuiltinTargets(registry);
  ASSIGN_OR_RETURN(auto target, registry.Create(name));
  if (!workload.empty()) {
    ASSIGN_OR_RETURN(target::WorkloadSpec spec,
                     target::GetBuiltinWorkload(workload));
    RETURN_IF_ERROR(target->SetWorkload(std::move(spec)));
  }
  return target;
}

// What goofi_tool stores before a run: the target's registration (under
// its test-card name) and the campaign row.
Status StoreForRun(db::Database& database,
                   const core::CampaignConfig& config) {
  ASSIGN_OR_RETURN(auto registrar, MakeTarget(config.target, ""));
  RETURN_IF_ERROR(core::RegisterTargetSystem(database, *registrar,
                                             "goofi-tool-card", ""));
  return core::StoreCampaign(database, config);
}

// The latencies a user waits for. The end-to-end values are the run's
// means: on a shared host, co-tenant contention comes in episodes of
// seconds that only ever slow a sample, so a median flips between the
// quiet and the contended mode from one run to the next, while a mean
// moves with the share of time contended. The median, the 75th
// percentile and the highest percentile that still has ten samples
// beyond it are reported beside them, with the sample count.
void AddLatencies(RunOutcome& out, const std::vector<double>& turnaround_ms,
                  const std::vector<double>& first_result_ms) {
  const int tail = HighestSupportedPercentile(turnaround_ms.size());
  auto& m = out.metrics;
  m["turnaround_ms"] = {Mean(turnaround_ms), "ms"};
  m["first_result_ms"] = {Mean(first_result_ms), "ms"};
  m["turnaround_p50_ms"] = {Median(turnaround_ms), "ms"};
  m["turnaround_p75_ms"] = {Quantile(turnaround_ms, 0.75), "ms"};
  m["turnaround.samples"] = {static_cast<double>(turnaround_ms.size()),
                             "count"};
  m["turnaround.tail_percentile"] = {static_cast<double>(tail), "count"};
  m["turnaround.tail_ms"] = {Quantile(turnaround_ms, tail / 100.0), "ms"};
}

struct Logged {
  std::string digest;
  std::uint64_t experiments = 0;
  std::uint64_t failed = 0;  // rows whose tool_status is not ok
};

// A row as the equivalence suites dump it: each value encoded and
// tab-terminated, the row newline-terminated.
std::string RowText(const db::Row& row) {
  std::string text;
  for (const db::Value& value : row) {
    text += value.Encode();
    text += '\t';
  }
  return text + '\n';
}

// CRC32 over every LoggedSystemState row in table order.
Logged Digest(const db::Database& database) {
  Logged logged;
  std::string dump;
  const db::Table* table = database.FindTable(core::kLoggedSystemStateTable);
  if (table == nullptr) return logged;
  for (const db::Row& row : table->rows()) {
    dump += RowText(row);
    if (row[3].AsText() == "reference") continue;
    ++logged.experiments;
    if (row[6].AsText() != core::kToolStatusOk) ++logged.failed;
  }
  logged.digest = StrFormat("%08x", Crc32(dump));
  return logged;
}

std::map<std::string, std::uint64_t> Taxonomy(
    const core::CampaignAnalysis& analysis) {
  return {{"total", analysis.total},
          {"detected", analysis.detected},
          {"escaped", analysis.escaped},
          {"latent", analysis.latent},
          {"overwritten", analysis.overwritten},
          {"not_injected", analysis.not_injected},
          {"tool_incomplete", analysis.tool_incomplete}};
}

// ---- campaign workloads ---------------------------------------------------

// The checkpoint stride the mission campaign uses: a tenth of its
// reference run.
Result<std::uint64_t> MissionStride() {
  target::ThorRdTarget target;
  ASSIGN_OR_RETURN(target::WorkloadSpec workload,
                   target::GetBuiltinWorkload("engine_control"));
  RETURN_IF_ERROR(target.SetWorkload(std::move(workload)));
  target::ExperimentSpec spec;
  spec.name = "stride/reference";
  spec.technique = target::Technique::kSwifiRuntime;
  spec.termination = {0, kMissionIterations};
  target.set_experiment(spec);
  RETURN_IF_ERROR(target.MakeReferenceRun());
  return std::max<std::uint64_t>(1, target.observation().instructions / 10);
}

// Round `round`'s campaign. Each round draws its own campaign seed from
// the run's, so a run's medians cover many fault samples rather than
// one: the serial and sharded workloads still run identical campaigns.
core::CampaignConfig CampaignFor(const RunOptions& options,
                                 std::uint64_t mission_stride,
                                 std::size_t round) {
  core::CampaignConfig config;
  config.seed = DeriveStreamSeed(options.seed, round);
  if (options.workload == "swifi_fork_mission") {
    config.name = "mission";
    config.workload = "engine_control";
    config.technique = target::Technique::kSwifiRuntime;
    config.num_experiments =
        static_cast<std::uint32_t>(SizeFor(kMissionExperiments, options));
    config.termination = {0, kMissionIterations};
    config.checkpoint_mode = true;
    config.checkpoint_stride = mission_stride;
  } else {
    // One stored campaign for both SCIFI workloads: experiment names
    // carry the campaign name, so serial and sharded rows can match.
    config.name = "regs";
    config.workload = "isort";
    config.location_filters = {"cpu.regs.*"};
    config.num_experiments =
        static_cast<std::uint32_t>(SizeFor(kScifiExperiments, options));
  }
  return config;
}

// PrepareCampaignRun on a throwaway copy of the stored campaign: load,
// static analysis, reference run and checkpoint recording.
Result<double> MeasureSetup(const core::CampaignConfig& config) {
  db::Database database;
  RETURN_IF_ERROR(core::CreateGoofiSchema(database));
  RETURN_IF_ERROR(StoreForRun(database, config));
  ASSIGN_OR_RETURN(auto target, MakeTarget(config.target, config.workload));
  const auto begin = Clock::now();
  ASSIGN_OR_RETURN(const core::PreparedCampaign prepared,
                   core::PrepareCampaignRun(database, target.get(),
                                            config.name, false));
  return SecondsBetween(begin, Clock::now());
}

// Replays experiments of the logged campaign directly on a plain target
// — no supervision, no sharding, no checkpoint fork — and requires the
// row each replay logs to equal the logged one byte for byte.
Status SpotCheck(const core::CampaignConfig& config,
                 const db::Database& results) {
  db::Database database;
  RETURN_IF_ERROR(core::CreateGoofiSchema(database));
  target::ThorRdTarget target;
  RETURN_IF_ERROR(core::RegisterTargetSystem(database, target, "replay", ""));
  RETURN_IF_ERROR(core::StoreCampaign(database, config));
  ASSIGN_OR_RETURN(const core::PreparedCampaign prepared,
                   core::PrepareCampaignRun(database, &target, config.name,
                                            false, /*checkpoint_override=*/
                                            false));
  const core::ExperimentPlan plan = prepared.MakePlan();
  const db::Table* logged = results.FindTable(core::kLoggedSystemStateTable);
  const db::Table* replayed =
      database.FindTable(core::kLoggedSystemStateTable);
  std::uint64_t resamples = 0;
  for (std::size_t k = 0; k < kSpotChecks; ++k) {
    const std::size_t index = k * config.num_experiments / kSpotChecks;
    ASSIGN_OR_RETURN(const target::ExperimentSpec spec,
                     core::SampleExperimentSpec(plan, index, &resamples));
    target.set_experiment(spec);
    target.set_logging_mode(config.logging_mode);
    target.set_start_snapshot(nullptr);
    RETURN_IF_ERROR(target.RunExperiment());
    const target::Observation observation = target.TakeObservation();
    RETURN_IF_ERROR(core::LogExperimentObservation(
        database, spec.name, "", config.name, &spec, &observation, nullptr));
    const auto a = logged->FindByUnique(0, db::Value::Text_(spec.name));
    const auto b = replayed->FindByUnique(0, db::Value::Text_(spec.name));
    if (!a.has_value() || !b.has_value() ||
        RowText(logged->row(*a)) != RowText(replayed->row(*b))) {
      return DataLossError("experiment " + spec.name +
                           " differs from its direct replay");
    }
  }
  return Status::Ok();
}

struct Round {
  std::int64_t begin_ns = 0;  // Run() called
  double run_s = 0.0;
  double turnaround_s = 0.0;
  double first_result_s = 0.0;
  double bytes = 0.0;  // the results directory
  std::vector<double> reopen_s;
  // Reopen plus analysis: what `goofi_tool analyze` pays.
  std::vector<double> analyze_s;
  std::vector<double> progress_gaps_us;
  Logged logged;
  std::map<std::string, std::uint64_t> taxonomy;
};

// One `goofi_tool run` of the stored campaign into a fresh WAL results
// directory, then the reads every `goofi_tool analyze` pays: reopen
// (WAL recovery) and the §3.4 analysis. Then, untimed, the spot check of
// the logged rows. `reopened` receives the reopened database.
Result<Round> RunRound(const core::CampaignConfig& config, std::size_t jobs,
                       const fs::path& dir, bool trace,
                       std::optional<db::Database>* reopened) {
  Round round;
  const std::string dir_text = dir.string();
  {
    db::Database database;
    RETURN_IF_ERROR(database.AttachWal(
        dir_text, trace ? TracingWalFactory() : db::wal::WalFileFactory()));
    RETURN_IF_ERROR(core::CreateGoofiSchema(database));
    RETURN_IF_ERROR(database.Commit());
    RETURN_IF_ERROR(StoreForRun(database, config));
    ASSIGN_OR_RETURN(const core::CampaignConfig loaded,
                     core::LoadCampaign(database, config.name));
    ASSIGN_OR_RETURN(auto target, MakeTarget(loaded.target, loaded.workload));
    const target::TargetFactory factory = [name = loaded.target] {
      return MakeTarget(name, "");
    };
    const std::size_t first_result =
        FirstResultExperiments(config.num_experiments);
    std::int64_t begin_ns = 0;
    std::int64_t last_ns = 0;
    const auto on_progress = [&](core::ProgressInfo info) {
      const std::int64_t now = NowNs();
      if (info.experiments_done == first_result) {
        round.first_result_s = (now - begin_ns) / 1e9;
      }
      if (last_ns != 0) round.progress_gaps_us.push_back((now - last_ns) / 1e3);
      last_ns = now;
    };

    const auto begin = Clock::now();
    begin_ns = Ns(begin);
    round.begin_ns = begin_ns;
    Result<core::CampaignSummary> summary = [&] {
      if (jobs > 1) {
        core::ParallelCampaignRunner runner(&database, factory, jobs);
        runner.set_progress_callback(on_progress);
        runner.set_checkpoint(dir_text, service::kCommitEveryExperiments);
        return runner.Run(config.name);
      }
      core::CampaignRunner runner(&database, target.get());
      runner.set_target_factory(factory);
      runner.set_progress_callback(on_progress);
      runner.set_checkpoint(dir_text, service::kCommitEveryExperiments);
      return runner.Run(config.name);
    }();
    const auto run_end = Clock::now();
    RETURN_IF_ERROR(summary.status());
    RETURN_IF_ERROR(database.Persist(dir_text));
    round.run_s = SecondsBetween(begin, run_end);
    round.turnaround_s = SecondsBetween(begin, Clock::now());
    round.logged = Digest(database);
  }
  round.bytes = static_cast<double>(DirectoryBytes(dir));
  for (int sample = 0; sample < kReopenSamples; ++sample) {
    const auto begin = Clock::now();
    ASSIGN_OR_RETURN(db::Database database, db::Database::Open(dir_text));
    const auto opened = Clock::now();
    ASSIGN_OR_RETURN(const core::CampaignAnalysis analysis,
                     core::AnalyzeCampaign(database, config.name, false));
    round.reopen_s.push_back(SecondsBetween(begin, opened));
    round.analyze_s.push_back(SecondsBetween(begin, Clock::now()));
    round.taxonomy = Taxonomy(analysis);
    if (sample + 1 == kReopenSamples) reopened->emplace(std::move(database));
  }
  RETURN_IF_ERROR(SpotCheck(config, **reopened));
  return round;
}

// The campaign run by the serial runner on a plain target: the rows any
// worker count must reproduce.
Result<std::string> SerialDigest(const core::CampaignConfig& config) {
  db::Database database;
  RETURN_IF_ERROR(core::CreateGoofiSchema(database));
  target::ThorRdTarget target;
  RETURN_IF_ERROR(core::RegisterTargetSystem(database, target, "serial", ""));
  RETURN_IF_ERROR(core::StoreCampaign(database, config));
  core::CampaignRunner runner(&database, &target);
  RETURN_IF_ERROR(runner.Run(config.name).status());
  return Digest(database).digest;
}

struct Replay {
  std::vector<double> sample_us;
  std::vector<double> log_row_us;
};

// The writer's per-row work in isolation: sample each logged
// experiment's spec again and log its stored observation into a fresh
// WAL database (traced log file, runner cadence).
Result<Replay> ReplayLogging(const core::CampaignConfig& config,
                             const db::Database& results,
                             const fs::path& dir) {
  db::Database database;
  RETURN_IF_ERROR(database.AttachWal(dir.string(), TracingWalFactory(true)));
  RETURN_IF_ERROR(core::CreateGoofiSchema(database));
  RETURN_IF_ERROR(StoreForRun(database, config));
  ASSIGN_OR_RETURN(auto target, MakeTarget(config.target, config.workload));
  ASSIGN_OR_RETURN(const core::PreparedCampaign prepared,
                   core::PrepareCampaignRun(database, target.get(),
                                            config.name, false));
  RETURN_IF_ERROR(database.Commit());
  const core::ExperimentPlan plan = prepared.MakePlan();
  const db::Table* logged = results.FindTable(core::kLoggedSystemStateTable);
  Replay replay;
  std::uint64_t resamples = 0;
  for (std::size_t i = 0; i < config.num_experiments; ++i) {
    const std::string name = core::ExperimentName(config.name, i);
    const auto row = logged->FindByUnique(0, db::Value::Text_(name));
    if (!row.has_value() || logged->row(*row)[4].is_null()) continue;
    ASSIGN_OR_RETURN(
        const target::Observation observation,
        target::Observation::Deserialize(logged->row(*row)[4].AsText()));
    const std::int64_t t0 = NowNs();
    ASSIGN_OR_RETURN(const target::ExperimentSpec spec,
                     core::SampleExperimentSpec(plan, i, &resamples));
    const std::int64_t t1 = NowNs();
    RETURN_IF_ERROR(core::LogExperimentObservation(
        database, spec.name, "", config.name, &spec, &observation, nullptr));
    const std::int64_t t2 = NowNs();
    replay.sample_us.push_back((t1 - t0) / 1e3);
    replay.log_row_us.push_back((t2 - t1) / 1e3);
    if (replay.log_row_us.size() % service::kCommitEveryExperiments == 0) {
      RETURN_IF_ERROR(database.Commit());
    }
  }
  RETURN_IF_ERROR(database.Commit());
  return replay;
}

// How long a campaign requested at `requested_ns` waited for its first
// experiment to start, from the traced target's spans.
void AddStartWait(const std::vector<SpanBuffer>& spans,
                  const std::string& campaign, std::int64_t requested_ns,
                  std::vector<double>& wait_ms) {
  const std::int64_t first =
      FirstExperimentStart(spans, campaign, requested_ns);
  if (first >= 0) wait_ms.push_back((first - requested_ns) / 1e6);
}

// Per-layer metrics of a traced run: the spans of the measured phase,
// then the replay pass, whose log-file spans are added to them.
void AddLayerMetrics(RunOutcome& out, const TraceTotals& totals,
                     const Replay& replay) {
  for (SpanBuffer& buffer : TraceStore::Instance().Take()) {
    const bool replay_log =
        !buffer.spans.empty() && buffer.spans.front().replay;
    if (replay_log) out.spans.push_back(std::move(buffer));
  }
  const TraceReport report = Aggregate(out.spans, totals);
  out.metrics.insert(report.metrics.begin(), report.metrics.end());
  out.metrics["trace.reconcile_share"] = {report.reconcile_share, "fraction"};
  out.metrics["trace.spans"] = {static_cast<double>(report.spans), "count"};
  out.metrics["core.sample_us.p50"] = {Median(replay.sample_us), "us"};
  out.metrics["core.log_row_us.p50"] = {Median(replay.log_row_us), "us"};
}

RunOutcome RunCampaignWorkload(const RunOptions& options) {
  RunOutcome out;
  const std::size_t jobs = options.workload == "scifi_sharded" ? 3 : 1;
  std::uint64_t stride = 0;
  if (options.workload == "swifi_fork_mission") {
    const Result<std::uint64_t> computed = MissionStride();
    if (!Check(out, computed.status(), "mission reference run")) return out;
    stride = *computed;
  }
  TempRoot root(TempBase());

  // Set-up is sampled before every round, so that its median spans the
  // run like the other metrics. Traced runs skip it: its reference runs
  // would land in the spans of the measured phase.
  std::vector<double> setup_s;
  const auto measure_setup = [&] {
    for (int sample = 0; !options.trace && sample < kSetupSamplesPerRound;
         ++sample) {
      const Result<double> seconds =
          MeasureSetup(CampaignFor(options, stride, setup_s.size()));
      if (!Check(out, seconds.status(), "set-up")) return false;
      setup_s.push_back(*seconds);
    }
    return true;
  };

  std::vector<Round> rounds;
  core::CampaignConfig config;
  std::optional<db::Database> reopened;
  const auto begin = Clock::now();
  double last_round_s = 0.0;
  while (rounds.size() < kMinRounds ||
         SecondsBetween(begin, Clock::now()) + last_round_s <=
             options.seconds) {
    const auto round_begin = Clock::now();
    if (!measure_setup()) return out;
    const fs::path dir = root.path() / StrFormat("round%zu", rounds.size());
    config = CampaignFor(options, stride, rounds.size());
    Result<Round> round = RunRound(config, jobs, dir, options.trace,
                                   &reopened);
    if (!Check(out, round.status(), "campaign round")) return out;
    std::printf("  round %zu: %llu experiments in %.6f s, turnaround %.6f s, "
                "first result %.6f s, reopen %.6f s, analyze %.6f s\n",
                rounds.size(),
                static_cast<unsigned long long>(round->logged.experiments),
                round->run_s, round->turnaround_s, round->first_result_s,
                Median(round->reopen_s), Median(round->analyze_s));
    rounds.push_back(std::move(*round));
    std::error_code ec;
    fs::remove_all(dir, ec);
    last_round_s = SecondsBetween(round_begin, Clock::now());
  }
  const double peak_rss_mb = PeakRssMb();
  if (options.trace) out.spans = TraceStore::Instance().Take();
  while (!options.trace && setup_s.size() < kSetupSamples) {
    if (!measure_setup()) return out;
  }

  std::vector<double> turnaround_ms, first_result_ms;
  std::vector<double> reopen_s, analyze_s, progress_gaps_us;
  double run_wall_s = 0.0;
  double bytes = 0.0;
  std::uint64_t experiments = 0;
  for (const Round& round : rounds) {
    experiments += round.logged.experiments;
    run_wall_s += round.run_s;
    bytes += round.bytes;
    turnaround_ms.push_back(1e3 * round.turnaround_s);
    first_result_ms.push_back(1e3 * round.first_result_s);
    reopen_s.insert(reopen_s.end(), round.reopen_s.begin(),
                    round.reopen_s.end());
    analyze_s.insert(analyze_s.end(), round.analyze_s.begin(),
                     round.analyze_s.end());
    progress_gaps_us.insert(progress_gaps_us.end(),
                            round.progress_gaps_us.begin(),
                            round.progress_gaps_us.end());
    out.attempted += config.num_experiments;
    out.failed += round.logged.failed +
                  (config.num_experiments - round.logged.experiments);
  }
  // Round 0's campaign is the one the oracle and the serial reference
  // know.
  out.digest = rounds.front().logged.digest;
  out.taxonomy = rounds.front().taxonomy;
  const double logged =
      static_cast<double>(std::max<std::uint64_t>(1, experiments));
  auto& m = out.metrics;
  m["exps_per_s"] = {static_cast<double>(experiments) / run_wall_s, "1/s"};
  if (!setup_s.empty()) m["setup_s"] = {Median(setup_s), "s"};
  m["analyze_s"] = {Mean(analyze_s), "s"};
  m["db.reopen_ms"] = {1e3 * Mean(reopen_s), "ms"};
  m["db_bytes_per_exp"] = {bytes / logged, "B"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  AddLatencies(out, turnaround_ms, first_result_ms);
  m["rounds"] = {static_cast<double>(rounds.size()), "count"};
  m["core.progress_gap_us.p50"] = {Median(progress_gaps_us), "us"};
  m["core.progress_gap_us.p99"] = {Quantile(progress_gaps_us, 0.99), "us"};

  if (jobs > 1) {
    const Result<std::string> serial =
        SerialDigest(CampaignFor(options, stride, 0));
    if (Check(out, serial.status(), "serial reference run")) {
      Check(out, *serial == out.digest,
            "sharded rows differ from the serial runner's (" + *serial +
                " vs " + out.digest + ")");
    }
  }
  if (options.trace) {
    const Result<Replay> replay =
        ReplayLogging(config, *reopened, root.path() / "replay");
    if (!Check(out, replay.status(), "logging replay")) return out;
    std::vector<double> start_wait_ms;
    for (const Round& round : rounds) {
      AddStartWait(out.spans, config.name, round.begin_ns, start_wait_ms);
    }
    m["core.start_wait_ms.p50"] = {Median(start_wait_ms), "ms"};
    TraceTotals totals;
    totals.experiments = experiments;
    totals.loop_wall_s = run_wall_s;
    totals.workers = jobs;
    totals.replay_rows = replay->log_row_us.size();
    AddLayerMetrics(out, totals, *replay);
    m["trace.exps_per_s"] = m["exps_per_s"];
  }
  return out;
}

// ---- goofi_serve ----------------------------------------------------------

std::string ServeIni(const std::string& name, std::uint64_t seed,
                     std::size_t experiments) {
  return StrFormat(
      "[campaign]\nname = %s\ntarget = thor_rd\ntechnique = scifi\n"
      "workload = fib\nexperiments = %zu\nseed = %llu\n"
      "location[] = cpu.regs.*\njobs = %zu\n",
      name.c_str(), experiments, static_cast<unsigned long long>(seed),
      kServeCampaignJobs);
}

// A socket path short enough for sun_path, however deep the checkout.
std::string SocketPath(const fs::path& path) {
  std::error_code ec;
  const fs::path relative = fs::relative(path, ec);
  return !ec && relative.string().size() < path.string().size()
             ? relative.string()
             : path.string();
}

service::ServiceConfig ServeConfig(const fs::path& root) {
  service::ServiceConfig config;
  config.root = root.string();
  config.fleet_workers = kServeFleet;
  config.max_campaign_jobs = kServeCampaignJobs;
  // Deep enough that an open loop at half the fleet's capacity is never
  // refused; a refusal counts as a failed submission.
  config.queue_limit = 64;
  return config;
}

struct Daemon {
  std::unique_ptr<service::ServiceCore> core;
  std::unique_ptr<service::ServiceServer> server;

  void Stop() {
    if (server != nullptr) server->Shutdown();
    if (core != nullptr) core->Drain();
    server.reset();
    core.reset();
  }
};

// ServiceCore::Start + ServiceServer::Start, as goofi_serve starts.
Result<Daemon> StartDaemon(const fs::path& root, const std::string& socket) {
  Daemon daemon;
  ASSIGN_OR_RETURN(daemon.core, service::ServiceCore::Start(ServeConfig(root)));
  ASSIGN_OR_RETURN(daemon.server, service::ServiceServer::Start(
                                      daemon.core.get(), socket, nullptr));
  return daemon;
}

struct Submission {
  std::string name;
  std::string ini;
  Clock::time_point due;
  Clock::time_point submitted;
  std::uint64_t id = 0;
  bool accepted = false;
  bool done = false;
  bool failed = false;
  std::optional<double> queue_wait_ms;
  std::optional<double> first_result_ms;
  double turnaround_ms = 0.0;
  // Read back as soon as the campaign completed, the way its user would
  // run `goofi_tool analyze` on the finished results.
  bool read_back = false;
  double bytes = 0.0;
  double reopen_s = 0.0;
  double analyze_s = 0.0;  // reopen plus analysis
  Logged logged;
};

// The campaign a submission's ini describes, parsed as the daemon's
// executor parses it.
Result<core::CampaignConfig> ParseServeIni(const std::string& ini) {
  ASSIGN_OR_RETURN(const Config file, Config::Parse(ini));
  const ConfigSection* section = file.FindSection("campaign");
  if (section == nullptr) return InvalidArgumentError("no [campaign]");
  return core::ParseCampaignConfig(*section);
}

// Reopens a finished campaign's results directory and analyzes it,
// timing both; `database` and `taxonomy` receive what was read.
Status ReadBack(const fs::path& dir, Submission& submission,
                std::optional<db::Database>* database,
                std::map<std::string, std::uint64_t>* taxonomy) {
  submission.bytes = static_cast<double>(DirectoryBytes(dir));
  const auto begin = Clock::now();
  ASSIGN_OR_RETURN(db::Database opened, db::Database::Open(dir.string()));
  const auto reopened = Clock::now();
  ASSIGN_OR_RETURN(const core::CampaignAnalysis analysis,
                   core::AnalyzeCampaign(opened, submission.name, false));
  submission.reopen_s = SecondsBetween(begin, reopened);
  submission.analyze_s = SecondsBetween(begin, Clock::now());
  submission.logged = Digest(opened);
  submission.read_back = true;
  *taxonomy = Taxonomy(analysis);
  database->emplace(std::move(opened));
  return Status::Ok();
}

RunOutcome RunServeWorkload(const RunOptions& options) {
  RunOutcome out;
  TempRoot root(TempBase());
  const std::size_t experiments = SizeFor(kServeExperiments, options);
  const std::size_t first_result = FirstResultExperiments(experiments);
  const std::size_t count =
      options.smoke ? kSmokeSubmissions
                    : std::max<std::size_t>(
                          3, static_cast<std::size_t>(
                                 options.seconds /
                                 std::chrono::duration<double>(kServeInterval)
                                     .count()));

  // Throwaway daemon starts on fresh roots. Mostly file creation and
  // thread starts, they vary tenfold with the host's load within
  // minutes, so they are printed but not bounded.
  std::vector<double> start_ms;
  for (std::size_t sample = 0; !options.trace && sample < kDaemonStarts;
       ++sample) {
    const fs::path dir = root.path() / StrFormat("start%zu", sample);
    const auto begin = Clock::now();
    Result<Daemon> daemon =
        StartDaemon(dir, SocketPath(dir.string() + ".sock"));
    const double seconds = SecondsBetween(begin, Clock::now());
    if (!Check(out, daemon.status(), "daemon start")) return out;
    daemon->Stop();
    start_ms.push_back(1e3 * seconds);
  }

  // The set-up the daemon's executor pays for every submission before
  // its first experiment, sampled as each one is submitted.
  std::vector<double> setup_s;
  const auto measure_setup = [&](const std::string& ini) {
    const Result<core::CampaignConfig> config = ParseServeIni(ini);
    if (!Check(out, config.status(), "submission ini")) return false;
    for (int sample = 0; !options.trace && sample < kSetupSamplesPerRound;
         ++sample) {
      const Result<double> seconds = MeasureSetup(*config);
      if (!Check(out, seconds.status(), "set-up")) return false;
      setup_s.push_back(*seconds);
    }
    return true;
  };

  const fs::path serve_root = root.path() / "serve";
  const std::string socket = SocketPath(root.path() / "serve.sock");
  Result<Daemon> daemon = StartDaemon(serve_root, socket);
  if (!Check(out, daemon.status(), "daemon start")) return out;
  Result<UnixSocket> client = UnixSocket::Connect(socket);
  if (!Check(out, client.status(), "connect")) return out;
  std::vector<double> submit_rpc_us, status_rpc_us, late_ms;
  const auto rpc = [&](const std::string& frame,
                       std::vector<double>* latency) -> Result<std::string> {
    const std::int64_t begin = NowNs();
    RETURN_IF_ERROR(client->SendFrame(frame));
    ASSIGN_OR_RETURN(const std::string reply, client->RecvFrame());
    latency->push_back((NowNs() - begin) / 1e3);
    return service::ParseResponse(reply);
  };

  std::vector<Submission> submissions(count);
  const Clock::time_point start = Clock::now() + 10ms;
  for (std::size_t i = 0; i < count; ++i) {
    submissions[i].name = StrFormat("serve%03zu", i);
    submissions[i].ini = ServeIni(submissions[i].name,
                                  DeriveStreamSeed(options.seed, i),
                                  experiments);
    submissions[i].due = start + i * kServeInterval;
  }
  std::map<std::uint64_t, Submission*> by_id;
  std::optional<db::Database> first_db;
  std::size_t next = 0;
  std::size_t finished = 0;
  // Fleet workers allocated to running campaigns, integrated over the
  // polls: the fleet time the campaigns cost.
  double busy_worker_s = 0.0;
  std::size_t last_jobs_in_use = 0;
  Clock::time_point last_poll = start;
  Clock::time_point last_completion = start;
  const Clock::time_point deadline =
      start + count * kServeInterval + std::chrono::seconds(120);
  while (finished < count) {
    const Clock::time_point now = Clock::now();
    if (now > deadline) {
      Check(out, false, "submissions still unfinished at the deadline");
      break;
    }
    if (next < count && now >= submissions[next].due) {
      Submission& submission = submissions[next++];
      late_ms.push_back(1e3 * SecondsBetween(submission.due, now));
      submission.submitted = now;
      const Result<std::string> reply =
          rpc("submit\n" + submission.ini, &submit_rpc_us);
      unsigned long long id = 0;
      if (reply.ok() && std::sscanf(reply->c_str(), "id %llu", &id) == 1) {
        submission.id = id;
        submission.accepted = true;
        by_id[id] = &submission;
      } else {
        submission.done = submission.failed = true;
        ++finished;
      }
      if (!measure_setup(submission.ini)) break;
      continue;
    }
    const Result<std::string> listing = rpc("status", &status_rpc_us);
    if (!Check(out, listing.status(), "status poll")) break;
    const Clock::time_point seen = Clock::now();
    std::istringstream lines(*listing);
    std::string line;
    std::size_t jobs_in_use = 0;
    while (std::getline(lines, line)) {
      unsigned long long id = 0;
      char name[128];
      char state[32];
      std::size_t done = 0;
      std::size_t total = 0;
      std::size_t jobs = 0;
      if (std::sscanf(line.c_str(), "%llu %127s %31s %zu/%zu jobs=%zu", &id,
                      name, state, &done, &total, &jobs) != 6) {
        continue;
      }
      const auto found = by_id.find(id);
      if (found == by_id.end() || found->second->done) continue;
      Submission& submission = *found->second;
      const std::string status = state;
      const double since_due_ms = 1e3 * SecondsBetween(submission.due, seen);
      if (status != service::kStateQueued && !submission.queue_wait_ms) {
        submission.queue_wait_ms =
            1e3 * SecondsBetween(submission.submitted, seen);
      }
      if (status == service::kStateRunning) jobs_in_use += jobs;
      if ((done >= first_result || status == service::kStateCompleted) &&
          !submission.first_result_ms) {
        submission.first_result_ms = since_due_ms;
      }
      if (status == service::kStateCompleted ||
          status == service::kStateFailed ||
          status == service::kStateCancelled) {
        submission.done = true;
        submission.failed = status != service::kStateCompleted;
        submission.turnaround_ms = since_due_ms;
        last_completion = seen;
        ++finished;
      }
      if (status == service::kStateCompleted) {
        std::optional<db::Database> database;
        std::map<std::string, std::uint64_t> taxonomy;
        const Status read = ReadBack(serve_root / "campaigns" / submission.name,
                                     submission, &database, &taxonomy);
        if (Check(out, read, "read back " + submission.name) &&
            &submission == &submissions.front()) {
          out.digest = submission.logged.digest;
          out.taxonomy = std::move(taxonomy);
          first_db = std::move(database);
        }
      }
    }
    busy_worker_s += static_cast<double>(last_jobs_in_use) *
                     SecondsBetween(last_poll, seen);
    last_jobs_in_use = jobs_in_use;
    last_poll = seen;
    Clock::time_point wake = Clock::now() + kPollInterval;
    if (next < count) wake = std::min(wake, submissions[next].due);
    std::this_thread::sleep_until(wake);
  }
  const double period_s = SecondsBetween(submissions.front().submitted,
                                         last_completion);
  client->Close();
  daemon->Stop();
  const double peak_rss_mb = PeakRssMb();
  if (options.trace) out.spans = TraceStore::Instance().Take();
  while (!options.trace && setup_s.size() < kSetupSamples) {
    if (!measure_setup(submissions.front().ini)) return out;
  }

  std::vector<double> turnaround_ms, first_result_ms, queue_wait_ms;
  std::vector<double> reopen_s, analyze_s;
  double bytes = 0.0;
  std::uint64_t logged_experiments = 0;
  for (const Submission& submission : submissions) {
    out.attempted += experiments;
    if (!submission.read_back) {
      out.failed += experiments;
      continue;
    }
    std::printf("  %s: turnaround %.3f ms, first result %.3f ms, reopen "
                "%.6f s, analyze %.6f s\n",
                submission.name.c_str(), submission.turnaround_ms,
                submission.first_result_ms.value_or(0.0), submission.reopen_s,
                submission.analyze_s);
    turnaround_ms.push_back(submission.turnaround_ms);
    first_result_ms.push_back(submission.first_result_ms.value_or(0.0));
    if (submission.queue_wait_ms) {
      queue_wait_ms.push_back(*submission.queue_wait_ms);
    }
    bytes += submission.bytes;
    reopen_s.push_back(submission.reopen_s);
    analyze_s.push_back(submission.analyze_s);
    logged_experiments += submission.logged.experiments;
    out.failed += submission.logged.failed +
                  (experiments - submission.logged.experiments);
  }

  // The fleet's capacity: the rate it sustains with every worker busy,
  // from the fleet time the campaigns took. The submission rate, which
  // the generator fixes, would not move with the service's speed.
  auto& m = out.metrics;
  m["exps_per_s"] = {static_cast<double>(kServeFleet) *
                         static_cast<double>(logged_experiments) /
                         busy_worker_s,
                     "1/s"};
  if (!setup_s.empty()) m["setup_s"] = {Median(setup_s), "s"};
  m["analyze_s"] = {Mean(analyze_s), "s"};
  m["db.reopen_ms"] = {1e3 * Mean(reopen_s), "ms"};
  m["db_bytes_per_exp"] = {
      bytes /
          static_cast<double>(std::max<std::uint64_t>(1, logged_experiments)),
      "B"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  AddLatencies(out, turnaround_ms, first_result_ms);
  m["submissions"] = {static_cast<double>(count), "count"};
  m["service.submit_rpc_us.p50"] = {Median(submit_rpc_us), "us"};
  m["service.submit_rpc_us.p99"] = {Quantile(submit_rpc_us, 0.99), "us"};
  m["service.status_rpc_us.p50"] = {Median(status_rpc_us), "us"};
  m["service.status_rpc_us.p99"] = {Quantile(status_rpc_us, 0.99), "us"};
  m["service.queue_wait_ms.p50"] = {Median(queue_wait_ms), "ms"};
  m["service.jobs_in_use_mean"] = {busy_worker_s / period_s, "workers"};
  if (!start_ms.empty()) m["service.start_ms"] = {Median(start_ms), "ms"};
  m["service.generator_late_ms.max"] = {
      late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end()),
      "ms"};

  if (!first_db.has_value()) {
    Check(out, false, "the first submission produced no results database");
    return out;
  }
  // The daemon's database must equal a one-shot run of the same ini.
  service::ExecutionRequest request;
  request.db_dir = (root.path() / "oneshot").string();
  request.config_text = submissions.front().ini;
  if (Check(out, service::ExecuteSubmission(request).status(),
            "one-shot run")) {
    const Result<db::Database> oneshot = db::Database::Open(request.db_dir);
    if (Check(out, oneshot.status(), "reopen one-shot")) {
      Check(out, Digest(*oneshot).digest == out.digest,
            "daemon results differ from the one-shot run's");
    }
  }
  if (options.trace) {
    const Result<core::CampaignConfig> config =
        core::LoadCampaign(*first_db, submissions.front().name);
    if (!Check(out, config.status(), "load campaign")) return out;
    const Result<Replay> replay =
        ReplayLogging(*config, *first_db, root.path() / "replay");
    if (!Check(out, replay.status(), "logging replay")) return out;
    std::vector<double> start_wait_ms;
    for (const Submission& submission : submissions) {
      AddStartWait(out.spans, submission.name, Ns(submission.due),
                   start_wait_ms);
    }
    m["core.start_wait_ms.p50"] = {Median(start_wait_ms), "ms"};
    TraceTotals totals;
    totals.experiments = logged_experiments;
    totals.loop_wall_s = period_s;
    totals.workers = kServeFleet;
    totals.db_from_replay = true;
    totals.replay_rows = replay->log_row_us.size();
    AddLayerMetrics(out, totals, *replay);
    m["trace.exps_per_s"] = m["exps_per_s"];
  }
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "scifi_serial", "scifi_sharded", "swifi_fork_mission",
      "serve_open_loop"};
  return names;
}

RunOutcome RunWorkload(const RunOptions& options) {
  if (options.trace) InstallTracedTarget();
  // Before any thread starts: the registry is unsynchronized, and the
  // daemon's executors only read it once every built-in is registered.
  core::RegisterBuiltinTargets(core::TargetRegistry::Instance());
  return options.workload == "serve_open_loop" ? RunServeWorkload(options)
                                               : RunCampaignWorkload(options);
}

}  // namespace goofi::bench
