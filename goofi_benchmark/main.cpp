// goofi_benchmark: the campaign benchmark of GOOFI++.
//
//   goofi_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   [--smoke] [--out DIR]
//       One run of one workload in this process. Prints every metric by
//       name and unit, then, as the last line, one JSON object with the
//       end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
//       metrics (--trace 1). With --out, appends the run's full record to
//       DIR/runs.jsonl and, when traced, writes DIR/trace_<workload>.json
//       (Chrome trace-event format). Exits 1 when a correctness check
//       fails.
//
//   goofi_benchmark --out DIR [--workload NAME] [--trials N] [--seed N]
//                   [--seconds S] [--smoke]
//       The suite: each workload (or NAME) runs --trials times untraced
//       and once traced, every run in its own child process. Writes
//       DIR/results.json (median, min and max per metric) and checks
//       that traced and untraced runs, and the serial and sharded SCIFI
//       runs, logged identical rows.
//
//   goofi_benchmark compare PARENT_DIR CHANGE_DIR
//       Pairs the untraced runs in PARENT_DIR/runs.jsonl and
//       CHANGE_DIR/runs.jsonl by workload and seed and prints one row per
//       workload: a gain, a regression beyond the metric's bound, or an
//       unresolved spread, per end-to-end metric.
#include <spawn.h>
#include <sys/wait.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "git_sha.h"
#include "json.h"
#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace goofi::bench {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 42;
constexpr double kSmokeSeconds = 0.5;
constexpr double kReconcileTolerance = 0.05;

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "higher" or "lower"
  double bound = 0.0;  // end-to-end only
};

struct BenchSpec {
  double run_seconds = 10.0;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

std::optional<Json> ReadJsonFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return Json::Parse(text.str());
}

std::optional<BenchSpec> LoadSpec() {
  const std::optional<Json> json =
      ReadJsonFile(fs::path(GOOFI_BENCH_ROOT) / "BENCHMARK.json");
  if (!json.has_value() || !json->is_object()) return std::nullopt;
  BenchSpec spec;
  spec.run_seconds = (*json)["run_seconds"].number();
  const auto read = [&](const char* list, std::vector<MetricSpec>& into) {
    for (const Json& item : (*json)[list].items()) {
      into.push_back({item["name"].str(), item["unit"].str(),
                      item["better"].str(), item["bound"].number()});
    }
  };
  read("end_to_end", spec.end_to_end);
  read("per_layer", spec.per_layer);
  return spec;
}

// Where a report's numbers came from.
struct Stamp {
  unsigned hardware_concurrency = std::thread::hardware_concurrency();
  std::string build_type = GOOFI_BUILD_TYPE;
  std::string git_sha = GOOFI_GIT_SHA;
};

Json StampJson() {
  const Stamp stamp;
  return Json::Object()
      .Set("hardware_concurrency",
           static_cast<std::uint64_t>(stamp.hardware_concurrency))
      .Set("build_type", stamp.build_type)
      .Set("git_sha", stamp.git_sha);
}

// ---- one run ---------------------------------------------------------------

struct Arguments {
  std::string command;  // "", "compare"
  std::vector<std::string> positional;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::optional<double> seconds;
  bool trace = false;
  bool smoke = false;
  std::optional<int> trials;
  std::string out_dir;
  bool bad = false;
};

Arguments ParseArguments(int argc, char** argv) {
  Arguments args;
  int i = 1;
  if (argc > 1 && std::strcmp(argv[1], "compare") == 0) {
    args.command = "compare";
    i = 2;
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
      args.bad |= !(*args.seconds > 0.0 && *args.seconds <= 3600.0);
    } else if (flag == "--trace" && has_value) {
      const std::string value = argv[++i];
      args.bad |= value != "0" && value != "1";
      args.trace = value == "1";
    } else if (flag == "--trials" && has_value) {
      args.trials = std::atoi(argv[++i]);
      args.bad |= *args.trials < 1;
    } else if (flag == "--out" && has_value) {
      args.out_dir = argv[++i];
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (!args.command.empty() && !flag.empty() && flag[0] != '-') {
      args.positional.push_back(flag);
    } else {
      args.bad = true;
    }
  }
  return args;
}

// The oracle: the default seed's digests and taxonomy counts.
void CheckOracle(const std::string& workload, RunOutcome& outcome) {
  const std::optional<Json> oracle = ReadJsonFile(
      fs::path(GOOFI_BENCH_ROOT) / "goofi_benchmark" / "oracle.json");
  const Json* expected =
      oracle.has_value() ? &(*oracle)["workloads"][workload] : nullptr;
  if (expected == nullptr || !expected->is_object()) {
    outcome.problems.push_back("no oracle entry for " + workload);
    return;
  }
  if ((*expected)["results_digest"].str() != outcome.digest) {
    outcome.problems.push_back("results digest " + outcome.digest +
                               " differs from the oracle's " +
                               (*expected)["results_digest"].str());
  }
  for (const auto& [name, count] : (*expected)["taxonomy"].members()) {
    const auto found = outcome.taxonomy.find(name);
    if (found == outcome.taxonomy.end() ||
        static_cast<double>(found->second) != count.number()) {
      outcome.problems.push_back("taxonomy count '" + name +
                                 "' differs from the oracle's");
    }
  }
}

Json MetricsJson(const std::map<std::string, Metric>& metrics) {
  Json json = Json::Object();
  for (const auto& [name, metric] : metrics) {
    json.Set(name, Json::Object().Set("value", metric.value).Set("unit",
                                                                 metric.unit));
  }
  return json;
}

int RunOne(const Arguments& args, const BenchSpec& spec) {
  RunOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  options.trace = args.trace;
  options.smoke = args.smoke;
  options.seconds =
      args.seconds.value_or(args.smoke ? kSmokeSeconds : spec.run_seconds);
  RunOutcome outcome = RunWorkload(options);
  if (args.seed == kDefaultSeed && !args.smoke && outcome.problems.empty()) {
    CheckOracle(args.workload, outcome);
  }

  // The reported set: exactly the metrics BENCHMARK.json lists for this
  // kind of run, each in its declared unit.
  Json reported = Json::Object();
  for (const MetricSpec& metric : args.trace ? spec.per_layer
                                             : spec.end_to_end) {
    const auto found = outcome.metrics.find(metric.name);
    if (found == outcome.metrics.end() || found->second.unit != metric.unit) {
      outcome.problems.push_back("metric " + metric.name + " (" +
                                 metric.unit + ") was not measured");
      continue;
    }
    reported.Set(metric.name, Json::Object()
                                  .Set("value", found->second.value)
                                  .Set("unit", metric.unit));
  }

  const Stamp stamp;
  std::printf("goofi_benchmark %s seed=%llu trace=%d (%u hardware threads, "
              "%s, %s)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              stamp.hardware_concurrency, stamp.build_type.c_str(),
              stamp.git_sha.c_str());
  for (const auto& [name, metric] : outcome.metrics) {
    std::printf("  %-44s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  results digest %s\n", outcome.digest.c_str());
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "correctness check failed: %s\n", problem.c_str());
  }
  const bool correct = outcome.problems.empty();

  if (!args.out_dir.empty()) {
    std::error_code ec;
    fs::create_directories(args.out_dir, ec);
    Json problems = Json::Array();
    for (const std::string& problem : outcome.problems) problems.Push(problem);
    Json taxonomy = Json::Object();
    for (const auto& [name, count] : outcome.taxonomy) {
      taxonomy.Set(name, count);
    }
    const Json record = Json::Object()
                            .Set("workload", args.workload)
                            .Set("seed", args.seed)
                            .Set("trace", args.trace)
                            .Set("smoke", args.smoke)
                            .Set("correct", correct)
                            .Set("problems", std::move(problems))
                            .Set("attempted", outcome.attempted)
                            .Set("failed", outcome.failed)
                            .Set("digest", outcome.digest)
                            .Set("taxonomy", std::move(taxonomy))
                            .Set("metrics", MetricsJson(outcome.metrics))
                            .Set("stamp", StampJson());
    std::ofstream runs(fs::path(args.out_dir) / "runs.jsonl",
                       std::ios::app | std::ios::binary);
    runs << record.Dump() << "\n";
    const fs::path trace_path =
        fs::path(args.out_dir) / ("trace_" + args.workload + ".json");
    if (args.trace && !WriteChromeTrace(trace_path.string(), outcome.spans)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.string().c_str());
    }
  }

  std::printf("%s\n", Json::Object()
                          .Set("correct", correct)
                          .Set("attempted", outcome.attempted)
                          .Set("failed", outcome.failed)
                          .Set("metrics", std::move(reported))
                          .Dump()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---- the suite -------------------------------------------------------------

std::vector<Json> ReadRuns(const fs::path& dir) {
  std::vector<Json> runs;
  std::ifstream in(dir / "runs.jsonl");
  std::string line;
  while (std::getline(in, line)) {
    std::optional<Json> record = Json::Parse(line);
    if (record.has_value()) runs.push_back(std::move(*record));
  }
  return runs;
}

// Runs this binary again as a child process and waits for it.
int RunChild(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  std::string self = "/proc/self/exe";
  argv.push_back(self.data());
  std::vector<std::string> copies = args;
  for (std::string& arg : copies) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                  environ) != 0) {
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int RunSuite(const Arguments& args, const BenchSpec& spec) {
  const std::vector<std::string> workloads =
      args.workload.empty() ? WorkloadNames()
                            : std::vector<std::string>{args.workload};
  const int trials = args.smoke ? 1 : args.trials.value_or(3);
  const double seconds =
      args.seconds.value_or(args.smoke ? kSmokeSeconds : spec.run_seconds);
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);
  fs::remove(fs::path(args.out_dir) / "runs.jsonl", ec);

  std::vector<std::string> problems;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  };
  for (const std::string& workload : workloads) {
    for (int trial = 0; trial <= trials; ++trial) {
      const bool traced = trial == trials;
      std::vector<std::string> child = {
          "--workload", workload, "--seed", std::to_string(args.seed),
          "--seconds", std::to_string(seconds), "--trace", traced ? "1" : "0",
          "--out", args.out_dir};
      if (args.smoke) child.push_back("--smoke");
      const int code = RunChild(child);
      check(code == 0, workload + (traced ? " traced" : " untraced") +
                           " run exited with " + std::to_string(code));
    }
  }

  // Group the records this suite wrote.
  std::map<std::string, std::vector<Json>> untraced;
  std::map<std::string, Json> traced;
  for (Json& run : ReadRuns(args.out_dir)) {
    const std::string workload = run["workload"].str();
    if (run["trace"].boolean()) {
      traced[workload] = std::move(run);
    } else {
      untraced[workload].push_back(std::move(run));
    }
  }

  Json results = Json::Object();
  results.Set("stamp", StampJson())
      .Set("seed", args.seed)
      .Set("trials", trials)
      .Set("seconds", seconds)
      .Set("smoke", args.smoke);
  Json per_workload = Json::Object();
  std::printf("\n%-20s %-28s %14s %14s %14s %4s\n", "workload", "metric",
              "median", "min", "max", "n");
  for (const std::string& workload : workloads) {
    const std::vector<Json>& runs = untraced[workload];
    const Json& trace_run = traced[workload];
    if (runs.empty() || !trace_run.is_object()) {
      check(false, workload + ": missing run records");
      continue;
    }
    Json entry = Json::Object();
    Json end_to_end = Json::Object();
    for (const MetricSpec& metric : spec.end_to_end) {
      std::vector<double> values;
      for (const Json& run : runs) {
        const Json& value = run["metrics"][metric.name]["value"];
        if (value.is_number()) values.push_back(value.number());
      }
      check(values.size() == runs.size(),
            workload + ": " + metric.name + " missing from results");
      const Summary s = Summarize(values);
      std::printf("%-20s %-28s %14.6g %14.6g %14.6g %4zu %s\n",
                  workload.c_str(), metric.name.c_str(), s.median, s.min,
                  s.max, s.n, metric.unit.c_str());
      end_to_end.Set(metric.name, Json::Object()
                                      .Set("median", s.median)
                                      .Set("min", s.min)
                                      .Set("max", s.max)
                                      .Set("n", s.n)
                                      .Set("unit", metric.unit));
    }
    Json per_layer = Json::Object();
    for (const MetricSpec& metric : spec.per_layer) {
      const Json& value = trace_run["metrics"][metric.name];
      check(value.is_object(),
            workload + ": " + metric.name + " missing from the traced run");
      if (value.is_object()) per_layer.Set(metric.name, value);
    }
    for (const Json& run : runs) {
      check(run["correct"].boolean(), workload + ": a run failed its checks");
      check(run["digest"].str() == trace_run["digest"].str(),
            workload + ": traced and untraced runs logged different rows");
    }
    check(trace_run["correct"].boolean(),
          workload + ": the traced run failed its checks");
    std::vector<double> untraced_rate;
    for (const Json& run : runs) {
      untraced_rate.push_back(run["metrics"]["exps_per_s"]["value"].number());
    }
    const double traced_rate =
        trace_run["metrics"]["exps_per_s"]["value"].number();
    const double overhead = 1.0 - traced_rate / Median(untraced_rate);
    const double reconcile =
        trace_run["metrics"]["trace.reconcile_share"]["value"].number();
    std::printf("%-20s tracing overhead %.1f%% (traced %.1f vs untraced "
                "%.1f exps/s); spans + core.gap = %.1f%% of the loop wall\n",
                workload.c_str(), 100.0 * overhead, traced_rate,
                Median(untraced_rate), 100.0 * reconcile);
    if (workload == "scifi_serial" || workload == "swifi_fork_mission") {
      check(std::fabs(reconcile - 1.0) <= kReconcileTolerance,
            workload + ": traced phases do not reconcile with the loop wall");
    }
    entry.Set("digest", trace_run["digest"])
        .Set("taxonomy", trace_run["taxonomy"])
        .Set("end_to_end", std::move(end_to_end))
        .Set("per_layer", std::move(per_layer))
        .Set("tracing_overhead", overhead)
        .Set("reconcile_share", reconcile);
    per_workload.Set(workload, std::move(entry));
  }
  if (traced.count("scifi_serial") != 0 && traced.count("scifi_sharded") != 0) {
    check(traced["scifi_serial"]["digest"].str() ==
              traced["scifi_sharded"]["digest"].str(),
          "scifi_serial and scifi_sharded logged different rows");
  }
  Json problem_list = Json::Array();
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "suite check failed: %s\n", problem.c_str());
    problem_list.Push(problem);
  }
  results.Set("workloads", std::move(per_workload))
      .Set("problems", std::move(problem_list))
      .Set("correct", problems.empty());
  std::ofstream out(fs::path(args.out_dir) / "results.json",
                    std::ios::binary | std::ios::trunc);
  out << results.Dump() << "\n";
  std::printf("wrote %s\n",
              (fs::path(args.out_dir) / "results.json").string().c_str());
  return problems.empty() ? 0 : 1;
}

// ---- compare ---------------------------------------------------------------

// Untraced full-size runs of one side: workload -> seed -> record.
using RunsBySeed = std::map<std::string, std::map<std::uint64_t, Json>>;

RunsBySeed ReadSide(const fs::path& dir) {
  RunsBySeed runs;
  for (Json& run : ReadRuns(dir)) {
    if (run["trace"].boolean() || run["smoke"].boolean()) continue;
    runs[run["workload"].str()]
        [static_cast<std::uint64_t>(run["seed"].number())] = std::move(run);
  }
  return runs;
}

int Compare(const Arguments& args, const BenchSpec& spec) {
  if (args.positional.size() != 2) {
    std::fprintf(stderr, "usage: goofi_benchmark compare PARENT_DIR "
                         "CHANGE_DIR\n");
    return 2;
  }
  RunsBySeed parent = ReadSide(args.positional[0]);
  RunsBySeed change = ReadSide(args.positional[1]);
  bool regression = false;
  for (const std::string& workload : WorkloadNames()) {
    std::vector<std::pair<const Json*, const Json*>> pairs;
    for (const auto& [seed, run] : parent[workload]) {
      const auto other = change[workload].find(seed);
      if (other != change[workload].end()) {
        pairs.emplace_back(&run, &other->second);
      }
    }
    if (pairs.empty()) continue;
    char head[64];
    std::snprintf(head, sizeof head, "%-20s %2zu pairs", workload.c_str(),
                  pairs.size());
    std::string row = head;
    double parent_failed = 0.0, change_failed = 0.0;
    double parent_attempted = 0.0, change_attempted = 0.0;
    for (const auto& [p, c] : pairs) {
      parent_failed += (*p)["failed"].number();
      parent_attempted += (*p)["attempted"].number();
      change_failed += (*c)["failed"].number();
      change_attempted += (*c)["attempted"].number();
    }
    for (const MetricSpec& metric : spec.end_to_end) {
      const bool higher = metric.better == "higher";
      std::vector<double> p_values, c_values;
      std::size_t wins = 0;
      for (const auto& [p, c] : pairs) {
        const double pv = (*p)["metrics"][metric.name]["value"].number();
        const double cv = (*c)["metrics"][metric.name]["value"].number();
        p_values.push_back(pv);
        c_values.push_back(cv);
        if (higher ? cv > pv : cv < pv) ++wins;
      }
      const Summary ps = Summarize(p_values);
      const Summary cs = Summarize(c_values);
      // Positive = the change is worse, as a share of the parent median.
      const double worse =
          ps.median != 0.0
              ? (higher ? ps.median - cs.median : cs.median - ps.median) /
                    ps.median
              : 0.0;
      const bool all_better = higher ? cs.min > ps.max : cs.max < ps.min;
      const double spread =
          ps.median != 0.0 ? (ps.q3 - ps.q1) / std::fabs(ps.median) : 0.0;
      std::string verdict;
      if (10 * wins >= 9 * pairs.size() && worse < 0.0 &&
          std::fabs(cs.median - ps.median) > ps.q3 - ps.q1) {
        verdict = "gain";
      } else if (spread > metric.bound && !all_better) {
        verdict = "unresolved";
      } else if (worse > metric.bound) {
        verdict = "REGRESSION";
        regression = true;
      } else {
        verdict = "ok";
      }
      char cell[96];
      std::snprintf(cell, sizeof cell, "  %s %s %+.1f%% (%zu/%zu wins)",
                    metric.name.c_str(), verdict.c_str(), -100.0 * worse, wins,
                    pairs.size());
      row += cell;
    }
    const bool failed_rose =
        change_failed / std::max(1.0, change_attempted) >
        parent_failed / std::max(1.0, parent_attempted);
    if (failed_rose) regression = true;
    row += failed_rose ? "  failed ROSE" : "  failed same";
    std::printf("%s\n", row.c_str());
  }
  return regression ? 1 : 0;
}

}  // namespace
}  // namespace goofi::bench

int main(int argc, char** argv) {
  using namespace goofi::bench;
  const Arguments args = ParseArguments(argc, argv);
  const std::optional<BenchSpec> spec = LoadSpec();
  if (!spec.has_value()) {
    std::fprintf(stderr, "cannot read BENCHMARK.json under %s\n",
                 GOOFI_BENCH_ROOT);
    return 2;
  }
  bool known = args.workload.empty();
  for (const std::string& name : WorkloadNames()) {
    known |= name == args.workload;
  }
  if (args.bad || !known) {
    std::fprintf(stderr,
                 "usage: goofi_benchmark --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n"
                 "       goofi_benchmark --out DIR [--workload NAME] "
                 "[--trials N] [--seed N] [--seconds S] [--smoke]\n"
                 "       goofi_benchmark compare PARENT_DIR CHANGE_DIR\n"
                 "workloads: scifi_serial scifi_sharded swifi_fork_mission "
                 "serve_open_loop\n");
    return 2;
  }
  if (args.command == "compare") return Compare(args, *spec);
  if (args.trials.has_value() || args.workload.empty()) {
    if (args.out_dir.empty()) {
      std::fprintf(stderr, "the suite needs --out DIR\n");
      return 2;
    }
    return RunSuite(args, *spec);
  }
  return RunOne(args, *spec);
}
