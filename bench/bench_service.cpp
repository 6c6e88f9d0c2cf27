// T-SERVE: the campaign-as-a-service daemon's scheduling overhead.
//
// Two questions a fleet operator asks before putting goofi_serve in
// front of their injection rig:
//
//   1. Latency — how long from `submit` until the campaign's first
//      experiment lands, including the journal commit and the
//      scheduler claim? (The interactive cost of the service layer.)
//   2. Throughput — does multiplexing N campaigns over a shared fleet
//      beat running them back to back, and what does the submission
//      journal's bookkeeping cost on top of the raw runs?
//
// Emits BENCH_service.json next to the binary for CI and EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/executor.h"
#include "service/server.h"
#include "test_util/temp_dir.h"

namespace {

namespace fs = std::filesystem;
using goofi::bench::BenchJson;
using namespace goofi;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

std::string Ini(const std::string& name, int experiments) {
  return "[campaign]\nname = " + name +
         "\ntarget = thor_rd\ntechnique = scifi\nworkload = fib\n"
         "experiments = " + std::to_string(experiments) +
         "\nseed = 17\nlocation[] = cpu.regs.*\n";
}

std::string FreshRoot(const std::string& leaf) {
  const std::string root =
      (test_util::ProcessTempDir() / ("service_" + leaf)).string();
  fs::remove_all(root);
  return root;
}

// Poll until every listed submission is terminal; returns wall seconds.
double AwaitAll(service::ServiceCore& core,
                const std::vector<std::uint64_t>& ids) {
  const auto begin = Clock::now();
  for (const std::uint64_t id : ids) {
    for (;;) {
      auto status = core.GetStatus(id);
      if (!status.ok()) {
        std::fprintf(stderr, "status %llu: %s\n",
                     static_cast<unsigned long long>(id),
                     status.status().ToString().c_str());
        std::abort();
      }
      const std::string& state = status->submission.state;
      if (state == service::kStateCompleted) break;
      if (state == service::kStateFailed ||
          state == service::kStateCancelled) {
        std::fprintf(stderr, "submission %llu ended %s\n",
                     static_cast<unsigned long long>(id), state.c_str());
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return Seconds(begin, Clock::now());
}

}  // namespace

int main() {
  BenchJson json("service");
  constexpr int kExperiments = 200;
  constexpr int kCampaigns = 4;

  // ---- 1. submit-to-first-result latency -------------------------------
  {
    const std::string root = FreshRoot("latency");
    service::ServiceConfig config;
    config.root = root;
    config.fleet_workers = 2;
    config.max_campaign_jobs = 2;
    auto core = service::ServiceCore::Start(config);
    if (!core.ok()) {
      std::fprintf(stderr, "%s\n", core.status().ToString().c_str());
      return 1;
    }
    const auto submit_begin = Clock::now();
    auto id = (*core)->Submit(Ini("latency", kExperiments));
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 1;
    }
    const double submit_seconds = Seconds(submit_begin, Clock::now());
    // First experiment observed = the service layer's full pipeline
    // (journal commit, scheduler claim, executor start) has delivered.
    double first_result_seconds = 0.0;
    for (;;) {
      auto status = (*core)->GetStatus(*id);
      if (status.ok() && status->experiments_done > 0) {
        first_result_seconds = Seconds(submit_begin, Clock::now());
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    AwaitAll(**core, {*id});
    std::printf("submit latency: %.1f ms (journal commit) / %.1f ms to "
                "first experiment\n",
                1e3 * submit_seconds, 1e3 * first_result_seconds);
    json.BeginEntry()
        .Field("measure", "submit_to_first_result")
        .Field("submit_ms", 1e3 * submit_seconds)
        .Field("first_result_ms", 1e3 * first_result_seconds);
    (*core)->Drain();
    fs::remove_all(root);
  }

  // ---- 2. sequential one-shot baseline ---------------------------------
  double sequential_seconds = 0.0;
  {
    const auto begin = Clock::now();
    for (int i = 0; i < kCampaigns; ++i) {
      const std::string dir = FreshRoot("seq" + std::to_string(i));
      service::ExecutionRequest request;
      request.db_dir = dir;
      request.config_text = Ini("seq" + std::to_string(i), kExperiments);
      auto summary = service::ExecuteSubmission(request);
      if (!summary.ok()) {
        std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
        return 1;
      }
      fs::remove_all(dir);
    }
    sequential_seconds = Seconds(begin, Clock::now());
    std::printf("sequential %d x %d experiments: %.2f s\n", kCampaigns,
                kExperiments, sequential_seconds);
  }

  // ---- 3. multiplexed over a shared fleet ------------------------------
  for (const std::size_t fleet : {2u, 4u}) {
    const std::string root = FreshRoot("fleet" + std::to_string(fleet));
    service::ServiceConfig config;
    config.root = root;
    config.fleet_workers = fleet;
    config.max_campaign_jobs = fleet;
    auto core = service::ServiceCore::Start(config);
    if (!core.ok()) {
      std::fprintf(stderr, "%s\n", core.status().ToString().c_str());
      return 1;
    }
    const auto begin = Clock::now();
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kCampaigns; ++i) {
      auto id = (*core)->Submit(
          Ini("mux" + std::to_string(i), kExperiments));
      if (!id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
        return 1;
      }
      ids.push_back(*id);
    }
    AwaitAll(**core, ids);
    const double multiplexed_seconds = Seconds(begin, Clock::now());
    const double speedup = multiplexed_seconds > 0.0
                               ? sequential_seconds / multiplexed_seconds
                               : 0.0;
    std::printf("fleet=%zu multiplexed %d campaigns: %.2f s "
                "(%.2fx vs sequential)\n",
                fleet, kCampaigns, multiplexed_seconds, speedup);
    json.BeginEntry()
        .Field("measure", "multiplexed_fleet")
        .Field("fleet_workers", static_cast<std::uint64_t>(fleet))
        .Field("campaigns", static_cast<std::uint64_t>(kCampaigns))
        .Field("experiments_each", static_cast<std::uint64_t>(kExperiments))
        .Field("sequential_s", sequential_seconds)
        .Field("multiplexed_s", multiplexed_seconds)
        .Field("speedup", speedup);
    (*core)->Drain();
    fs::remove_all(root);
  }

  json.Write();
  return 0;
}
