// Shared plumbing for the experiment benches: run a campaign end to end
// and print taxonomy rows in the shape of the paper's §3.4 measures.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/goofi.h"
#include "git_sha.h"
#include "util/strings.h"

namespace goofi::bench {

struct CampaignRun {
  core::CampaignSummary summary;
  core::CampaignAnalysis analysis;
  double wall_seconds = 0.0;
};

// Store + run + analyze `config` against a fresh Thor RD target bound to
// `database`. Aborts the process on tool errors (benches have no user to
// report to). `checkpoint` forces checkpoint-fork execution on or off
// for the run (execution-only; the stored campaign row and the logged
// results are identical either way).
inline CampaignRun RunCampaign(db::Database& database,
                               target::TargetSystemInterface& target,
                               const core::CampaignConfig& config,
                               std::optional<bool> checkpoint
                               = std::nullopt) {
  auto workload = target::GetBuiltinWorkload(config.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload %s: %s\n", config.workload.c_str(),
                 workload.status().ToString().c_str());
    std::abort();
  }
  if (auto s = target.SetWorkload(*workload); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    std::abort();
  }
  if (auto s = core::RegisterTargetSystem(database, target, "bench-card",
                                          "bench board");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    std::abort();
  }
  if (auto s = core::StoreCampaign(database, config); !s.ok()) {
    std::fprintf(stderr, "store %s: %s\n", config.name.c_str(),
                 s.ToString().c_str());
    std::abort();
  }
  core::CampaignRunner runner(&database, &target);
  runner.set_checkpoint_fork(checkpoint);
  const auto begin = std::chrono::steady_clock::now();
  auto summary = runner.Run(config.name);
  const auto end = std::chrono::steady_clock::now();
  if (!summary.ok()) {
    std::fprintf(stderr, "run %s: %s\n", config.name.c_str(),
                 summary.status().ToString().c_str());
    std::abort();
  }
  auto analysis = core::AnalyzeCampaign(database, config.name);
  if (!analysis.ok()) {
    std::fprintf(stderr, "analyze %s: %s\n", config.name.c_str(),
                 analysis.status().ToString().c_str());
    std::abort();
  }
  CampaignRun run;
  run.summary = std::move(*summary);
  run.analysis = std::move(*analysis);
  run.wall_seconds =
      std::chrono::duration<double>(end - begin).count();
  return run;
}

// ---- machine-readable bench reports ------------------------------------
// Accumulates flat entries and writes BENCH_<name>.json in the working
// directory, so CI and EXPERIMENTS.md consume the same numbers the bench
// prints. Values are pre-rendered JSON tokens; the overloads cover every
// type the benches report. Every report records the host's hardware
// threads, the build type and the git sha of the sources it measured.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  BenchJson& BeginEntry() {
    entries_.emplace_back();
    return *this;
  }
  BenchJson& Field(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + Escaped(value) + "\"");
  }
  BenchJson& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  BenchJson& Field(const std::string& key, double value) {
    return Raw(key, StrFormat("%.4f", value));
  }
  BenchJson& Field(const std::string& key, std::uint64_t value) {
    return Raw(key, StrFormat("%llu",
                              static_cast<unsigned long long>(value)));
  }
  BenchJson& Field(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }

  // Writes BENCH_<name>.json; aborts on I/O failure like the rest of
  // the bench plumbing.
  void Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    std::string text =
        "{\n  \"bench\": \"" + Escaped(name_) + "\",\n" +
        StrFormat("  \"hardware_threads\": %u,\n",
                  std::thread::hardware_concurrency()) +
        "  \"build_type\": \"" GOOFI_BUILD_TYPE "\",\n"
        "  \"git_sha\": \"" GOOFI_GIT_SHA "\",\n"
        "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      text += "    {";
      for (std::size_t f = 0; f < entries_[i].size(); ++f) {
        if (f != 0) text += ", ";
        text += "\"" + Escaped(entries_[i][f].first) +
                "\": " + entries_[i][f].second;
      }
      text += i + 1 < entries_.size() ? "},\n" : "}\n";
    }
    text += "  ]\n}\n";
    out << text;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::abort();
    }
    std::printf("wrote %s (%zu entries)\n", path.c_str(), entries_.size());
  }

 private:
  static std::string Escaped(const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  BenchJson& Raw(const std::string& key, std::string token) {
    if (entries_.empty()) entries_.emplace_back();
    entries_.back().emplace_back(key, std::move(token));
    return *this;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> entries_;
};

inline void PrintTaxonomyHeader(const char* first_column) {
  std::printf(
      "%-16s %6s | %8s %8s | %8s %8s %8s | %8s %12s\n", first_column, "N",
      "detect", "escape", "latent", "overwr", "noinj", "cover", "cover95");
}

inline void PrintTaxonomyRow(const std::string& label,
                             const core::CampaignAnalysis& analysis) {
  std::printf(
      "%-16s %6zu | %8zu %8zu | %8zu %8zu %8zu | %7.1f%% [%4.1f,%5.1f]%%\n",
      label.c_str(), analysis.total, analysis.detected, analysis.escaped,
      analysis.latent, analysis.overwritten, analysis.not_injected,
      100.0 * analysis.detection_coverage.estimate,
      100.0 * analysis.detection_coverage.low,
      100.0 * analysis.detection_coverage.high);
}

}  // namespace goofi::bench
