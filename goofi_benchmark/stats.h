// Robust statistics and a per-process temp root for the campaign
// benchmark.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace goofi::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

inline std::int64_t Ns(Clock::time_point time) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             time.time_since_epoch())
      .count();
}

inline std::int64_t NowNs() { return Ns(Clock::now()); }

// Quantile `p` (0..1) of `values` by the "exclusive" method of Python's
// statistics.quantiles, so the spreads this binary reports match what a
// script computing them from the same samples gets.
inline double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double m = static_cast<double>(values.size());
  const double h = (m + 1.0) * p;
  if (h <= 1.0) return values.front();
  if (h >= m) return values.back();
  const auto lo = static_cast<std::size_t>(std::floor(h)) - 1;
  return values[lo] + (h - std::floor(h)) * (values[lo + 1] - values[lo]);
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = Median(values);
  s.q1 = Quantile(values, 0.25);
  s.q3 = Quantile(values, 0.75);
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  return s;
}

// The highest whole percentile that still has at least `tail` of the `n`
// samples above it (0 when n <= tail): the most extreme percentile a
// sample of this size supports.
inline int HighestSupportedPercentile(std::size_t n, std::size_t tail = 10) {
  if (n <= tail) return 0;
  return static_cast<int>(
      std::floor(100.0 * static_cast<double>(n - tail) /
                 static_cast<double>(n)));
}

// Peak resident memory of this process image (VmHWM). Unlike
// getrusage's ru_maxrss it starts afresh at exec, so the launcher's own
// memory never shows up in it.
inline double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

inline std::uintmax_t DirectoryBytes(const std::filesystem::path& dir) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// A directory unique to this process (mkdtemp), removed with everything
// in it when the object dies. Two benchmark processes sharing a base
// directory can never delete each other's files.
class TempRoot {
 public:
  explicit TempRoot(const std::filesystem::path& base) {
    std::error_code ec;
    std::filesystem::create_directories(base, ec);
    std::string pattern = (base / "goofi-XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      std::perror("mkdtemp");
      std::exit(2);
    }
    path_ = pattern;
  }
  ~TempRoot() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempRoot(const TempRoot&) = delete;
  TempRoot& operator=(const TempRoot&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace goofi::bench
