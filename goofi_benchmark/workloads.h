// The benchmark's four workloads. Each runs in its own process, makes
// its inputs from a seed, measures for a fixed time and checks what the
// program logged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace goofi::bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // ~1/50 of every size, for the smoke test
};

struct RunOutcome {
  std::vector<std::string> problems;  // failed correctness checks
  std::uint64_t attempted = 0;        // experiments attempted
  std::uint64_t failed = 0;           // not logged ok, or never run
  std::map<std::string, Metric> metrics;
  // CRC32 of one campaign's LoggedSystemState rows in table order (the
  // dump the equivalence suites diff) and its §3.4 taxonomy counts.
  std::string digest;
  std::map<std::string, std::uint64_t> taxonomy;
  std::vector<SpanBuffer> spans;  // traced runs: the measured phase
};

const std::vector<std::string>& WorkloadNames();

RunOutcome RunWorkload(const RunOptions& options);

}  // namespace goofi::bench
