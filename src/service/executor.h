// Campaign execution for goofi_serve: one submitted campaign ini run
// (or resumed) against its own results database directory.
//
// The executor is deliberately the same flow as `goofi_tool run` — open
// or create the WAL database, register the target under the same
// "goofi-tool-card" serial, store the campaign row, run with the same
// commit cadence — so a results database produced under the daemon is
// byte-identical to one produced by a one-shot `goofi_tool run` of the
// same ini. That equality is the service's core robustness claim and
// what tests/service/restart_equivalence_test.cpp and the serve-smoke
// CI job diff.
//
// Resume is implicit: if the campaign row already exists in the results
// database (a previous daemon life was killed mid-run, leaving the last
// cadence checkpoint), the executor resumes instead of starting over.
#pragma once

#include <cstddef>
#include <string>

#include "core/runner.h"
#include "util/status.h"

namespace goofi::service {

// The runners' group-commit cadence, in experiments — identical to
// goofi_tool's so daemon-run and one-shot databases flush (and can be
// killed) at the same byte offsets.
inline constexpr std::size_t kCommitEveryExperiments = 32;

struct ExecutionRequest {
  std::string db_dir;       // results database directory
  std::string config_text;  // campaign ini (with its [campaign] section)
  // Worker allocation from the fleet scheduler (>= 1). Worker count
  // never affects the database bytes (core/runner.h's guarantee),
  // so the scheduler may allocate differently across daemon lives.
  std::size_t jobs = 1;
  core::CampaignController* controller = nullptr;  // may be null
  core::ProgressCallback progress;                 // may be empty
};

// Validate a submitted ini and extract its campaign name and requested
// jobs without running anything (what Submit() stores in the journal).
struct SubmissionInfo {
  std::string name;
  std::size_t jobs = 1;
};
Result<SubmissionInfo> InspectSubmission(const std::string& config_text);

// Run (or resume) the campaign. On a drain request the run ends at its
// last cadence commit and the final Persist is skipped — the database
// is left byte-identical to a SIGKILL at that commit, which is exactly
// the state Resume() reproduces from.
Result<core::CampaignSummary> ExecuteSubmission(
    const ExecutionRequest& request);

}  // namespace goofi::service
