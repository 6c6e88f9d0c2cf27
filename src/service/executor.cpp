#include "service/executor.h"

#include "core/goofi.h"

namespace goofi::service {

Result<SubmissionInfo> InspectSubmission(const std::string& config_text) {
  ASSIGN_OR_RETURN(const core::CampaignConfig config,
                   core::ParseCampaignText(config_text));
  SubmissionInfo info;
  info.name = config.name;
  info.jobs = config.jobs;
  // Campaign names become database directory names under the service
  // root; refuse anything that would escape it.
  bool valid = !config.name.empty() && config.name.front() != '.';
  for (const char ch : config.name) {
    valid = valid && ((ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '-' || ch == '_' ||
                      ch == '.');
  }
  if (!valid) {
    return InvalidArgumentError(
        "campaign name '" + config.name +
        "' must be [A-Za-z0-9._-] and not start with '.'");
  }
  return info;
}

Result<core::CampaignSummary> ExecuteSubmission(
    const ExecutionRequest& request) {
  ASSIGN_OR_RETURN(const core::CampaignConfig config,
                   core::ParseCampaignText(request.config_text));
  ASSIGN_OR_RETURN(db::Database database, core::OpenOrCreate(request.db_dir));
  // Resume is decided by the results database, not by daemon memory: a
  // stored campaign row means an earlier life already started this run.
  ASSIGN_OR_RETURN(const bool resume,
                   core::StoreCampaignOnce(database, config));

  target::TargetFactory factory = [name = config.target]() {
    return core::TargetRegistry::Instance().Create(name);
  };
  core::CampaignRunner runner(&database, factory, request.jobs);
  runner.set_controller(request.controller);
  if (request.progress) runner.set_progress_callback(request.progress);
  runner.set_checkpoint(request.db_dir, kCommitEveryExperiments);
  ASSIGN_OR_RETURN(core::CampaignSummary summary,
                   resume ? runner.Resume(config.name)
                          : runner.Run(config.name));

  // Drain: leave the database exactly at its last cadence commit. The
  // closing commit would flush the partial batch and shift every later
  // commit point, breaking byte-equality with one-shot runs.
  if (request.controller != nullptr &&
      request.controller->drain_requested()) {
    return summary;
  }
  RETURN_IF_ERROR(database.Commit());
  return summary;
}

}  // namespace goofi::service
