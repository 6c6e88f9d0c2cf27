#include "service/executor.h"

#include <filesystem>
#include <memory>

#include "core/goofi.h"
#include "util/config.h"
#include "util/strings.h"

namespace goofi::service {

namespace fs = std::filesystem;

namespace {

// Same open-or-create policy as goofi_tool: a fresh directory becomes a
// WAL database with the GOOFI schema committed as its first batch.
Result<db::Database> OpenOrCreate(const std::string& dir) {
  if (fs::exists(fs::path(dir) / "wal.log") ||
      fs::exists(fs::path(dir) / "snapshot.manifest") ||
      fs::exists(fs::path(dir) / "manifest.txt")) {
    ASSIGN_OR_RETURN(db::Database database, db::Database::Open(dir));
    // A kill between AttachWal and the first commit recovers to an
    // empty database; redo the schema commit the first life never
    // landed (the same records in the same order, so the log bytes
    // stay on the one-shot trajectory).
    if (!database.HasTable(core::kCampaignDataTable)) {
      RETURN_IF_ERROR(core::CreateGoofiSchema(database));
      RETURN_IF_ERROR(database.Commit());
    }
    return database;
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

Result<core::CampaignConfig> ParseSubmissionConfig(
    const std::string& config_text, std::string* workload_file) {
  ASSIGN_OR_RETURN(const Config file, Config::Parse(config_text));
  const ConfigSection* section = file.FindSection("campaign");
  if (section == nullptr) {
    return InvalidArgumentError("submission has no [campaign] section");
  }
  ASSIGN_OR_RETURN(core::CampaignConfig config,
                   core::ParseCampaignConfig(*section));
  if (workload_file != nullptr) {
    *workload_file = section->GetStringOr("workload_file", "");
  }
  return config;
}

}  // namespace

Result<SubmissionInfo> InspectSubmission(const std::string& config_text) {
  ASSIGN_OR_RETURN(const core::CampaignConfig config,
                   ParseSubmissionConfig(config_text, nullptr));
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
  std::string workload_file;
  ASSIGN_OR_RETURN(const core::CampaignConfig config,
                   ParseSubmissionConfig(request.config_text,
                                         &workload_file));
  ASSIGN_OR_RETURN(db::Database database, OpenOrCreate(request.db_dir));

  // Resume is decided by the results database, not by daemon memory: a
  // stored campaign row means an earlier life already started this run.
  const db::Table* campaigns = database.FindTable(core::kCampaignDataTable);
  const bool resume =
      campaigns != nullptr &&
      campaigns->FindByUnique(0, db::Value::Text_(config.name)).has_value();
  if (!resume) {
    ASSIGN_OR_RETURN(auto target, MakeTarget(config.target, ""));
    RETURN_IF_ERROR(core::RegisterTargetSystem(database, *target,
                                               "goofi-tool-card", ""));
    RETURN_IF_ERROR(core::StoreCampaign(database, config));
  }

  target::TargetFactory factory = [name = config.target, workload_file]() {
    return MakeTarget(name, workload_file);
  };
  core::CampaignRunner runner(&database, factory, request.jobs);
  runner.set_controller(request.controller);
  if (request.progress) runner.set_progress_callback(request.progress);
  if (database.wal_attached()) {
    runner.set_checkpoint(request.db_dir, kCommitEveryExperiments);
  }
  ASSIGN_OR_RETURN(core::CampaignSummary summary,
                   resume ? runner.Resume(config.name)
                          : runner.Run(config.name));

  // Drain: leave the database exactly at its last cadence commit. The
  // closing Persist would flush the partial batch and shift every
  // later commit point, breaking byte-equality with one-shot runs.
  if (request.controller != nullptr &&
      request.controller->drain_requested()) {
    return summary;
  }
  RETURN_IF_ERROR(database.Persist(request.db_dir));
  return summary;
}

}  // namespace goofi::service
