#include "core/campaign_database.h"

#include "core/goofi_schema.h"
#include "core/registry.h"

namespace goofi::core {

Result<db::Database> OpenOrCreate(const std::string& dir) {
  Result<db::Database> opened = db::Database::Open(dir);
  db::Database database;
  if (opened.ok()) {
    database = std::move(*opened);
    if (database.HasTable(kCampaignDataTable)) {
      return database;
    }
  } else if (opened.status().code() == ErrorCode::kNotFound) {
    RETURN_IF_ERROR(database.AttachWal(dir));
  } else {
    return opened.status();
  }
  RETURN_IF_ERROR(CreateGoofiSchema(database));
  RETURN_IF_ERROR(database.Commit());
  return database;
}

Result<bool> StoreCampaignOnce(db::Database& database,
                               const CampaignConfig& config) {
  const Result<std::string> stored =
      LoadCampaignRunStatus(database, config.name);
  if (stored.ok()) return true;
  if (stored.status().code() != ErrorCode::kNotFound) return stored.status();
  ASSIGN_OR_RETURN(auto target,
                   TargetRegistry::Instance().Create(config.target));
  RETURN_IF_ERROR(
      RegisterTargetSystem(database, *target, "goofi-tool-card", ""));
  RETURN_IF_ERROR(StoreCampaign(database, config));
  RETURN_IF_ERROR(database.Commit());
  return false;
}

}  // namespace goofi::core
