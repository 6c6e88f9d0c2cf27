#include "core/goofi_schema.h"

#include <string>

#include "core/campaign.h"
#include "db/sql/executor.h"

namespace goofi::core {

const char* GoofiSchemaSql() {
  // CampaignData's columns come from the campaign key table
  // (core/campaign.cpp).
  static const std::string* const sql = new std::string(R"sql(
CREATE TABLE TargetSystemData (
  target_name    TEXT PRIMARY KEY,
  test_card_name TEXT NOT NULL,
  description    TEXT
);

CREATE TABLE TargetLocation (
  location_id   INTEGER PRIMARY KEY,
  target_name   TEXT NOT NULL,
  location_name TEXT NOT NULL,
  kind          TEXT NOT NULL,
  chain         TEXT,
  width_bits    INTEGER,
  writable      INTEGER NOT NULL,
  category      TEXT,
  base          INTEGER,
  size          INTEGER,
  FOREIGN KEY (target_name) REFERENCES TargetSystemData(target_name)
);

)sql" + CampaignDataTableSql() + R"sql(
CREATE TABLE LoggedSystemState (
  experiment_name   TEXT PRIMARY KEY,
  parent_experiment TEXT INDEXED,
  campaign_name     TEXT NOT NULL INDEXED,
  experiment_data   TEXT,
  state_vector      TEXT,
  attempts          INTEGER,
  tool_status       TEXT INDEXED,
  quarantined       INTEGER,
  equiv_class       TEXT,
  equiv_weight      INTEGER,
  FOREIGN KEY (campaign_name) REFERENCES CampaignData(campaign_name),
  FOREIGN KEY (parent_experiment) REFERENCES LoggedSystemState(experiment_name)
);
)sql");
  return sql->c_str();
}

Status CreateGoofiSchema(db::Database& database) {
  if (database.HasTable(kTargetSystemDataTable) &&
      database.HasTable(kTargetLocationTable) &&
      database.HasTable(kCampaignDataTable) &&
      database.HasTable(kLoggedSystemStateTable)) {
    return Status::Ok();
  }
  const auto result = db::sql::ExecuteScript(database, GoofiSchemaSql());
  return result.ok() ? Status::Ok() : result.status();
}

}  // namespace goofi::core
