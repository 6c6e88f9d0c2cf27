// Table schemas: typed columns, primary key, UNIQUE and NOT NULL
// constraints, and single-column foreign keys.
//
// The paper's Fig. 4 relies on foreign keys between TargetSystemData,
// CampaignData and LoggedSystemState to "prevent inconsistencies in the
// database ... while still being able to track all information"; the
// constraint machinery here is what enforces that.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "db/value.h"
#include "util/status.h"

namespace goofi::db {

// Declared column affinity. INTEGER columns accept INTEGER values; REAL
// columns accept INTEGER (widened) and REAL; TEXT/BLOB accept only their
// own type. ANY accepts everything (used by expression results).
enum class ColumnType { kInteger, kReal, kText, kBlob, kAny };

const char* ColumnTypeName(ColumnType type);
std::optional<ColumnType> ColumnTypeFromName(const std::string& name);

// [A-Za-z_][A-Za-z0-9_]*, the identifier rule of the SQL lexer. Table
// names must satisfy it: a table's name also names its snapshot file,
// so a name read from disk must not be able to step outside the
// database directory.
bool IsSqlIdentifier(std::string_view name);

struct Column {
  std::string name;
  ColumnType type = ColumnType::kAny;
  bool not_null = false;
  bool unique = false;       // single-column UNIQUE constraint
  bool primary_key = false;  // implies unique + not_null
  // Maintain a secondary (non-unique) hash index; consulted by the SQL
  // executor for equality predicates. Redundant on UNIQUE/PK columns.
  bool indexed = false;
};

struct ForeignKey {
  std::string column;      // referencing column in this table
  std::string ref_table;   // referenced table
  std::string ref_column;  // referenced column (must be PK or UNIQUE)
};

class TableSchema {
 public:
  TableSchema() = default;
  explicit TableSchema(std::string table_name)
      : table_name_(std::move(table_name)) {}

  const std::string& table_name() const { return table_name_; }

  // Builder-style mutators used by CREATE TABLE and the C++ API.
  Status AddColumn(Column column);
  Status AddForeignKey(ForeignKey fk);

  const std::vector<Column>& columns() const { return columns_; }
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  std::size_t column_count() const { return columns_.size(); }
  // Index of a column by name, or nullopt.
  std::optional<std::size_t> FindColumn(const std::string& name) const;
  // Index of the PRIMARY KEY column, or nullopt for rowid-only tables.
  std::optional<std::size_t> primary_key_index() const { return pk_index_; }

  // Validate a full row: arity, NOT NULL, and type affinity (with
  // INTEGER->REAL widening applied in place).
  Status CheckRow(std::vector<Value>& row) const;

  // Validate that `value` is storable in column `index` (affinity +
  // NOT NULL), widening INTEGER->REAL in place when needed.
  Status CheckValue(std::size_t index, Value& value) const;

 private:
  std::string table_name_;
  std::vector<Column> columns_;
  std::vector<ForeignKey> foreign_keys_;
  std::optional<std::size_t> pk_index_;
};

}  // namespace goofi::db
