#include "db/database.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "util/strings.h"

namespace goofi::db {

namespace fs = std::filesystem;

namespace {

// The files that mark a database directory (see wal.h), and the table
// list of the retired text format: Probe() recognises it, and only
// ImportTextDirectory() reads it.
constexpr const char* kLogFile = "wal.log";
constexpr const char* kManifestFile = "snapshot.manifest";
constexpr const char* kTextManifestFile = "manifest.txt";

}  // namespace

Status Database::CreateTable(TableSchema schema) {
  if (!IsSqlIdentifier(schema.table_name())) {
    return InvalidArgumentError("table name '" + schema.table_name() +
                                "' is not an SQL identifier");
  }
  if (tables_.count(schema.table_name()) != 0) {
    return AlreadyExistsError("table '" + schema.table_name() +
                              "' already exists");
  }
  if (schema.column_count() == 0) {
    return InvalidArgumentError("table '" + schema.table_name() +
                                "' has no columns");
  }
  for (const ForeignKey& fk : schema.foreign_keys()) {
    // Self-references (LoggedSystemState.parentExperiment) are allowed.
    const bool self = fk.ref_table == schema.table_name();
    const TableSchema* parent_schema = nullptr;
    if (self) {
      parent_schema = &schema;
    } else {
      const Table* parent = FindTable(fk.ref_table);
      if (parent == nullptr) {
        return InvalidArgumentError("foreign key on '" + fk.column +
                                    "' references missing table '" +
                                    fk.ref_table + "'");
      }
      parent_schema = &parent->schema();
    }
    const auto ref_index = parent_schema->FindColumn(fk.ref_column);
    if (!ref_index) {
      return InvalidArgumentError("foreign key references missing column '" +
                                  fk.ref_table + "." + fk.ref_column + "'");
    }
    if (!parent_schema->columns()[*ref_index].unique) {
      return InvalidArgumentError(
          "foreign key must reference a PRIMARY KEY or UNIQUE column, but '" +
          fk.ref_table + "." + fk.ref_column + "' is neither");
    }
  }
  const std::string name = schema.table_name();
  tables_.emplace(name, std::make_unique<Table>(std::move(schema)));
  MarkDirty(name);
  return LogRecord(
      wal::EncodeSchemaRecord(SerializeSchema(tables_[name]->schema())));
}

Status Database::DropTable(const std::string& name) {
  if (tables_.count(name) == 0) {
    return NotFoundError("no table '" + name + "'");
  }
  for (const auto& [other_name, other] : tables_) {
    if (other_name == name) continue;
    for (const ForeignKey& fk : other->schema().foreign_keys()) {
      if (fk.ref_table == name) {
        return ConstraintViolationError("cannot drop '" + name +
                                        "': referenced by '" + other_name +
                                        "." + fk.column + "'");
      }
    }
  }
  tables_.erase(name);
  dirty_tables_.erase(name);
  table_snapshot_gen_.erase(name);
  return LogRecord(wal::EncodeDropRecord(name));
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) != 0;
}

Table* Database::FindTable(const std::string& name) {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::FindTable(const std::string& name) const {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Status Database::CheckForeignKeysForRow(const Table& table,
                                        const Row& row) const {
  for (const ForeignKey& fk : table.schema().foreign_keys()) {
    const auto col = table.schema().FindColumn(fk.column);
    const Value& value = row[*col];
    if (value.is_null()) continue;  // NULL FK = no parent required
    const Table* parent = FindTable(fk.ref_table);
    const auto ref_col = parent->schema().FindColumn(fk.ref_column);
    if (fk.ref_table == table.schema().table_name() &&
        row[*ref_col] == value) {
      continue;  // self-referencing row is its own parent
    }
    if (!parent->ContainsValue(*ref_col, value)) {
      return ConstraintViolationError(
          "foreign key violated: " + table.schema().table_name() + "." +
          fk.column + " = " + value.ToDisplayString() +
          " has no parent in " + fk.ref_table + "." + fk.ref_column);
    }
  }
  return Status::Ok();
}

bool Database::HasReferencingChild(const std::string& parent_table,
                                   const std::string& parent_column,
                                   const Value& key) const {
  if (key.is_null()) return false;
  for (const auto& [name, table] : tables_) {
    for (const ForeignKey& fk : table->schema().foreign_keys()) {
      if (fk.ref_table != parent_table || fk.ref_column != parent_column) {
        continue;
      }
      const auto col = table->schema().FindColumn(fk.column);
      for (const Row& row : table->rows()) {
        if (row[*col] == key) return true;
      }
    }
  }
  return false;
}

Status Database::Insert(const std::string& table_name, Row row) {
  Table* table = FindTable(table_name);
  if (table == nullptr) return NotFoundError("no table '" + table_name + "'");
  if (row.size() != table->schema().column_count()) {
    return InvalidArgumentError(
        StrFormat("row arity %zu does not match table '%s' with %zu columns",
                  row.size(), table_name.c_str(),
                  table->schema().column_count()));
  }
  RETURN_IF_ERROR(CheckForeignKeysForRow(*table, row));
  RETURN_IF_ERROR(table->Insert(std::move(row)));
  MarkDirty(table_name);
  // Log the stored row (after INTEGER->REAL widening), not the input.
  return LogRecord(
      wal::EncodeInsertRecord(table_name, table->rows().back()));
}

Result<std::size_t> Database::Update(
    const std::string& table_name,
    const std::function<bool(const Row&)>& predicate,
    const std::vector<ColumnUpdate>& updates) {
  Table* table = FindTable(table_name);
  if (table == nullptr) return NotFoundError("no table '" + table_name + "'");
  const TableSchema& schema = table->schema();

  // RESTRICT on parent-key changes: if an updated column is referenced by
  // some child FK and a matched row actually holds a referenced key, the
  // update is refused (changing it would orphan children).
  for (const ColumnUpdate& update : updates) {
    if (update.column >= schema.column_count()) {
      return InvalidArgumentError("column index out of range in UPDATE");
    }
    const std::string& column_name = schema.columns()[update.column].name;
    for (const std::size_t i : table->FindRows(predicate)) {
      const Value& old_value = table->row(i)[update.column];
      if (old_value == update.value) continue;
      if (HasReferencingChild(table_name, column_name, old_value)) {
        return ConstraintViolationError(
            "cannot update '" + table_name + "." + column_name + "' = " +
            old_value.ToDisplayString() + ": referenced by child rows");
      }
    }
  }
  // Child-side FK check: new FK values must have parents.
  for (const ForeignKey& fk : schema.foreign_keys()) {
    const auto col = schema.FindColumn(fk.column);
    for (const ColumnUpdate& update : updates) {
      if (update.column != *col || update.value.is_null()) continue;
      const Table* parent = FindTable(fk.ref_table);
      const auto ref_col = parent->schema().FindColumn(fk.ref_column);
      if (!parent->ContainsValue(*ref_col, update.value)) {
        return ConstraintViolationError(
            "foreign key violated by UPDATE: " + table_name + "." +
            fk.column + " = " + update.value.ToDisplayString() +
            " has no parent in " + fk.ref_table);
      }
    }
  }
  std::vector<std::pair<std::uint64_t, Row>> applied;
  ASSIGN_OR_RETURN(std::size_t count,
                   table->Update(predicate, updates, &applied));
  if (count != 0) {
    MarkDirty(table_name);
    RETURN_IF_ERROR(LogRecord(wal::EncodeUpdateRecord(table_name, applied)));
  }
  return count;
}

Result<std::size_t> Database::Delete(
    const std::string& table_name,
    const std::function<bool(const Row&)>& predicate) {
  Table* table = FindTable(table_name);
  if (table == nullptr) return NotFoundError("no table '" + table_name + "'");
  const TableSchema& schema = table->schema();

  // RESTRICT: refuse if any to-be-deleted row is referenced by a child
  // row that itself survives the delete (self-referencing tables may
  // delete whole subtrees in one call).
  const std::vector<std::size_t> doomed = table->FindRows(predicate);
  if (doomed.empty()) return std::size_t{0};
  for (const auto& [child_name, child] : tables_) {
    for (const ForeignKey& fk : child->schema().foreign_keys()) {
      if (fk.ref_table != schema.table_name()) continue;
      const auto ref_col = schema.FindColumn(fk.ref_column);
      const auto child_col = child->schema().FindColumn(fk.column);
      for (std::size_t ci = 0; ci < child->row_count(); ++ci) {
        const Row& child_row = child->row(ci);
        const Value& fk_value = child_row[*child_col];
        if (fk_value.is_null()) continue;
        // Does the child row itself die in this delete?
        if (child_name == schema.table_name() && predicate(child_row)) {
          continue;
        }
        for (const std::size_t di : doomed) {
          if (table->row(di)[*ref_col] == fk_value) {
            return ConstraintViolationError(
                "cannot delete from '" + schema.table_name() +
                "': row with " + fk.ref_column + " = " +
                fk_value.ToDisplayString() + " is referenced by '" +
                child_name + "." + fk.column + "'");
          }
        }
      }
    }
  }
  std::vector<std::uint64_t> deleted;
  const std::size_t count = table->Delete(predicate, &deleted);
  if (count != 0) {
    MarkDirty(table_name);
    RETURN_IF_ERROR(LogRecord(wal::EncodeDeleteRecord(table_name, deleted)));
  }
  return count;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

std::string SerializeSchema(const TableSchema& schema) {
  std::string out = "table " + EscapeTsvField(schema.table_name()) + "\n";
  for (const Column& column : schema.columns()) {
    out += "column\t" + EscapeTsvField(column.name) + "\t" +
           ColumnTypeName(column.type) + "\t" +
           (column.primary_key
                ? "pk"
                : (column.unique ? "unique"
                                 : (column.indexed ? "idx" : "-"))) +
           "\t" + (column.not_null ? "notnull" : "-") + "\n";
  }
  for (const ForeignKey& fk : schema.foreign_keys()) {
    out += "fk\t" + EscapeTsvField(fk.column) + "\t" +
           EscapeTsvField(fk.ref_table) + "\t" +
           EscapeTsvField(fk.ref_column) + "\n";
  }
  return out;
}

Result<TableSchema> ParseSchemaText(const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  TableSchema schema;
  bool have_name = false;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    if (StartsWith(line, "table ")) {
      const auto name = UnescapeTsvField(line.substr(6));
      if (!name) return ParseError("bad table name line");
      schema = TableSchema(*name);
      have_name = true;
      continue;
    }
    const std::vector<std::string> fields = SplitString(line, '\t');
    if (!have_name) return ParseError("schema file must start with 'table'");
    if (fields[0] == "column") {
      if (fields.size() != 5) return ParseError("bad column line: " + line);
      const auto name = UnescapeTsvField(fields[1]);
      const auto type = ColumnTypeFromName(fields[2]);
      if (!name || !type) return ParseError("bad column line: " + line);
      Column column;
      column.name = *name;
      column.type = *type;
      column.primary_key = fields[3] == "pk";
      column.unique = column.primary_key || fields[3] == "unique";
      column.indexed = fields[3] == "idx";
      column.not_null = column.primary_key || fields[4] == "notnull";
      RETURN_IF_ERROR(schema.AddColumn(std::move(column)));
    } else if (fields[0] == "fk") {
      if (fields.size() != 4) return ParseError("bad fk line: " + line);
      const auto col = UnescapeTsvField(fields[1]);
      const auto ref_table = UnescapeTsvField(fields[2]);
      const auto ref_col = UnescapeTsvField(fields[3]);
      if (!col || !ref_table || !ref_col) {
        return ParseError("bad fk line: " + line);
      }
      RETURN_IF_ERROR(schema.AddForeignKey({*col, *ref_table, *ref_col}));
    } else {
      return ParseError("unknown schema line: " + line);
    }
  }
  if (!have_name) return ParseError("empty schema file");
  return schema;
}

Result<std::vector<std::string>> TablesInDependencyOrder(
    const Database& database) {
  // Manifests list tables in creation-compatible (FK-respecting) order.
  // std::map iteration is alphabetical, which may put children before
  // parents, so order by dependency here.
  std::vector<std::string> ordered;
  std::vector<std::string> remaining = database.TableNames();
  while (!remaining.empty()) {
    bool progressed = false;
    for (auto it = remaining.begin(); it != remaining.end();) {
      const Table* table = database.FindTable(*it);
      bool deps_met = true;
      for (const ForeignKey& fk : table->schema().foreign_keys()) {
        if (fk.ref_table == *it) continue;  // self
        if (std::find(ordered.begin(), ordered.end(), fk.ref_table) ==
            ordered.end()) {
          deps_met = false;
          break;
        }
      }
      if (deps_met) {
        ordered.push_back(*it);
        it = remaining.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
    if (!progressed) {
      return InternalError("foreign key cycle between tables");
    }
  }
  return ordered;
}

Result<Database> ImportTextDirectory(const std::string& path) {
  const fs::path dir(path);
  ASSIGN_OR_RETURN(const std::string manifest,
                   wal::ReadFileBytes((dir / kTextManifestFile).string()));
  Database database;
  for (const std::string& table_name : SplitString(manifest, '\n')) {
    if (table_name.empty()) continue;
    if (!IsSqlIdentifier(table_name)) {
      return DataLossError("manifest.txt names a table '" + table_name +
                           "' that is not an SQL identifier");
    }
    auto schema_text =
        wal::ReadFileBytes((dir / (table_name + ".schema")).string());
    if (!schema_text.ok()) {
      return DataLossError("missing schema file for '" + table_name + "'");
    }
    ASSIGN_OR_RETURN(TableSchema schema, ParseSchemaText(*schema_text));
    if (schema.table_name() != table_name) {
      return DataLossError(table_name + ".schema describes table '" +
                           schema.table_name() + "'");
    }
    RETURN_IF_ERROR(database.CreateTable(std::move(schema)));

    auto rows_text =
        wal::ReadFileBytes((dir / (table_name + ".rows")).string());
    if (!rows_text.ok()) {
      return DataLossError("missing rows file for '" + table_name + "'");
    }
    std::size_t line_number = 0;
    // Self-referencing tables may list a child before its parent; defer
    // FK-failing rows and retry until a fixed point.
    std::vector<Row> deferred;
    for (const std::string& line : SplitString(*rows_text, '\n')) {
      ++line_number;
      if (line.empty()) continue;
      Row row;
      for (const std::string& field : SplitString(line, '\t')) {
        const auto raw = UnescapeTsvField(field);
        if (!raw) {
          return ParseError(StrFormat("%s.rows line %zu: bad escape",
                                      table_name.c_str(), line_number));
        }
        ASSIGN_OR_RETURN(Value value, Value::Decode(*raw));
        row.push_back(std::move(value));
      }
      Status st = database.Insert(table_name, row);
      if (!st.ok() && st.code() == ErrorCode::kConstraintViolation) {
        deferred.push_back(std::move(row));
      } else if (!st.ok()) {
        return st;
      }
    }
    while (!deferred.empty()) {
      bool progressed = false;
      std::vector<Row> still_deferred;
      for (Row& row : deferred) {
        Status st = database.Insert(table_name, row);
        if (st.ok()) {
          progressed = true;
        } else if (st.code() == ErrorCode::kConstraintViolation) {
          still_deferred.push_back(std::move(row));
        } else {
          return st;
        }
      }
      if (!progressed) {
        return DataLossError("unresolvable foreign keys while loading '" +
                             table_name + "'");
      }
      deferred = std::move(still_deferred);
    }
  }
  return database;
}

// ---------------------------------------------------------------------------
// WAL persistence
// ---------------------------------------------------------------------------

namespace {

std::string SnapshotFileName(const std::string& table,
                             std::uint64_t generation) {
  return table + "." + std::to_string(generation) + ".snap";
}

// Remove *.snap files that are not in `keep` (stale generations left by
// an interrupted compaction). Best-effort: failures are ignored.
void RemoveStaleSnapshots(const fs::path& dir,
                          const std::vector<std::string>& keep) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!EndsWith(name, ".snap")) continue;
    if (std::find(keep.begin(), keep.end(), name) != keep.end()) continue;
    std::error_code remove_ec;
    fs::remove(entry.path(), remove_ec);
  }
}

}  // namespace

Status Database::LogRecord(const std::string& payload) {
  if (wal_file_ == nullptr || replaying_) return Status::Ok();
  pending_ += wal::FrameRecord(payload);
  ++pending_records_;
  return Status::Ok();
}

Status Database::ReplayRecord(const wal::WalRecord& record) {
  switch (record.type) {
    case wal::RecordType::kSchema: {
      ASSIGN_OR_RETURN(TableSchema schema,
                       ParseSchemaText(record.schema_text));
      return CreateTable(std::move(schema));
    }
    case wal::RecordType::kInsert: {
      Table* table = FindTable(record.table);
      if (table == nullptr) {
        return DataLossError("insert replay into missing table '" +
                             record.table + "'");
      }
      // FK checks are skipped: the record was FK-validated before it was
      // logged, and replay preserves the original mutation order.
      MarkDirty(record.table);
      return table->Insert(record.row);
    }
    case wal::RecordType::kUpdate: {
      Table* table = FindTable(record.table);
      if (table == nullptr) {
        return DataLossError("update replay into missing table '" +
                             record.table + "'");
      }
      MarkDirty(record.table);
      return table->ApplyUpdateBatch(record.updates);
    }
    case wal::RecordType::kDelete: {
      Table* table = FindTable(record.table);
      if (table == nullptr) {
        return DataLossError("delete replay into missing table '" +
                             record.table + "'");
      }
      MarkDirty(record.table);
      return table->ApplyDeleteBatch(record.deletes);
    }
    case wal::RecordType::kDropTable:
      if (tables_.erase(record.table) == 0) {
        return DataLossError("drop replay of missing table '" +
                             record.table + "'");
      }
      dirty_tables_.erase(record.table);
      table_snapshot_gen_.erase(record.table);
      return Status::Ok();
    case wal::RecordType::kCommit:
      // ReadWal folds commit markers into bookkeeping; none reach here.
      return Status::Ok();
  }
  return InternalError("unhandled record type in replay");
}

Status Database::WriteSnapshots(std::uint64_t generation) const {
  ASSIGN_OR_RETURN(std::vector<std::string> ordered,
                   TablesInDependencyOrder(*this));
  for (const std::string& name : ordered) {
    const Table* table = FindTable(name);
    const std::string bytes = wal::EncodeTableSnapshot(
        SerializeSchema(table->schema()), table->rows());
    RETURN_IF_ERROR(wal::WriteFileAtomic(
        (fs::path(wal_dir_) / SnapshotFileName(name, generation)).string(),
        bytes));
  }
  return Status::Ok();
}

Status Database::AttachWal(const std::string& path,
                           wal::WalFileFactory factory) {
  if (wal_attached()) {
    return FailedPreconditionError("a WAL is already attached");
  }
  const fs::path dir(path);
  if (Probe(path).ok()) {
    return AlreadyExistsError("'" + path +
                              "' already holds a database; use Open");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return IoError("cannot create directory '" + path + "'");

  wal_dir_ = path;
  wal_factory_ = factory ? std::move(factory) : wal::OpenLogFile;
  generation_ = 0;
  commit_sequence_ = 0;
  pending_.clear();
  pending_records_ = 0;

  // Current in-memory state becomes the generation-0 snapshot; the log
  // starts empty. Order matters: snapshots, then the manifest naming
  // them, then the log — the same publish order compaction uses.
  RETURN_IF_ERROR(WriteSnapshots(0));
  ASSIGN_OR_RETURN(std::vector<std::string> ordered,
                   TablesInDependencyOrder(*this));
  RETURN_IF_ERROR(wal::WriteFileAtomic(
      (dir / kManifestFile).string(), wal::EncodeManifest(0, ordered)));
  RETURN_IF_ERROR(wal::WriteFileAtomic((dir / kLogFile).string(),
                                       wal::EncodeWalHeader(0)));
  log_bytes_ = wal::kWalHeaderSize;
  dirty_tables_.clear();
  table_snapshot_gen_.clear();
  for (const std::string& name : ordered) table_snapshot_gen_[name] = 0;
  ASSIGN_OR_RETURN(wal_file_, wal_factory_((dir / kLogFile).string()));
  return Status::Ok();
}

Status Database::OpenWalInto(const std::string& path,
                             wal::WalFileFactory factory) {
  const fs::path dir(path);
  wal_dir_ = path;
  wal_factory_ = factory ? std::move(factory) : wal::OpenLogFile;

  auto manifest_text = wal::ReadFileBytes((dir / kManifestFile).string());
  if (!manifest_text.ok()) {
    return DataLossError("'" + path + "' has a log but no snapshot manifest");
  }
  ASSIGN_OR_RETURN(wal::DecodedManifest manifest,
                   wal::DecodeManifest(*manifest_text));

  const std::string log_path = (dir / kLogFile).string();
  auto log_bytes = wal::ReadFileBytes(log_path);
  const wal::WalReadResult log =
      wal::ReadWal(log_bytes.ok() ? *log_bytes : std::string());

  // The manifest generation decides what is live. A log of the same
  // generation replays on top of the snapshots; anything else (missing
  // log, torn header, or the previous generation left by a compaction
  // crash between the manifest and log renames) means the snapshots
  // alone are the committed state and the log restarts empty.
  const bool replay_log = log.header_valid &&
                          log.generation == manifest.generation;

  replaying_ = true;
  for (std::size_t i = 0; i < manifest.tables.size(); ++i) {
    const std::string& name = manifest.tables[i];
    const std::uint64_t snap_generation = manifest.table_generations[i];
    auto snap_bytes = wal::ReadFileBytes(
        (dir / SnapshotFileName(name, snap_generation)).string());
    if (!snap_bytes.ok()) {
      replaying_ = false;
      return DataLossError("missing snapshot for table '" + name +
                           "' generation " +
                           std::to_string(snap_generation));
    }
    auto snapshot = wal::DecodeTableSnapshot(*snap_bytes);
    if (!snapshot.ok()) {
      replaying_ = false;
      return snapshot.status();
    }
    auto schema = ParseSchemaText(snapshot->schema_text);
    if (!schema.ok()) {
      replaying_ = false;
      return schema.status();
    }
    Status created = CreateTable(std::move(*schema));
    if (!created.ok()) {
      replaying_ = false;
      return created;
    }
    Table* table = FindTable(name);
    for (const Row& row : snapshot->rows) {
      Status inserted = table->Insert(row);
      if (!inserted.ok()) {
        replaying_ = false;
        return inserted;
      }
    }
  }
  // Snapshots just loaded are clean by definition; replayed log records
  // below re-dirty exactly the tables they touch.
  dirty_tables_.clear();
  table_snapshot_gen_.clear();
  for (std::size_t i = 0; i < manifest.tables.size(); ++i) {
    table_snapshot_gen_[manifest.tables[i]] = manifest.table_generations[i];
  }
  if (replay_log) {
    for (const wal::WalRecord& record : log.committed) {
      Status replayed = ReplayRecord(record);
      if (!replayed.ok()) {
        replaying_ = false;
        return replayed;
      }
    }
  }
  replaying_ = false;

  generation_ = manifest.generation;
  if (replay_log) {
    commit_sequence_ = log.last_commit_sequence;
    // Drop the torn/uncommitted tail so the writer appends after the
    // last commit marker.
    if (log.total_bytes > log.committed_bytes) {
      std::error_code ec;
      fs::resize_file(log_path, log.committed_bytes, ec);
      if (ec) return IoError("cannot truncate the torn tail of the log");
    }
    log_bytes_ = log.committed_bytes;
  } else {
    commit_sequence_ = 0;
    RETURN_IF_ERROR(wal::WriteFileAtomic(
        log_path, wal::EncodeWalHeader(manifest.generation)));
    log_bytes_ = wal::kWalHeaderSize;
  }

  std::vector<std::string> keep;
  for (std::size_t i = 0; i < manifest.tables.size(); ++i) {
    keep.push_back(
        SnapshotFileName(manifest.tables[i], manifest.table_generations[i]));
  }
  RemoveStaleSnapshots(dir, keep);

  ASSIGN_OR_RETURN(wal_file_, wal_factory_(log_path));
  return Status::Ok();
}

Status Database::Probe(const std::string& path) {
  const fs::path dir(path);
  if (fs::exists(dir / kLogFile) || fs::exists(dir / kManifestFile)) {
    return Status::Ok();
  }
  if (fs::exists(dir / kTextManifestFile)) {
    return FailedPreconditionError(
        "'" + path + "' holds a database in the retired text format; "
        "convert it with `goofi_dbck migrate " + path + "`");
  }
  return NotFoundError("no database in '" + path + "'");
}

Result<Database> Database::Open(const std::string& path,
                                wal::WalFileFactory factory) {
  RETURN_IF_ERROR(Probe(path));
  Database database;
  RETURN_IF_ERROR(database.OpenWalInto(path, std::move(factory)));
  return database;
}

Status Database::Commit() {
  if (!wal_attached()) {
    return FailedPreconditionError("Commit() without an attached WAL");
  }
  if (pending_records_ == 0) return Status::Ok();  // empty commits skipped
  pending_ +=
      wal::FrameRecord(wal::EncodeCommitRecord(commit_sequence_ + 1));
  // One append for the whole batch + marker: a crash can tear the tail
  // of this write but never interleave another writer's bytes.
  RETURN_IF_ERROR(wal_file_->Append(pending_));
  RETURN_IF_ERROR(wal_file_->Sync());
  ++commit_sequence_;
  log_bytes_ += pending_.size();
  pending_.clear();
  pending_records_ = 0;
  if (compaction_threshold_ != 0 && log_bytes_ >= compaction_threshold_) {
    return Compact();
  }
  return Status::Ok();
}

Status Database::Compact() {
  if (!wal_attached()) {
    return FailedPreconditionError("Compact() without an attached WAL");
  }
  if (pending_records_ != 0) {
    // Flush the batch (without re-entering compaction) so the snapshot
    // includes it.
    const std::uint64_t threshold = compaction_threshold_;
    compaction_threshold_ = 0;
    Status committed = Commit();
    compaction_threshold_ = threshold;
    RETURN_IF_ERROR(committed);
  }
  const std::uint64_t new_generation = generation_ + 1;
  ASSIGN_OR_RETURN(std::vector<std::string> ordered,
                   TablesInDependencyOrder(*this));
  // Incremental: rewrite only tables mutated since their last snapshot.
  // A clean table's manifest entry keeps pointing at its existing file,
  // so a compaction of the submission journal (one hot queue table among
  // static ones) costs one small snapshot, not a full rewrite. A table
  // with no snapshot file yet always counts as dirty.
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  entries.reserve(ordered.size());
  for (const std::string& name : ordered) {
    const auto current = table_snapshot_gen_.find(name);
    if (dirty_tables_.count(name) == 0 &&
        current != table_snapshot_gen_.end()) {
      entries.emplace_back(name, current->second);
      continue;
    }
    const Table* table = FindTable(name);
    RETURN_IF_ERROR(wal::WriteFileAtomic(
        (fs::path(wal_dir_) / SnapshotFileName(name, new_generation))
            .string(),
        wal::EncodeTableSnapshot(SerializeSchema(table->schema()),
                                 table->rows())));
    entries.emplace_back(name, new_generation);
  }
  // The manifest rename is the commit point: before it, recovery replays
  // the old log onto the old snapshots; after it, the new snapshots are
  // the state and any same-named old log is ignored (generation skew).
  RETURN_IF_ERROR(wal::WriteFileAtomic(
      (fs::path(wal_dir_) / kManifestFile).string(),
      wal::EncodeManifest(new_generation, entries)));
  wal_file_.reset();  // close before replacing the inode
  RETURN_IF_ERROR(
      wal::WriteFileAtomic((fs::path(wal_dir_) / kLogFile).string(),
                           wal::EncodeWalHeader(new_generation)));
  generation_ = new_generation;
  commit_sequence_ = 0;
  log_bytes_ = wal::kWalHeaderSize;
  dirty_tables_.clear();
  table_snapshot_gen_.clear();
  std::vector<std::string> keep;
  for (const auto& [name, snap_generation] : entries) {
    table_snapshot_gen_[name] = snap_generation;
    keep.push_back(SnapshotFileName(name, snap_generation));
  }
  RemoveStaleSnapshots(wal_dir_, keep);
  ASSIGN_OR_RETURN(wal_file_,
                   wal_factory_((fs::path(wal_dir_) / kLogFile).string()));
  return Status::Ok();
}

Status Database::Persist(const std::string& path) {
  std::error_code ec;
  if (wal_attached() &&
      (path == wal_dir_ ||
       fs::weakly_canonical(path, ec) == fs::weakly_canonical(wal_dir_, ec))) {
    return Commit();
  }
  return FailedPreconditionError("no WAL is attached at '" + path + "'");
}

}  // namespace goofi::db
