// The database: a set of tables plus cross-table referential integrity.
//
// Foreign keys are enforced RESTRICT-style, matching the paper's use of
// them to "prevent inconsistencies in the database": a child row cannot
// be inserted without its parent, and a parent row cannot be deleted,
// re-keyed, or its table dropped while children reference it.
//
// A database lives in memory until a WAL is attached; from then on it
// persists in one format: checkpointed binary table snapshots plus an
// append-only, CRC-checksummed log. Every FK-checked mutation is
// buffered; Commit() group-flushes the batch behind a commit marker, so
// recovery after a crash replays exactly the committed prefix and never
// a partial batch. The log compacts into fresh snapshots once it
// crosses a size threshold. See wal.h. Directories in the retired text
// format (one schema file + one TSV file per table) are converted once
// by ImportTextDirectory, which only `goofi_dbck migrate` calls.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "db/table.h"
#include "db/wal.h"
#include "util/status.h"

namespace goofi::db {

class Database {
 public:
  Database() = default;
  // Tables hold interior pointers into the map; keep databases pinned.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  // Create a table. Validates that its name is an SQL identifier and
  // that every foreign key references an existing table and a PRIMARY
  // KEY / UNIQUE column of compatible type.
  Status CreateTable(TableSchema schema);

  Status DropTable(const std::string& name);

  bool HasTable(const std::string& name) const;
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // FK-checked mutations (the only mutation doors callers should use).
  Status Insert(const std::string& table, Row row);
  Result<std::size_t> Update(const std::string& table,
                             const std::function<bool(const Row&)>& predicate,
                             const std::vector<ColumnUpdate>& updates);
  Result<std::size_t> Delete(
      const std::string& table,
      const std::function<bool(const Row&)>& predicate);

  // ---- persistence -------------------------------------------------------

  // Is there a database in `path`? Ok when it holds one, NotFound when
  // it holds none, FailedPrecondition (naming `goofi_dbck migrate`) for
  // a directory in the retired text format. Reads nothing but the
  // directory's marker files.
  static Status Probe(const std::string& path);

  // Open the database in `path`: recover its state (replaying to the
  // last valid commit, truncating any torn tail) and attach the log for
  // writing. Fails as Probe() does when `path` holds no database.
  // `factory` overrides how the log file is opened — the crash tests
  // inject faulty files here.
  static Result<Database> Open(const std::string& path,
                               wal::WalFileFactory factory = nullptr);

  // Attach a WAL to `path` (creating the directory), snapshotting the
  // current in-memory state as generation 0. This is both "create a new
  // database" and the last step of importing a text directory.
  Status AttachWal(const std::string& path,
                   wal::WalFileFactory factory = nullptr);

  bool wal_attached() const { return wal_file_ != nullptr; }
  const std::string& wal_path() const { return wal_dir_; }

  // Group commit: flush the buffered mutation batch plus a commit marker
  // in one append, then sync. No-op when nothing is pending. Triggers
  // compaction when the log has crossed the size threshold.
  Status Commit();

  // Fold the log into fresh table snapshots under a bumped generation
  // and restart an empty log. Commits any pending batch first.
  // Incremental: only tables mutated since their last snapshot are
  // rewritten; a clean table's manifest entry keeps pointing at its
  // existing snapshot file (manifest v2, see wal.h).
  Status Compact();

  // Checkpoint door for the runners: Commit() when the WAL is attached
  // at `path`, FailedPrecondition otherwise.
  Status Persist(const std::string& path);

  // Uncommitted records buffered since the last commit.
  std::uint64_t pending_record_count() const { return pending_records_; }
  std::uint64_t commit_sequence() const { return commit_sequence_; }
  std::uint64_t generation() const { return generation_; }
  // Generation in `table`'s current snapshot file name (0 if never
  // snapshotted). Lags generation() for tables untouched since their
  // last rewrite — how tests observe that compaction skipped a table.
  std::uint64_t table_snapshot_generation(const std::string& table) const {
    const auto it = table_snapshot_gen_.find(table);
    return it == table_snapshot_gen_.end() ? 0 : it->second;
  }
  bool table_dirty(const std::string& table) const {
    return dirty_tables_.count(table) != 0;
  }
  // Log size (bytes) that triggers compaction at the next commit.
  // 0 disables automatic compaction. Deterministic across serial and
  // parallel runs because the log bytes themselves are deterministic.
  void set_compaction_threshold(std::uint64_t bytes) {
    compaction_threshold_ = bytes;
  }

 private:
  Status LogRecord(const std::string& payload);
  Status ReplayRecord(const wal::WalRecord& record);
  // A mutated table needs a fresh snapshot at the next compaction.
  void MarkDirty(const std::string& table) { dirty_tables_.insert(table); }
  Status WriteSnapshots(std::uint64_t generation) const;
  Status OpenWalInto(const std::string& path, wal::WalFileFactory factory);
  Status CheckForeignKeysForRow(const Table& table, const Row& row) const;
  // Is `key` in `parent_table.parent_column` referenced by any child row?
  bool HasReferencingChild(const std::string& parent_table,
                           const std::string& parent_column,
                           const Value& key) const;

  std::map<std::string, std::unique_ptr<Table>> tables_;

  // WAL state (empty / null when no log is attached).
  std::string wal_dir_;
  std::unique_ptr<wal::WalFile> wal_file_;
  wal::WalFileFactory wal_factory_;
  std::string pending_;                 // framed records awaiting commit
  std::uint64_t pending_records_ = 0;
  std::uint64_t commit_sequence_ = 0;   // last flushed commit marker
  std::uint64_t generation_ = 0;        // snapshot generation
  std::uint64_t log_bytes_ = 0;         // committed log size on disk
  std::uint64_t compaction_threshold_ = 8 * 1024 * 1024;
  bool replaying_ = false;              // suppress logging during replay
  // Incremental-compaction bookkeeping: which tables changed since their
  // last snapshot, and the generation each table's snapshot file carries.
  std::set<std::string> dirty_tables_;
  std::map<std::string, std::uint64_t> table_snapshot_gen_;
};

// Table names in FK-dependency order (parents before children); fails
// on a cycle. Snapshot manifests list tables in this order.
Result<std::vector<std::string>> TablesInDependencyOrder(
    const Database& database);

// Serialize one schema to the text form used by persistence (also handy
// for debugging and golden tests).
std::string SerializeSchema(const TableSchema& schema);
Result<TableSchema> ParseSchemaText(const std::string& text);

// One-way import of a directory in the retired text format: manifest.txt
// naming the tables in FK order, and per table a <name>.schema file and
// a <name>.rows TSV file. Returns an in-memory database (no WAL
// attached) or a typed error; never trusts a name or a row from disk.
Result<Database> ImportTextDirectory(const std::string& path);

}  // namespace goofi::db
