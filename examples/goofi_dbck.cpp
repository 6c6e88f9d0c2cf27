// goofi_dbck: verify, repair, migrate and compact campaign database
// directories — the fsck for the WAL storage engine (db/wal.h).
//
//   verify <dir>    read-only health report: header, generation, commit
//                   count, torn-tail / checksum diagnosis, snapshot CRCs.
//                   exit 0 = clean, 1 = damaged-but-recoverable (recovery
//                   would drop the uncommitted tail), 2 = unreadable.
//   repair <dir>    recover to the last valid commit: truncate the torn
//                   tail, restart a crashed compaction, drop uncommitted
//                   records. (This is exactly what Open() does; repair
//                   just does it explicitly and reports what changed.)
//   migrate <dir>   one-way import of a directory in the retired text
//                   format (db::ImportTextDirectory), in place.
//   compact <dir>   fold the log into fresh snapshots (bumped generation).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "db/database.h"
#include "db/wal.h"

namespace {

using namespace goofi;
namespace fs = std::filesystem;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

int CmdVerify(const std::string& dir) {
  if (auto s = db::Database::Probe(dir); !s.ok()) return Fail(s);

  auto manifest_text =
      db::wal::ReadFileBytes((fs::path(dir) / "snapshot.manifest").string());
  if (!manifest_text.ok()) return Fail(manifest_text.status());
  auto manifest = db::wal::DecodeManifest(*manifest_text);
  if (!manifest.ok()) return Fail(manifest.status());
  std::printf("%s: WAL format, generation %llu, %zu tables\n", dir.c_str(),
              static_cast<unsigned long long>(manifest->generation),
              manifest->tables.size());

  bool damaged = false;
  for (std::size_t i = 0; i < manifest->tables.size(); ++i) {
    const std::string& table = manifest->tables[i];
    // Per-table generation (manifest v2): a table untouched since an
    // incremental compaction legitimately points at an older file.
    const std::uint64_t snap_generation = manifest->table_generations[i];
    const std::string snap_path =
        (fs::path(dir) /
         (table + "." + std::to_string(snap_generation) + ".snap"))
            .string();
    auto bytes = db::wal::ReadFileBytes(snap_path);
    if (!bytes.ok()) {
      std::printf("  snapshot %-24s MISSING\n", table.c_str());
      damaged = true;
      continue;
    }
    auto snapshot = db::wal::DecodeTableSnapshot(*bytes);
    if (!snapshot.ok()) {
      std::printf("  snapshot %-24s CORRUPT (%s)\n", table.c_str(),
                  snapshot.status().message().c_str());
      damaged = true;
      continue;
    }
    std::printf("  snapshot %-24s ok (gen %llu), %zu rows, CRC valid\n",
                table.c_str(),
                static_cast<unsigned long long>(snap_generation),
                snapshot->rows.size());
  }
  if (damaged) {
    std::printf("verdict: snapshot damage — not recoverable from this "
                "directory alone\n");
    return 2;
  }

  auto log_bytes = db::wal::ReadFileBytes((fs::path(dir) / "wal.log").string());
  const db::wal::WalReadResult log =
      db::wal::ReadWal(log_bytes.ok() ? *log_bytes : std::string());
  if (!log.header_valid || log.generation != manifest->generation) {
    std::printf("  log: %s (snapshots are the committed state; repair "
                "restarts the log)\n",
                log.note.empty() ? "generation skew after a compaction crash"
                                 : log.note.c_str());
    std::printf("verdict: recoverable — repair restores generation %llu\n",
                static_cast<unsigned long long>(manifest->generation));
    return 1;
  }
  std::printf("  log: %llu/%llu bytes committed, %llu commits "
              "(last sequence %llu), %llu records\n",
              static_cast<unsigned long long>(log.committed_bytes),
              static_cast<unsigned long long>(log.total_bytes),
              static_cast<unsigned long long>(log.commits),
              static_cast<unsigned long long>(log.last_commit_sequence),
              static_cast<unsigned long long>(log.records_valid));
  if (log.torn_tail || log.checksum_failure || log.records_uncommitted > 0) {
    std::printf("  damage: %s; %llu uncommitted record(s) past the last "
                "commit would be dropped\n",
                log.note.empty() ? "uncommitted tail" : log.note.c_str(),
                static_cast<unsigned long long>(log.records_uncommitted));
    std::printf("verdict: recoverable — repair truncates to byte %llu\n",
                static_cast<unsigned long long>(log.committed_bytes));
    return 1;
  }
  std::printf("verdict: clean\n");
  return 0;
}

int CmdRepair(const std::string& dir) {
  auto before_bytes =
      db::wal::ReadFileBytes((fs::path(dir) / "wal.log").string());
  const std::uint64_t before =
      before_bytes.ok() ? before_bytes->size() : 0;
  auto database = db::Database::Open(dir);
  if (!database.ok()) return Fail(database.status());
  auto after_bytes =
      db::wal::ReadFileBytes((fs::path(dir) / "wal.log").string());
  const std::uint64_t after = after_bytes.ok() ? after_bytes->size() : 0;
  std::printf("%s: recovered to generation %llu, commit sequence %llu "
              "(%llu tail bytes dropped)\n",
              dir.c_str(),
              static_cast<unsigned long long>(database->generation()),
              static_cast<unsigned long long>(database->commit_sequence()),
              static_cast<unsigned long long>(before > after ? before - after
                                                             : 0));
  return 0;
}

int CmdMigrate(const std::string& dir) {
  if (db::Database::Probe(dir).ok()) {
    std::printf("%s: already WAL format\n", dir.c_str());
    return 0;
  }
  auto database = db::ImportTextDirectory(dir);
  if (!database.ok()) return Fail(database.status());
  if (auto s = database->AttachWal(dir); !s.ok()) return Fail(s);
  // The WAL markers are in place; retire the text files.
  std::error_code ec;
  fs::remove(fs::path(dir) / "manifest.txt", ec);
  for (const std::string& table : database->TableNames()) {
    fs::remove(fs::path(dir) / (table + ".schema"), ec);
    fs::remove(fs::path(dir) / (table + ".rows"), ec);
  }
  std::printf("%s: migrated %zu tables to WAL format (generation 0)\n",
              dir.c_str(), database->TableNames().size());
  return 0;
}

int CmdCompact(const std::string& dir) {
  auto database = db::Database::Open(dir);
  if (!database.ok()) return Fail(database.status());
  if (auto s = database->Compact(); !s.ok()) return Fail(s);
  std::printf("%s: compacted into generation %llu snapshots\n", dir.c_str(),
              static_cast<unsigned long long>(database->generation()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const std::string dir = argc > 2 ? argv[2] : "";
  if (!dir.empty()) {
    if (command == "verify") return CmdVerify(dir);
    if (command == "repair") return CmdRepair(dir);
    if (command == "migrate") return CmdMigrate(dir);
    if (command == "compact") return CmdCompact(dir);
  }
  std::fprintf(stderr,
               "goofi_dbck: campaign-database consistency checker\n"
               "usage: goofi_dbck <verify|repair|migrate|compact> "
               "<db-dir>\n"
               "  verify   health report (0 clean, 1 recoverable, "
               "2 unreadable)\n"
               "  repair   recover to the last valid commit\n"
               "  migrate  import a retired text-format directory, in "
               "place\n"
               "  compact  fold the log into fresh table snapshots\n");
  return command.empty() ? 0 : 2;
}
