// Write-ahead log format for the embedded database.
//
// A WAL database directory holds
//
//   wal.log            header + length-prefixed, CRC32-checksummed records
//   snapshot.manifest  table list + snapshot generation (text, renamed
//                      into place atomically)
//   <table>.snap       checkpointed binary table snapshots
//
// The log is append-only: every FK-checked mutation becomes a record in
// an in-memory batch, and a group commit flushes the batch plus a commit
// marker in one write. Recovery replays records up to the last valid
// commit marker — a torn tail (crash mid-write) or a checksum-failing
// record ends replay at the preceding commit, so a reader never observes
// a partial batch. Compaction folds the log into fresh table snapshots
// and an empty log under a bumped generation number.
//
// This header exposes the record codec, the file-reading plumbing, and a
// WalFile seam so the crash-injection tests can interpose torn/corrupted
// writes between the engine and the filesystem (GOOFI injecting faults
// into itself).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "db/table.h"
#include "util/crc32.h"
#include "util/status.h"

namespace goofi::db::wal {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
// The implementation lives in util/crc32.h so the socket framing
// (util/socket.h) shares the exact same checksum.
using goofi::Crc32;

// ---- file seam ----------------------------------------------------------

// Append-only byte sink for the log. Production code uses OpenLogFile;
// tests wrap it with a fault-injecting decorator (tests/db/wal_crash).
class WalFile {
 public:
  virtual ~WalFile() = default;
  virtual Status Append(std::string_view bytes) = 0;
  virtual Status Sync() = 0;
};

// Opens `path` for appending (the file must already exist; recovery
// truncates any torn tail before the writer attaches).
Result<std::unique_ptr<WalFile>> OpenLogFile(const std::string& path);

using WalFileFactory =
    std::function<Result<std::unique_ptr<WalFile>>(const std::string& path)>;

// ---- record codec -------------------------------------------------------

enum class RecordType : std::uint8_t {
  kSchema = 1,     // CREATE TABLE: serialized schema text
  kInsert = 2,     // one row appended to a table
  kUpdate = 3,     // in-place row updates: (row index, full new row) pairs
  kDelete = 4,     // row deletions by ascending original index
  kDropTable = 5,  // DROP TABLE
  kCommit = 6,     // group-commit marker with a running sequence number
};

// One decoded record. Only the fields for `type` are meaningful.
struct WalRecord {
  RecordType type = RecordType::kCommit;
  std::string table;                                  // all but kCommit
  std::string schema_text;                            // kSchema
  Row row;                                            // kInsert
  std::vector<std::pair<std::uint64_t, Row>> updates; // kUpdate
  std::vector<std::uint64_t> deletes;                 // kDelete (ascending)
  std::uint64_t commit_sequence = 0;                  // kCommit
};

// Payload encoders. A frame on disk is
//   u32 payload_length | u32 crc32(payload) | payload
// with the payload starting with the u8 RecordType.
std::string EncodeSchemaRecord(const std::string& schema_text);
std::string EncodeInsertRecord(const std::string& table, const Row& row);
std::string EncodeUpdateRecord(
    const std::string& table,
    const std::vector<std::pair<std::uint64_t, Row>>& updates);
std::string EncodeDeleteRecord(const std::string& table,
                               const std::vector<std::uint64_t>& indices);
std::string EncodeDropRecord(const std::string& table);
std::string EncodeCommitRecord(std::uint64_t sequence);

// Wrap an encoded payload in the length+CRC frame.
std::string FrameRecord(std::string_view payload);

// Log header: magic + format version + snapshot generation.
inline constexpr char kWalMagic[8] = {'G', 'O', 'O', 'F', 'I', 'W', 'L', '1'};
inline constexpr std::uint32_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderSize = 24;

std::string EncodeWalHeader(std::uint64_t generation);

// ---- log reading --------------------------------------------------------

// The committed prefix of a log plus everything a verifier wants to know
// about the rest of the file.
struct WalReadResult {
  bool header_valid = false;
  std::uint64_t generation = 0;
  std::vector<WalRecord> committed;   // records up to the last commit
  std::uint64_t commits = 0;          // commit markers in the valid prefix
  std::uint64_t last_commit_sequence = 0;
  // Byte offset just past the last commit frame (or past the header when
  // no commit survives). An appending writer truncates the file here.
  std::uint64_t committed_bytes = 0;
  std::uint64_t total_bytes = 0;      // file size as read
  std::uint64_t records_valid = 0;    // well-formed frames seen (any type)
  // Uncommitted records after the last commit (lost batch on recovery).
  std::uint64_t records_uncommitted = 0;
  bool torn_tail = false;             // file ends mid-frame
  bool checksum_failure = false;      // a frame failed its CRC
  std::string note;                   // human-readable diagnosis for dbck
};

// Decode `bytes` (a whole wal.log). Never fails: damage is reported in
// the result and the committed prefix is whatever survives it.
WalReadResult ReadWal(std::string_view bytes);

// Read a file fully into memory. NotFound if it does not exist.
Result<std::string> ReadFileBytes(const std::string& path);

// Write bytes to `path` via a temp file + rename (atomic publish).
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

// ---- table snapshots ----------------------------------------------------

inline constexpr char kSnapshotMagic[8] =
    {'G', 'O', 'O', 'F', 'I', 'S', 'N', '1'};

// Serialize a table (schema text + rows) into the snapshot byte format,
// CRC-trailered so dbck can verify it.
std::string EncodeTableSnapshot(const std::string& schema_text,
                                const std::vector<Row>& rows);
struct DecodedSnapshot {
  std::string schema_text;
  std::vector<Row> rows;
};
Result<DecodedSnapshot> DecodeTableSnapshot(std::string_view bytes);

// snapshot.manifest. Two text formats are read:
//   v1  "goofi-wal-manifest v1": one shared generation; every table's
//       snapshot file is <table>.<generation>.snap.
//   v2  "goofi-wal-manifest v2": the shared generation names the live
//       log, and each table line carries its own snapshot generation —
//       incremental compaction rewrites only dirty tables, so a clean
//       table keeps pointing at its older snapshot file.
// Writers emit v2; v1 directories from before incremental compaction
// keep loading (every per-table generation = the shared one). A table
// name that is not an SQL identifier is DataLoss: names become file
// names, and one like "../x" would read outside the directory.
std::string EncodeManifest(std::uint64_t generation,
                           const std::vector<std::string>& tables);
std::string EncodeManifest(
    std::uint64_t generation,
    const std::vector<std::pair<std::string, std::uint64_t>>& tables);
struct DecodedManifest {
  std::uint64_t generation = 0;
  std::vector<std::string> tables;  // FK-dependency order
  // Index-aligned with `tables`: the generation in each table's
  // snapshot file name (== `generation` for every table of a v1 file).
  std::vector<std::uint64_t> table_generations;
};
Result<DecodedManifest> DecodeManifest(std::string_view text);

}  // namespace goofi::db::wal
