#include "db/wal.h"

#include <cstdio>
#include <cstring>
#include <optional>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace goofi::db::wal {

namespace fs = std::filesystem;

// ---- file seam ----------------------------------------------------------

namespace {

// stdio-backed appender: the log is the hot path, and FILE* buffering +
// explicit fflush at sync points is the cheapest portable way to batch.
class StdioWalFile : public WalFile {
 public:
  explicit StdioWalFile(std::FILE* file) : file_(file) {}
  ~StdioWalFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view bytes) override {
    if (file_ == nullptr) return IoError("log file is closed");
    if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
      return IoError("short write to wal.log");
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (file_ == nullptr) return IoError("log file is closed");
    if (std::fflush(file_) != 0) return IoError("cannot flush wal.log");
    return Status::Ok();
  }

 private:
  std::FILE* file_;
};

void AppendU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void AppendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void AppendString(std::string& out, std::string_view s) {
  AppendU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

void AppendRow(std::string& out, const Row& row) {
  AppendU32(out, static_cast<std::uint32_t>(row.size()));
  for (const Value& value : row) AppendString(out, value.Encode());
}

// Bounds-checked little-endian reader over a payload.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::string String() {
    const std::uint32_t length = U32();
    if (!Need(length)) return {};
    std::string s(bytes_.substr(pos_, length));
    pos_ += length;
    return s;
  }
  bool ReadRow(Row& row) {
    const std::uint32_t count = U32();
    if (!ok_) return false;
    row.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      auto value = Value::Decode(String());
      if (!ok_ || !value.ok()) {
        ok_ = false;
        return false;
      }
      row.push_back(std::move(*value));
    }
    return true;
  }

 private:
  bool Need(std::size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Decode one framed payload into a record; nullopt on malformed body.
std::optional<WalRecord> DecodePayload(std::string_view payload) {
  Reader reader(payload);
  WalRecord record;
  const std::uint8_t type = reader.U8();
  switch (type) {
    case static_cast<std::uint8_t>(RecordType::kSchema):
      record.type = RecordType::kSchema;
      record.schema_text = reader.String();
      break;
    case static_cast<std::uint8_t>(RecordType::kInsert):
      record.type = RecordType::kInsert;
      record.table = reader.String();
      if (!reader.ReadRow(record.row)) return std::nullopt;
      break;
    case static_cast<std::uint8_t>(RecordType::kUpdate): {
      record.type = RecordType::kUpdate;
      record.table = reader.String();
      const std::uint32_t n = reader.U32();
      for (std::uint32_t i = 0; i < n && reader.ok(); ++i) {
        const std::uint64_t index = reader.U64();
        Row row;
        if (!reader.ReadRow(row)) return std::nullopt;
        record.updates.emplace_back(index, std::move(row));
      }
      break;
    }
    case static_cast<std::uint8_t>(RecordType::kDelete): {
      record.type = RecordType::kDelete;
      record.table = reader.String();
      const std::uint32_t n = reader.U32();
      for (std::uint32_t i = 0; i < n && reader.ok(); ++i) {
        record.deletes.push_back(reader.U64());
      }
      break;
    }
    case static_cast<std::uint8_t>(RecordType::kDropTable):
      record.type = RecordType::kDropTable;
      record.table = reader.String();
      break;
    case static_cast<std::uint8_t>(RecordType::kCommit):
      record.type = RecordType::kCommit;
      record.commit_sequence = reader.U64();
      break;
    default:
      return std::nullopt;
  }
  if (!reader.ok() || !reader.AtEnd()) return std::nullopt;
  return record;
}

}  // namespace

Result<std::unique_ptr<WalFile>> OpenLogFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return IoError("cannot open '" + path + "' for appending");
  }
  return std::unique_ptr<WalFile>(new StdioWalFile(file));
}

// ---- record codec -------------------------------------------------------

std::string EncodeSchemaRecord(const std::string& schema_text) {
  std::string payload;
  payload.push_back(static_cast<char>(RecordType::kSchema));
  AppendString(payload, schema_text);
  return payload;
}

std::string EncodeInsertRecord(const std::string& table, const Row& row) {
  std::string payload;
  payload.push_back(static_cast<char>(RecordType::kInsert));
  AppendString(payload, table);
  AppendRow(payload, row);
  return payload;
}

std::string EncodeUpdateRecord(
    const std::string& table,
    const std::vector<std::pair<std::uint64_t, Row>>& updates) {
  std::string payload;
  payload.push_back(static_cast<char>(RecordType::kUpdate));
  AppendString(payload, table);
  AppendU32(payload, static_cast<std::uint32_t>(updates.size()));
  for (const auto& [index, row] : updates) {
    AppendU64(payload, index);
    AppendRow(payload, row);
  }
  return payload;
}

std::string EncodeDeleteRecord(const std::string& table,
                               const std::vector<std::uint64_t>& indices) {
  std::string payload;
  payload.push_back(static_cast<char>(RecordType::kDelete));
  AppendString(payload, table);
  AppendU32(payload, static_cast<std::uint32_t>(indices.size()));
  for (const std::uint64_t index : indices) AppendU64(payload, index);
  return payload;
}

std::string EncodeDropRecord(const std::string& table) {
  std::string payload;
  payload.push_back(static_cast<char>(RecordType::kDropTable));
  AppendString(payload, table);
  return payload;
}

std::string EncodeCommitRecord(std::uint64_t sequence) {
  std::string payload;
  payload.push_back(static_cast<char>(RecordType::kCommit));
  AppendU64(payload, sequence);
  return payload;
}

std::string FrameRecord(std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 8);
  AppendU32(frame, static_cast<std::uint32_t>(payload.size()));
  AppendU32(frame, Crc32(payload));
  frame.append(payload.data(), payload.size());
  return frame;
}

std::string EncodeWalHeader(std::uint64_t generation) {
  std::string header(kWalMagic, sizeof(kWalMagic));
  AppendU32(header, kWalVersion);
  AppendU32(header, 0);  // reserved
  AppendU64(header, generation);
  return header;
}

// ---- log reading --------------------------------------------------------

WalReadResult ReadWal(std::string_view bytes) {
  WalReadResult result;
  result.total_bytes = bytes.size();
  if (bytes.size() < kWalHeaderSize ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    result.note = "missing or torn log header";
    return result;
  }
  Reader header(bytes.substr(sizeof(kWalMagic), kWalHeaderSize -
                                                    sizeof(kWalMagic)));
  const std::uint32_t version = header.U32();
  header.U32();  // reserved
  const std::uint64_t generation = header.U64();
  if (version != kWalVersion) {
    result.note = StrFormat("unsupported wal version %u", version);
    return result;
  }
  result.header_valid = true;
  result.generation = generation;
  result.committed_bytes = kWalHeaderSize;

  std::size_t pos = kWalHeaderSize;
  std::vector<WalRecord> batch;  // records since the last commit
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      result.torn_tail = true;
      result.note = "torn frame header at end of log";
      break;
    }
    Reader frame_header(bytes.substr(pos, 8));
    const std::uint32_t length = frame_header.U32();
    const std::uint32_t crc = frame_header.U32();
    if (bytes.size() - pos - 8 < length) {
      result.torn_tail = true;
      result.note = StrFormat("torn record at offset %zu", pos);
      break;
    }
    const std::string_view payload = bytes.substr(pos + 8, length);
    if (Crc32(payload) != crc) {
      result.checksum_failure = true;
      result.note = StrFormat("checksum mismatch at offset %zu", pos);
      break;
    }
    auto record = DecodePayload(payload);
    if (!record) {
      result.checksum_failure = true;
      result.note = StrFormat("undecodable record at offset %zu", pos);
      break;
    }
    pos += 8 + length;
    ++result.records_valid;
    if (record->type == RecordType::kCommit) {
      ++result.commits;
      result.last_commit_sequence = record->commit_sequence;
      for (WalRecord& r : batch) result.committed.push_back(std::move(r));
      batch.clear();
      result.committed_bytes = pos;
    } else {
      batch.push_back(std::move(*record));
    }
  }
  result.records_uncommitted = batch.size();
  return result;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return IoError("cannot write '" + temp + "'");
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) return IoError("short write to '" + temp + "'");
  }
  std::error_code ec;
  fs::rename(temp, path, ec);
  if (ec) return IoError("cannot rename '" + temp + "' into place");
  return Status::Ok();
}

// ---- table snapshots ----------------------------------------------------

std::string EncodeTableSnapshot(const std::string& schema_text,
                                const std::vector<Row>& rows) {
  std::string bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendU32(bytes, kWalVersion);
  AppendU32(bytes, 0);  // reserved
  AppendString(bytes, schema_text);
  AppendU64(bytes, rows.size());
  for (const Row& row : rows) AppendRow(bytes, row);
  AppendU32(bytes, Crc32(bytes));
  return bytes;
}

Result<DecodedSnapshot> DecodeTableSnapshot(std::string_view bytes) {
  if (bytes.size() < sizeof(kSnapshotMagic) + 4 ||
      std::memcmp(bytes.data(), kSnapshotMagic,
                  sizeof(kSnapshotMagic)) != 0) {
    return DataLossError("bad snapshot magic");
  }
  Reader trailer(bytes.substr(bytes.size() - 4));
  if (trailer.U32() != Crc32(bytes.substr(0, bytes.size() - 4))) {
    return DataLossError("snapshot checksum mismatch");
  }
  Reader reader(bytes.substr(sizeof(kSnapshotMagic),
                             bytes.size() - sizeof(kSnapshotMagic) - 4));
  const std::uint32_t version = reader.U32();
  reader.U32();  // reserved
  if (version != kWalVersion) {
    return DataLossError(StrFormat("unsupported snapshot version %u",
                                   version));
  }
  DecodedSnapshot snapshot;
  snapshot.schema_text = reader.String();
  const std::uint64_t row_count = reader.U64();
  for (std::uint64_t i = 0; i < row_count; ++i) {
    Row row;
    if (!reader.ReadRow(row)) return DataLossError("undecodable snapshot row");
    snapshot.rows.push_back(std::move(row));
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return DataLossError("trailing bytes in snapshot");
  }
  return snapshot;
}

std::string EncodeManifest(std::uint64_t generation,
                           const std::vector<std::string>& tables) {
  std::vector<std::pair<std::string, std::uint64_t>> with_generations;
  with_generations.reserve(tables.size());
  for (const std::string& table : tables) {
    with_generations.emplace_back(table, generation);
  }
  return EncodeManifest(generation, with_generations);
}

std::string EncodeManifest(
    std::uint64_t generation,
    const std::vector<std::pair<std::string, std::uint64_t>>& tables) {
  std::string text = "goofi-wal-manifest v2\n";
  text += StrFormat("generation %llu\n",
                    static_cast<unsigned long long>(generation));
  for (const auto& [table, table_generation] : tables) {
    // Tab-separated: EscapeTsvField keeps a literal tab out of the name.
    text += "table\t" + EscapeTsvField(table) + "\t" +
            StrFormat("%llu",
                      static_cast<unsigned long long>(table_generation)) +
            "\n";
  }
  return text;
}

Result<DecodedManifest> DecodeManifest(std::string_view text) {
  std::istringstream stream{std::string(text)};
  std::string line;
  if (!std::getline(stream, line)) return DataLossError("empty manifest");
  const bool v1 = line == "goofi-wal-manifest v1";
  if (!v1 && line != "goofi-wal-manifest v2") {
    return DataLossError("bad manifest header");
  }
  DecodedManifest manifest;
  bool have_generation = false;
  std::vector<std::string> pending_v1_tables;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    if (StartsWith(line, "generation ")) {
      const auto generation = ParseUint64(line.substr(11));
      if (!generation) return DataLossError("bad manifest generation");
      manifest.generation = *generation;
      have_generation = true;
    } else if (v1 && StartsWith(line, "table ")) {
      const auto name = UnescapeTsvField(line.substr(6));
      if (!name || !IsSqlIdentifier(*name)) {
        return DataLossError("bad manifest table line: " + line);
      }
      pending_v1_tables.push_back(*name);
    } else if (!v1 && StartsWith(line, "table\t")) {
      const std::vector<std::string> fields = SplitString(line, '\t');
      if (fields.size() != 3) {
        return DataLossError("bad manifest table line: " + line);
      }
      const auto name = UnescapeTsvField(fields[1]);
      const auto table_generation = ParseUint64(fields[2]);
      if (!name || !IsSqlIdentifier(*name) || !table_generation) {
        return DataLossError("bad manifest table line: " + line);
      }
      manifest.tables.push_back(*name);
      manifest.table_generations.push_back(*table_generation);
    } else {
      return DataLossError("unknown manifest line: " + line);
    }
  }
  if (!have_generation) return DataLossError("manifest missing generation");
  // v1: every table snapshot lives at the shared generation.
  for (std::string& name : pending_v1_tables) {
    manifest.tables.push_back(std::move(name));
    manifest.table_generations.push_back(manifest.generation);
  }
  return manifest;
}

}  // namespace goofi::db::wal
