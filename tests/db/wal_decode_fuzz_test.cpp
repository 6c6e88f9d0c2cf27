// Fixed-seed mutation sweep over the storage decoders a results
// directory feeds on open: table snapshots (*.snap), the manifest
// (snapshot.manifest) and the log (wal.log). Valid encodings are
// damaged by bit flips, truncations and length-field edits — snapshot
// mutants are re-sealed with a fresh CRC half the time, and damaged log
// frames get a fresh frame CRC, so the damage reaches the parser behind
// the checksum. Every mutant must decode or fail with a typed,
// non-Internal Status, and never crash under ASan/UBSan; a mutant log
// must also open, in a directory of its own, as a database or as such
// a Status.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/wal.h"
#include "test_util/temp_dir.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace goofi::db {
namespace {

void ExpectTyped(const Status& status, const std::string& what) {
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.code(), ErrorCode::kInternal) << what;
  EXPECT_FALSE(status.message().empty()) << what;
}

std::string RandomBytes(Rng& rng, std::size_t max_length) {
  std::string bytes;
  const std::size_t length = rng.NextBelow(max_length + 1);
  for (std::size_t i = 0; i < length; ++i) {
    bytes.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return bytes;
}

std::string SeedSnapshot(Rng& rng) {
  TableSchema schema("fuzzed");
  EXPECT_TRUE(
      schema.AddColumn({"id", ColumnType::kInteger, false, false, true}).ok());
  EXPECT_TRUE(schema.AddColumn({"payload", ColumnType::kBlob}).ok());
  EXPECT_TRUE(schema.AddColumn({"note", ColumnType::kText}).ok());
  std::vector<Row> rows;
  const std::size_t count = rng.NextBelow(6);
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back({Value::Integer(static_cast<std::int64_t>(i)),
                    Value::Blob(RandomBytes(rng, 12)),
                    rng.NextBool(0.3) ? Value::Null()
                                      : Value::Text_(RandomBytes(rng, 8))});
  }
  return wal::EncodeTableSnapshot(SerializeSchema(schema), rows);
}

std::string SeedManifest(Rng& rng) {
  std::vector<std::pair<std::string, std::uint64_t>> tables;
  const std::size_t count = 1 + rng.NextBelow(4);
  for (std::size_t i = 0; i < count; ++i) {
    tables.emplace_back("table_" + std::to_string(i), rng.NextBelow(9));
  }
  if (rng.NextBool(0.5)) {
    // The v1 format: one shared generation.
    std::string text = "goofi-wal-manifest v1\ngeneration 3\n";
    for (const auto& [name, generation] : tables) text += "table " + name + "\n";
    return text;
  }
  return wal::EncodeManifest(rng.NextBelow(9), tables);
}

// One damage step: a bit flip, a truncation, or a 4- or 8-byte
// little-endian field overwritten with an edge value.
void Damage(Rng& rng, std::string& bytes) {
  if (bytes.empty()) return;
  switch (rng.NextBelow(3)) {
    case 0:
      bytes[rng.NextBelow(bytes.size())] ^=
          static_cast<char>(1u << rng.NextBelow(8));
      break;
    case 1:
      bytes.resize(rng.NextBelow(bytes.size()));
      break;
    default: {
      const std::uint64_t edges[] = {0,
                                     1,
                                     bytes.size(),
                                     bytes.size() + 1,
                                     0x7FFFFFFFull,
                                     0xFFFFFFFFull,
                                     0x8000000000000000ull,
                                     ~0ull};
      const std::uint64_t value = edges[rng.NextBelow(8)];
      const std::size_t width = rng.NextBool(0.5) ? 4 : 8;
      const std::size_t at = rng.NextBelow(bytes.size());
      for (std::size_t i = 0; i < width && at + i < bytes.size(); ++i) {
        bytes[at + i] = static_cast<char>(value >> (8 * i));
      }
      break;
    }
  }
}

// Replace the trailing CRC so the mutant passes the checksum.
void Reseal(std::string& bytes) {
  if (bytes.size() < 4) return;
  const std::uint32_t crc =
      Crc32(std::string_view(bytes).substr(0, bytes.size() - 4));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>(crc >> (8 * i));
  }
}

class WalDecodeFuzz : public ::testing::TestWithParam<int> {};

// ---- log records ----------------------------------------------------------

namespace fs = std::filesystem;

void PutU32(std::string& bytes, std::size_t at, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>(value >> (8 * i));
  }
}

std::uint32_t GetU32(const std::string& bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
  }
  return value;
}

// A database directory whose log holds a schema, inserts, an update, a
// delete and two commits (what a campaign's results directory holds),
// plus, half the time, an uncommitted tail: a framed insert with no
// commit marker after it, as a crash between a batch's append and its
// commit would leave.
void WriteSeedLogDirectory(Rng& rng, const fs::path& dir) {
  fs::remove_all(dir);
  const std::int64_t rows = 2 + static_cast<std::int64_t>(rng.NextBelow(4));
  {
    Database database;
    ASSERT_TRUE(database.AttachWal(dir.string()).ok());
    TableSchema schema("fuzzed");
    ASSERT_TRUE(schema.AddColumn({"id", ColumnType::kInteger, false, false,
                                  true}).ok());
    ASSERT_TRUE(schema.AddColumn({"payload", ColumnType::kBlob}).ok());
    ASSERT_TRUE(database.CreateTable(schema).ok());
    for (std::int64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(database
                      .Insert("fuzzed", {Value::Integer(i),
                                         Value::Blob(RandomBytes(rng, 10))})
                      .ok());
    }
    ASSERT_TRUE(database.Commit().ok());
    auto id_is = [](std::int64_t id) {
      return [id](const Row& row) { return row[0].AsInteger() == id; };
    };
    ASSERT_TRUE(database
                    .Update("fuzzed", id_is(0),
                            {{1, Value::Blob(RandomBytes(rng, 6))}})
                    .ok());
    ASSERT_TRUE(database.Delete("fuzzed", id_is(1)).ok());
    ASSERT_TRUE(database.Commit().ok());
  }
  if (rng.NextBool(0.5)) {
    const std::string path = (dir / "wal.log").string();
    auto log = wal::ReadFileBytes(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(wal::WriteFileAtomic(
                    path, *log + wal::FrameRecord(wal::EncodeInsertRecord(
                                     "fuzzed", {Value::Integer(rows),
                                                Value::Null()})))
                    .ok());
  }
}

// Offsets of the frames after the log header.
std::vector<std::size_t> FrameOffsets(const std::string& log) {
  std::vector<std::size_t> offsets;
  std::size_t pos = wal::kWalHeaderSize;
  while (pos + 8 <= log.size()) {
    offsets.push_back(pos);
    pos += 8 + GetU32(log, pos);
  }
  return offsets;
}

// One log mutant: a frame length set to a hostile value, a truncation,
// or a frame's payload damaged and the frame re-sealed with its CRC.
std::string MutateLog(Rng& rng, std::string log) {
  const std::vector<std::size_t> frames = FrameOffsets(log);
  if (frames.empty()) {
    Damage(rng, log);
    return log;
  }
  const std::size_t frame = frames[rng.NextBelow(frames.size())];
  const std::uint32_t length = GetU32(log, frame);
  switch (rng.NextBelow(3)) {
    case 0: {
      const std::uint64_t rest = log.size() - frame - 8;
      const std::uint32_t hostile[] = {0,
                                       1,
                                       length - 1,
                                       length + 1,
                                       static_cast<std::uint32_t>(rest),
                                       static_cast<std::uint32_t>(rest + 1),
                                       0x7FFFFFFFu,
                                       0xFFFFFFFFu};
      PutU32(log, frame, hostile[rng.NextBelow(8)]);
      break;
    }
    case 1:
      log.resize(rng.NextBelow(log.size()));
      break;
    default: {
      std::string payload = log.substr(frame + 8, length);
      const std::size_t damage = 1 + rng.NextBelow(2);
      for (std::size_t d = 0; d < damage; ++d) Damage(rng, payload);
      std::string resealed(8, '\0');
      PutU32(resealed, 0, static_cast<std::uint32_t>(payload.size()));
      PutU32(resealed, 4, Crc32(payload));
      log.replace(frame, 8 + length, resealed + payload);
      break;
    }
  }
  return log;
}

TEST_P(WalDecodeFuzz, MutantLogsReadAndOpenOrFailTyped) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ULL +
          0x632BE59BD9B4E019ULL);
  const fs::path root = test_util::ProcessTempDir() /
                        ("goofi_wal_log_fuzz_" + std::to_string(GetParam()));
  const fs::path seed_dir = root / "seed";
  WriteSeedLogDirectory(rng, seed_dir);
  auto seed = wal::ReadFileBytes((seed_dir / "wal.log").string());
  ASSERT_TRUE(seed.ok());
  const wal::WalReadResult seed_read = wal::ReadWal(*seed);
  ASSERT_TRUE(seed_read.header_valid);
  ASSERT_EQ(seed_read.commits, 2u);

  constexpr int kMutants = 150;
  int opened = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = MutateLog(rng, *seed);
    const wal::WalReadResult read = wal::ReadWal(mutant);
    EXPECT_LE(read.committed_bytes, read.total_bytes) << "mutant " << i;
    EXPECT_EQ(read.total_bytes, mutant.size()) << "mutant " << i;

    const fs::path dir = root / "mutant";
    fs::remove_all(dir);
    fs::copy(seed_dir, dir);
    ASSERT_TRUE(
        wal::WriteFileAtomic((dir / "wal.log").string(), mutant).ok());
    const auto database = Database::Open(dir.string());
    if (database.ok()) {
      ++opened;
    } else {
      ExpectTyped(database.status(), "log mutant " + std::to_string(i));
    }
  }
  // Both outcomes occurred, so the sweep exercised both paths.
  EXPECT_GT(opened, 0);
  EXPECT_LT(opened, kMutants);
  fs::remove_all(root);
}

TEST_P(WalDecodeFuzz, MutantsDecodeOrFailTyped) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0xD1B54A32D192ED03ULL +
          0x8CB92BA72F3D8DD7ULL);
  constexpr int kMutants = 300;
  int snapshots_decoded = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string snapshot = SeedSnapshot(rng);
    const std::size_t damage = 1 + rng.NextBelow(3);
    for (std::size_t d = 0; d < damage; ++d) Damage(rng, snapshot);
    if (rng.NextBool(0.5)) Reseal(snapshot);
    const auto decoded = wal::DecodeTableSnapshot(snapshot);
    if (decoded.ok()) {
      ++snapshots_decoded;
    } else {
      ExpectTyped(decoded.status(), "snapshot mutant " + std::to_string(i));
    }

    std::string manifest = SeedManifest(rng);
    for (std::size_t d = 0; d < damage; ++d) Damage(rng, manifest);
    const auto parsed = wal::DecodeManifest(manifest);
    if (!parsed.ok()) ExpectTyped(parsed.status(), manifest);
  }
  // The seeds themselves decode; so the sweep exercised both paths.
  Rng seed_rng(static_cast<std::uint64_t>(GetParam()));
  EXPECT_TRUE(wal::DecodeTableSnapshot(SeedSnapshot(seed_rng)).ok());
  EXPECT_TRUE(wal::DecodeManifest(SeedManifest(seed_rng)).ok());
  EXPECT_LT(snapshots_decoded, kMutants);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalDecodeFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace goofi::db
