// Property sweeps over persistence. Random databases (rows full of
// hostile bytes — tabs, newlines, NULs, non-UTF8 blobs) must survive WAL
// replay and compaction bit-exactly, with constraints still enforced.
// Mutated copies of a committed text-format directory must import to a
// database or fail with a typed Status, and never crash under ASan/UBSan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "db/database.h"
#include "util/rng.h"
#include "test_util/temp_dir.h"

namespace goofi::db {
namespace {

namespace fs = std::filesystem;

Value RandomValue(Rng& rng, ColumnType type, bool allow_null) {
  if (allow_null && rng.NextBool(0.15)) return Value::Null();
  auto random_bytes = [&rng]() {
    std::string bytes;
    const std::size_t length = rng.NextBelow(24);
    for (std::size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    return bytes;
  };
  switch (type) {
    case ColumnType::kInteger:
      return Value::Integer(static_cast<std::int64_t>(rng.NextU64()));
    case ColumnType::kReal:
      return Value::Real(rng.NextDouble() * 1e12 - 5e11);
    case ColumnType::kText:
      return Value::Text_(random_bytes());
    case ColumnType::kBlob:
      return Value::Blob(random_bytes());
    case ColumnType::kAny:
      switch (rng.NextBelow(4)) {
        case 0: return Value::Integer(7);
        case 1: return Value::Real(1.5);
        case 2: return Value::Text_(random_bytes());
        default: return Value::Blob(random_bytes());
      }
  }
  return Value::Null();
}

// ---- WAL format ---------------------------------------------------------

// Exact-order dump: WAL replay must reproduce rows in their original
// positions (update/delete records address rows by index), so the
// comparison is order-sensitive.
std::string ExactDump(const Database& database) {
  std::string dump;
  for (const std::string& name : database.TableNames()) {
    const Table* table = database.FindTable(name);
    dump += "== " + name + "\n" + SerializeSchema(table->schema());
    for (const Row& row : table->rows()) {
      for (const Value& value : row) {
        dump += value.Encode();
        dump += '\x1f';
      }
      dump += '\n';
    }
  }
  return dump;
}

class WalPersistenceFuzz : public ::testing::TestWithParam<int> {};

// Random insert/update/delete/commit/compaction interleavings: after
// every run the reopened (snapshot-loaded + log-replayed) database must
// equal the in-memory one row for row, and compaction must be an
// invisible no-op on the logical state.
TEST_P(WalPersistenceFuzz, ReplayedStateMatchesMemory) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2862933555777941757ULL +
          3037000493ULL);
  const std::string dir =
      (test_util::ProcessTempDir() /
       ("goofi_wal_fuzz_" + std::to_string(GetParam()))).string();
  fs::remove_all(dir);

  Database database;
  ASSERT_TRUE(database.AttachWal(dir).ok());
  // Sometimes let the log grow unboundedly, sometimes force frequent
  // automatic compactions mid-run.
  const std::uint64_t thresholds[] = {0, 0, 768, 4096};
  database.set_compaction_threshold(thresholds[rng.NextBelow(4)]);

  TableSchema parent("parent");
  ASSERT_TRUE(parent.AddColumn({"key", ColumnType::kInteger, false, false,
                                true}).ok());
  ASSERT_TRUE(parent.AddColumn({"payload", ColumnType::kBlob}).ok());
  ASSERT_TRUE(database.CreateTable(parent).ok());
  TableSchema child("child");
  ASSERT_TRUE(child.AddColumn({"id", ColumnType::kInteger, false, false,
                               true}).ok());
  ASSERT_TRUE(child.AddColumn({"parent_key", ColumnType::kInteger}).ok());
  ASSERT_TRUE(child.AddColumn({"tag", ColumnType::kText, false, false,
                               false, true}).ok());  // secondary-indexed
  ASSERT_TRUE(child.AddForeignKey({"parent_key", "parent", "key"}).ok());
  ASSERT_TRUE(database.CreateTable(child).ok());

  int next_id = 0;
  const int operations = 40 + static_cast<int>(rng.NextBelow(60));
  for (int op = 0; op < operations; ++op) {
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
        (void)database.Insert(
            "parent", {Value::Integer(rng.NextBelow(50)),
                       RandomValue(rng, ColumnType::kBlob, true)});
        break;
      case 2:
      case 3:
      case 4: {
        const Value parent_ref =
            rng.NextBool(0.3)
                ? Value::Null()
                : Value::Integer(rng.NextBelow(50));
        (void)database.Insert(
            "child", {Value::Integer(next_id++), parent_ref,
                      Value::Text_("t" + std::to_string(rng.NextBelow(5)))});
        break;
      }
      case 5: {
        const std::string tag = "t" + std::to_string(rng.NextBelow(5));
        (void)database.Update(
            "child",
            [&tag](const Row& row) { return row[2].AsText() == tag; },
            {{2, Value::Text_("t" + std::to_string(rng.NextBelow(5)))}});
        break;
      }
      case 6: {
        const std::int64_t cutoff =
            static_cast<std::int64_t>(rng.NextBelow(200));
        (void)database.Delete("child", [cutoff](const Row& row) {
          return row[0].AsInteger() < cutoff % 37;
        });
        break;
      }
      case 7:
        (void)database.Delete("parent", [&rng](const Row& row) {
          return row[0].AsInteger() ==
                 static_cast<std::int64_t>(rng.NextBelow(50));
        });
        break;
      case 8:
        ASSERT_TRUE(database.Commit().ok());
        break;
      case 9:
        ASSERT_TRUE(database.Compact().ok());
        break;
    }
  }
  ASSERT_TRUE(database.Commit().ok());
  const std::string expected = ExactDump(database);

  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(ExactDump(*reopened), expected);

  // Compact -> reopen is idempotent: the fold into snapshots and the
  // reload from them are logically invisible, any number of times.
  ASSERT_TRUE(reopened->Compact().ok());
  EXPECT_EQ(ExactDump(*reopened), expected);
  ASSERT_TRUE(reopened->Compact().ok());
  auto reloaded = Database::Open(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(ExactDump(*reloaded), expected);

  // Constraints survived replay: duplicate child PK still rejected.
  if (next_id > 0 && reloaded->FindTable("child")->row_count() > 0) {
    const Row& first = reloaded->FindTable("child")->row(0);
    EXPECT_FALSE(reloaded->Insert("child",
                                  {first[0], Value::Null(),
                                   Value::Text_("dup")}).ok());
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalPersistenceFuzz, ::testing::Range(0, 16));

// ---- text import -----------------------------------------------------

// The committed text-format fixture (tests/fixtures/legacy_text_db, a
// 10-experiment campaign): file name -> bytes.
std::map<std::string, std::string> LoadTextFixture() {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(GOOFI_LEGACY_DB_DIR)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

// One random damage to one file: a byte flip, a truncation, a dropped
// or duplicated line, or a hostile table name in the manifest.
void Mutate(Rng& rng, std::map<std::string, std::string>& files) {
  auto it = files.begin();
  std::advance(it, static_cast<long>(rng.NextBelow(files.size())));
  std::string& bytes = it->second;
  std::vector<std::string> lines = Lines(bytes);
  switch (rng.NextBelow(5)) {
    case 0:
      if (!bytes.empty()) {
        bytes[rng.NextBelow(bytes.size())] ^=
            static_cast<char>(1 + rng.NextBelow(255));
      }
      break;
    case 1:
      bytes.resize(rng.NextBelow(bytes.size() + 1));
      break;
    case 2:
      if (!lines.empty()) {
        lines.erase(lines.begin() +
                    static_cast<long>(rng.NextBelow(lines.size())));
        bytes = Join(lines);
      }
      break;
    case 3:
      if (!lines.empty()) {
        const std::size_t line = rng.NextBelow(lines.size());
        lines.insert(lines.begin() + static_cast<long>(line), lines[line]);
        bytes = Join(lines);
      }
      break;
    case 4: {
      static const char* const kHostileNames[] = {
          "../x", "..", "/etc/passwd", "a b", "9lives", "CampaignData\t",
          "x/../../CampaignData", "LoggedSystemState.rows"};
      std::vector<std::string> manifest = Lines(files["manifest.txt"]);
      const std::string name = kHostileNames[rng.NextBelow(8)];
      if (manifest.empty() || rng.NextBool(0.5)) {
        manifest.insert(manifest.begin() + static_cast<long>(rng.NextBelow(
                                               manifest.size() + 1)),
                        name);
      } else {
        manifest[rng.NextBelow(manifest.size())] = name;
      }
      files["manifest.txt"] = Join(manifest);
      break;
    }
  }
}

TEST(TextImportTest, FixtureImportsCleanly) {
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_import_fixture").string();
  fs::create_directories(dir);
  for (const auto& [name, bytes] : LoadTextFixture()) {
    std::ofstream(fs::path(dir) / name, std::ios::binary) << bytes;
  }
  auto imported = ImportTextDirectory(dir);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imported->FindTable("LoggedSystemState")->row_count(), 11u);
}

class TextImportFuzz : public ::testing::TestWithParam<int> {};

// Oracle: a database or a typed error, for every mutant. An imported
// mutant must also survive the rest of the migration: attach a WAL and
// reopen to the same rows.
TEST_P(TextImportFuzz, MutantsImportOrFailTyped) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ULL +
          0xD1B54A32D192ED03ULL);
  const std::map<std::string, std::string> fixture = LoadTextFixture();
  ASSERT_TRUE(fixture.count("manifest.txt"));
  constexpr int kMutants = 24;
  for (int mutant = 0; mutant < kMutants; ++mutant) {
    std::map<std::string, std::string> files = fixture;
    const std::size_t damage = 1 + rng.NextBelow(3);
    for (std::size_t d = 0; d < damage; ++d) Mutate(rng, files);

    const fs::path dir = test_util::ProcessTempDir() /
                         ("goofi_import_fuzz_" + std::to_string(mutant));
    fs::create_directories(dir);
    for (const auto& [name, bytes] : files) {
      std::ofstream(dir / name, std::ios::binary) << bytes;
    }
    auto imported = ImportTextDirectory(dir.string());
    if (!imported.ok()) {
      const ErrorCode code = imported.status().code();
      EXPECT_NE(code, ErrorCode::kOk);
      EXPECT_NE(code, ErrorCode::kInternal) << imported.status().ToString();
      EXPECT_FALSE(imported.status().message().empty());
    } else {
      const std::string expected = ExactDump(*imported);
      const fs::path wal_dir = dir / "wal";
      ASSERT_TRUE(imported->AttachWal(wal_dir.string()).ok());
      auto reopened = Database::Open(wal_dir.string());
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ(ExactDump(*reopened), expected);
    }
    fs::remove_all(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextImportFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace goofi::db
