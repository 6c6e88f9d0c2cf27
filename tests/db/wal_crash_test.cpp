// GOOFI injecting faults into itself: the WAL storage engine driven
// through a fault-injecting WalFile and a scripted sweep of crash
// points. The property under test is the recovery contract of
// db/wal.h — after any torn write, truncated log, or flipped bit,
// reopening the directory restores exactly the state at some commit
// boundary (the last one the damage left intact), never a partial
// batch and never a partial row.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/wal.h"
#include "test_util/temp_dir.h"

namespace goofi::db {
namespace {

namespace fs = std::filesystem;

// ---- fault-injecting WalFile -------------------------------------------

// Shared crash plan: the file dies after `remaining` appended bytes.
struct FaultState {
  explicit FaultState(std::uint64_t budget) : remaining(budget) {}
  std::uint64_t remaining;
  bool dead = false;
};

// Decorator over the production log file that models a power cut: the
// first append crossing the byte budget lands only its prefix (a torn
// write) and every operation afterwards fails.
class FaultyFile : public wal::WalFile {
 public:
  FaultyFile(std::unique_ptr<wal::WalFile> inner,
             std::shared_ptr<FaultState> state)
      : inner_(std::move(inner)), state_(std::move(state)) {}

  Status Append(std::string_view bytes) override {
    if (state_->dead) return DataLossError("simulated crash");
    if (bytes.size() <= state_->remaining) {
      state_->remaining -= bytes.size();
      return inner_->Append(bytes);
    }
    const std::string_view torn = bytes.substr(0, state_->remaining);
    state_->remaining = 0;
    state_->dead = true;
    (void)inner_->Append(torn);
    (void)inner_->Sync();
    return DataLossError("simulated crash (torn write)");
  }

  Status Sync() override {
    if (state_->dead) return DataLossError("simulated crash");
    return inner_->Sync();
  }

 private:
  std::unique_ptr<wal::WalFile> inner_;
  std::shared_ptr<FaultState> state_;
};

wal::WalFileFactory FaultyFactory(std::shared_ptr<FaultState> state) {
  return [state](const std::string& path)
             -> Result<std::unique_ptr<wal::WalFile>> {
    auto inner = wal::OpenLogFile(path);
    if (!inner.ok()) return inner.status();
    return std::unique_ptr<wal::WalFile>(
        new FaultyFile(std::move(*inner), state));
  };
}

// ---- scripted workload --------------------------------------------------

// Canonical dump of the full database state; two databases with equal
// dumps hold identical schemas and identical rows in identical order.
std::string DumpDatabase(const Database& database) {
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

// One commit batch of the scripted campaign-like workload. Exercises
// every record type: schema DDL, inserts (with FK links and hostile
// bytes), in-place updates, deletes, and a table drop.
Status ApplyBatch(Database& database, int step) {
  if (step == 0) {
    TableSchema parent("parent");
    RETURN_IF_ERROR(parent.AddColumn(
        {"key", ColumnType::kInteger, false, false, true}));
    RETURN_IF_ERROR(parent.AddColumn({"payload", ColumnType::kText}));
    RETURN_IF_ERROR(database.CreateTable(parent));

    TableSchema event("event");
    RETURN_IF_ERROR(event.AddColumn(
        {"id", ColumnType::kInteger, false, false, true}));
    RETURN_IF_ERROR(event.AddColumn({"parent_key", ColumnType::kInteger}));
    RETURN_IF_ERROR(event.AddColumn(
        {"campaign", ColumnType::kText, false, false, false, true}));
    RETURN_IF_ERROR(event.AddColumn({"note", ColumnType::kText}));
    RETURN_IF_ERROR(event.AddForeignKey({"parent_key", "parent", "key"}));
    RETURN_IF_ERROR(database.CreateTable(event));

    for (int k = 0; k < 3; ++k) {
      RETURN_IF_ERROR(database.Insert(
          "parent",
          {Value::Integer(k), Value::Text_("p" + std::to_string(k))}));
    }
    return Status::Ok();
  }

  if (step == 2) {
    TableSchema scratch("scratch");
    RETURN_IF_ERROR(scratch.AddColumn(
        {"n", ColumnType::kInteger, false, false, true}));
    RETURN_IF_ERROR(database.CreateTable(scratch));
    for (int k = 0; k < 5; ++k) {
      RETURN_IF_ERROR(database.Insert("scratch", {Value::Integer(k)}));
    }
  }
  if (step == 8) RETURN_IF_ERROR(database.DropTable("scratch"));

  const int base = step * 10;
  for (int k = 0; k < 4; ++k) {
    RETURN_IF_ERROR(database.Insert(
        "event",
        {Value::Integer(base + k), Value::Integer((base + k) % 3),
         Value::Text_("c" + std::to_string(k % 3)),
         Value::Text_("note\t\n" +
                      std::string(1, static_cast<char>(step * 16 + k)))}));
  }
  if (step % 3 == 0) {
    RETURN_IF_ERROR(
        database
            .Update(
                "event",
                [](const Row& row) { return row[2].AsText() == "c1"; },
                {{3, Value::Text_("touched" + std::to_string(step))}})
            .status());
  }
  if (step % 4 == 1 && step > 1) {
    RETURN_IF_ERROR(
        database
            .Delete("event",
                    [](const Row& row) {
                      return row[0].AsInteger() % 5 == 0;
                    })
            .status());
  }
  return Status::Ok();
}

constexpr int kBatches = 12;

// A completed scripted run: the WAL directory, the raw log bytes, and
// the (log size, state dump) pair at every commit boundary. Boundary 0
// is the empty state snapshotted by AttachWal.
struct ScriptedRun {
  std::string dir;
  std::string log_bytes;
  std::vector<std::pair<std::uint64_t, std::string>> boundaries;
};

void BuildScriptedRun(const fs::path& dir, ScriptedRun* out) {
  fs::remove_all(dir);
  out->dir = dir.string();
  Database database;
  ASSERT_TRUE(database.AttachWal(out->dir).ok());
  database.set_compaction_threshold(0);  // keep every record in the log
  out->boundaries.emplace_back(0, DumpDatabase(database));
  for (int step = 0; step < kBatches; ++step) {
    ASSERT_TRUE(ApplyBatch(database, step).ok()) << "step " << step;
    ASSERT_TRUE(database.Commit().ok()) << "step " << step;
    out->boundaries.emplace_back(fs::file_size(dir / "wal.log"),
                                 DumpDatabase(database));
  }
  auto log = wal::ReadFileBytes((dir / "wal.log").string());
  ASSERT_TRUE(log.ok());
  out->log_bytes = *std::move(log);
  ASSERT_EQ(out->log_bytes.size(), out->boundaries.back().first);
}

// Clone a WAL directory, substituting the given log bytes (a truncated
// or corrupted variant of the original).
void CloneWalDirectory(const std::string& src, const std::string& dst,
                       const std::string& log_bytes) {
  fs::remove_all(dst);
  fs::create_directories(dst);
  for (const auto& entry : fs::directory_iterator(src)) {
    const std::string name = entry.path().filename().string();
    if (name == "wal.log") continue;
    fs::copy_file(entry.path(), fs::path(dst) / name);
  }
  std::ofstream log(fs::path(dst) / "wal.log", std::ios::binary);
  log.write(log_bytes.data(),
            static_cast<std::streamsize>(log_bytes.size()));
}

// The state the recovery contract promises for a log cut at `cut`
// bytes: the largest commit boundary at or below the cut.
std::string ExpectedAtCut(const ScriptedRun& run, std::uint64_t cut) {
  std::string expected;
  for (const auto& [offset, dump] : run.boundaries) {
    if (offset <= cut) expected = dump;
  }
  return expected;
}

// ---- the crash sweeps ---------------------------------------------------

TEST(WalCrashTest, CutPointSweepRecoversToLastCommit) {
  const fs::path base = test_util::ProcessTempDir() / "goofi_wal_cut";
  ScriptedRun run;
  BuildScriptedRun(base / "full", &run);

  const std::uint64_t total = run.log_bytes.size();
  std::set<std::uint64_t> cuts;
  const std::uint64_t stride = std::max<std::uint64_t>(1, total / 384);
  for (std::uint64_t cut = 0; cut <= total; cut += stride) cuts.insert(cut);
  // Dense coverage around every commit boundary, where the torn-tail /
  // exact-frame-end distinctions live.
  for (const auto& [offset, dump] : run.boundaries) {
    for (std::uint64_t delta = 0; delta <= 3; ++delta) {
      if (offset + delta <= total) cuts.insert(offset + delta);
      if (offset >= delta) cuts.insert(offset - delta);
    }
  }
  ASSERT_GE(cuts.size(), 100u) << "sweep must cover >= 100 crash points";

  const std::string copy = (base / "cut").string();
  for (const std::uint64_t cut : cuts) {
    CloneWalDirectory(run.dir, copy, run.log_bytes.substr(0, cut));
    auto reopened = Database::Open(copy);
    ASSERT_TRUE(reopened.ok())
        << "cut=" << cut << ": " << reopened.status().ToString();
    EXPECT_EQ(DumpDatabase(*reopened), ExpectedAtCut(run, cut))
        << "cut=" << cut;
  }
  fs::remove_all(base);
}

TEST(WalCrashTest, TornWritesRecoverToLastSuccessfulCommit) {
  const fs::path base = test_util::ProcessTempDir() / "goofi_wal_torn";
  fs::remove_all(base);

  // Size the budget sweep off an undamaged run.
  ScriptedRun intact;
  BuildScriptedRun(base / "intact", &intact);
  const std::uint64_t appended =
      intact.log_bytes.size() - wal::kWalHeaderSize;

  constexpr int kBudgets = 40;
  for (int i = 0; i <= kBudgets; ++i) {
    // Unaligned budgets so most crashes land mid-frame.
    const std::uint64_t budget =
        appended * static_cast<std::uint64_t>(i) / kBudgets +
        static_cast<std::uint64_t>(i % 7);
    const std::string dir = (base / ("budget" + std::to_string(i))).string();
    fs::remove_all(dir);

    auto state = std::make_shared<FaultState>(budget);
    Database database;
    ASSERT_TRUE(database.AttachWal(dir, FaultyFactory(state)).ok());
    database.set_compaction_threshold(0);
    std::string last_committed = DumpDatabase(database);
    bool crashed = false;
    for (int step = 0; step < kBatches && !crashed; ++step) {
      ASSERT_TRUE(ApplyBatch(database, step).ok());
      if (database.Commit().ok()) {
        last_committed = DumpDatabase(database);
      } else {
        crashed = true;
      }
    }
    // Reopen with the real file: recovery must land exactly on the
    // last group commit that fully reached the disk.
    auto reopened = Database::Open(dir);
    ASSERT_TRUE(reopened.ok())
        << "budget=" << budget << ": " << reopened.status().ToString();
    EXPECT_EQ(DumpDatabase(*reopened), last_committed)
        << "budget=" << budget << " crashed=" << crashed;
    fs::remove_all(dir);
  }
  fs::remove_all(base);
}

TEST(WalCrashTest, BitFlipsNeverExposePartialBatches) {
  const fs::path base = test_util::ProcessTempDir() / "goofi_wal_flip";
  ScriptedRun run;
  BuildScriptedRun(base / "full", &run);

  std::set<std::string> committed_states;
  for (const auto& [offset, dump] : run.boundaries) {
    committed_states.insert(dump);
  }

  const std::uint64_t total = run.log_bytes.size();
  std::set<std::uint64_t> positions{0, 4, 8, 12, 16, 23};  // header fields
  const std::uint64_t stride = std::max<std::uint64_t>(1, total / 64);
  for (std::uint64_t pos = 0; pos < total; pos += stride) {
    positions.insert(pos);
  }

  const std::string copy = (base / "flip").string();
  for (const std::uint64_t pos : positions) {
    std::string corrupted = run.log_bytes;
    corrupted[pos] ^= static_cast<char>(1u << (pos % 8));
    CloneWalDirectory(run.dir, copy, corrupted);
    auto reopened = Database::Open(copy);
    ASSERT_TRUE(reopened.ok())
        << "flip at " << pos << ": " << reopened.status().ToString();
    // Whatever the flip hit — header, length, CRC, payload — recovery
    // lands on SOME commit boundary, never between two.
    EXPECT_EQ(committed_states.count(DumpDatabase(*reopened)), 1u)
        << "flip at byte " << pos << " exposed a non-committed state";
  }
  fs::remove_all(base);
}

TEST(WalCrashTest, CompactionCrashWindowFallsBackToSnapshots) {
  const fs::path base = test_util::ProcessTempDir() / "goofi_wal_compact";
  ScriptedRun run;
  BuildScriptedRun(base / "full", &run);
  const std::string final_state = run.boundaries.back().second;

  {
    auto database = Database::Open(run.dir);
    ASSERT_TRUE(database.ok());
    ASSERT_TRUE(database->Compact().ok());
    EXPECT_EQ(database->generation(), 1u);
    EXPECT_EQ(DumpDatabase(*database), final_state);
  }

  // A crash between the manifest rename (generation 1) and the log
  // replacement leaves the old generation-0 log beside new snapshots.
  // The manifest is the commit point: the stale log must be ignored.
  {
    std::ofstream log(fs::path(run.dir) / "wal.log", std::ios::binary);
    log.write(run.log_bytes.data(),
              static_cast<std::streamsize>(run.log_bytes.size()));
  }
  auto recovered = Database::Open(run.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(DumpDatabase(*recovered), final_state);
  EXPECT_EQ(recovered->generation(), 1u);

  // Snapshot damage, by contrast, is NOT silently recoverable: a bit
  // flip inside a checksummed snapshot must surface as an error, not
  // as wrong rows.
  const fs::path snap = fs::path(run.dir) / "event.1.snap";
  ASSERT_TRUE(fs::exists(snap));
  auto bytes = wal::ReadFileBytes(snap.string());
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] ^= 0x10;
  ASSERT_TRUE(wal::WriteFileAtomic(snap.string(), corrupted).ok());
  auto damaged = Database::Open(run.dir);
  EXPECT_FALSE(damaged.ok());
  fs::remove_all(base);
}

}  // namespace
}  // namespace goofi::db
