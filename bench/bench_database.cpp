// Experiment T-DB / T-STORAGE (DESIGN.md): throughput of the embedded
// relational engine — the lowest layer of the paper's Fig. 1
// architecture. Campaign logging writes one LoggedSystemState row per
// experiment; the analysis phase reads them back with SQL.
//
// Before the google-benchmark microbenches run, main() produces the
// storage-engine report (BENCH_database.json): durable append
// throughput of the WAL group commit against the legacy full-rewrite
// text save at a campaign-scale row count, and indexed point queries
// against the full scan. Row count defaults to 100000; override with
// GOOFI_BENCH_DB_ROWS for quick runs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "bench_util.h"
#include "core/goofi_schema.h"
#include "db/sql/executor.h"
#include "db/sql/parser.h"
#include "test_util/temp_dir.h"
#include "util/strings.h"

namespace {

using namespace goofi;
using db::Value;

db::Database MakeGoofiDb() {
  db::Database database;
  if (!core::CreateGoofiSchema(database).ok()) std::abort();
  if (!database
           .Insert("TargetSystemData",
                   {Value::Text_("thor_rd"), Value::Text_("card"),
                    Value::Text_("bench")})
           .ok()) {
    std::abort();
  }
  if (!database
           .Insert(
               "CampaignData",
               {Value::Text_("bench"), Value::Text_("thor_rd"),
                Value::Text_("scifi"), Value::Text_("isort"),
                Value::Integer(1000), Value::Integer(1),
                Value::Text_("transient"), Value::Integer(1),
                Value::Text_(""), Value::Integer(0), Value::Integer(0),
                Value::Text_("instret"), Value::Integer(0),
                Value::Integer(0), Value::Text_("normal"),
                Value::Integer(0), Value::Integer(0), Value::Integer(0),
                Value::Integer(1), Value::Integer(0),
                Value::Text_("configured"), Value::Integer(0),
                Value::Integer(0), Value::Integer(0), Value::Integer(0),
                Value::Integer(0), Value::Integer(0), Value::Null()})
           .ok()) {
    std::abort();
  }
  return database;
}

db::Row LoggedRow(int i) {
  return {Value::Text_(StrFormat("bench/exp%07d", i)), Value::Null(),
          Value::Text_("bench"),
          Value::Text_("technique=scifi;targets=cpu.regs.r3:5"),
          Value::Text_("stop=halted\ninstructions=2639\n"),
          Value::Integer(1), Value::Text_(StrFormat("s%03d", i % 997)),
          Value::Integer(0), Value::Null(), Value::Null()};
}

// ---- storage-engine report (BENCH_database.json) ------------------------

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

void AppendRows(db::Database& database, int first, int count) {
  for (int i = 0; i < count; ++i) {
    if (!database.Insert("LoggedSystemState", LoggedRow(first + i)).ok()) {
      std::abort();
    }
  }
}

void RunStorageReport() {
  namespace fs = std::filesystem;
  using clock = std::chrono::steady_clock;

  int rows = 100000;
  if (const char* env = std::getenv("GOOFI_BENCH_DB_ROWS")) {
    rows = std::max(1000, std::atoi(env));
  }
  constexpr int kBatch = 256;  // rows per durable checkpoint

  bench::BenchJson json("database");

  // Durable bulk load: FK-checked inserts group-committed every kBatch
  // rows, the runner's WAL checkpoint cadence.
  const std::string wal_dir = (test_util::ProcessTempDir() / "wal").string();
  fs::remove_all(wal_dir);
  db::Database wal_db = MakeGoofiDb();
  if (!wal_db.AttachWal(wal_dir).ok()) std::abort();
  auto begin = clock::now();
  for (int i = 0; i < rows; i += kBatch) {
    AppendRows(wal_db, i, std::min(kBatch, rows - i));
    if (!wal_db.Commit().ok()) std::abort();
  }
  double elapsed = Seconds(begin, clock::now());
  json.BeginEntry()
      .Field("mode", "wal_bulk_load")
      .Field("rows", static_cast<std::uint64_t>(rows))
      .Field("batch", static_cast<std::uint64_t>(kBatch))
      .Field("seconds", elapsed)
      .Field("rows_per_sec", rows / elapsed);

  // Steady-state appends at full size: what one more checkpoint costs
  // once the campaign already holds `rows` experiments.
  constexpr int kWalCheckpoints = 8;
  begin = clock::now();
  for (int k = 0; k < kWalCheckpoints; ++k) {
    AppendRows(wal_db, rows + k * kBatch, kBatch);
    if (!wal_db.Commit().ok()) std::abort();
  }
  const double wal_per_checkpoint =
      Seconds(begin, clock::now()) / kWalCheckpoints;
  json.BeginEntry()
      .Field("mode", "wal_checkpoint_append")
      .Field("base_rows", static_cast<std::uint64_t>(rows))
      .Field("batch", static_cast<std::uint64_t>(kBatch))
      .Field("seconds_per_checkpoint", wal_per_checkpoint)
      .Field("appended_rows_per_sec", kBatch / wal_per_checkpoint);

  // The legacy model: every checkpoint rewrites the whole database as
  // text files.
  const std::string text_dir =
      (test_util::ProcessTempDir() / "text").string();
  fs::remove_all(text_dir);
  db::Database text_db = MakeGoofiDb();
  AppendRows(text_db, 0, rows);
  if (!text_db.SaveToDirectory(text_dir).ok()) std::abort();  // warm-up
  constexpr int kTextCheckpoints = 3;
  begin = clock::now();
  for (int k = 0; k < kTextCheckpoints; ++k) {
    AppendRows(text_db, rows + k * kBatch, kBatch);
    if (!text_db.SaveToDirectory(text_dir).ok()) std::abort();
  }
  const double text_per_checkpoint =
      Seconds(begin, clock::now()) / kTextCheckpoints;
  json.BeginEntry()
      .Field("mode", "text_full_rewrite_checkpoint")
      .Field("base_rows", static_cast<std::uint64_t>(rows))
      .Field("batch", static_cast<std::uint64_t>(kBatch))
      .Field("seconds_per_checkpoint", text_per_checkpoint)
      .Field("appended_rows_per_sec", kBatch / text_per_checkpoint);
  json.BeginEntry()
      .Field("mode", "append_speedup")
      .Field("wal_vs_text_full_rewrite",
             text_per_checkpoint / wal_per_checkpoint);

  // Point queries on the secondary-indexed tool_status column (~0.1%
  // selectivity at 997 distinct keys) with and without the index.
  const std::string query =
      "SELECT COUNT(*) FROM LoggedSystemState WHERE tool_status = 's123'";
  auto run_query = [&](int repetitions) {
    const auto query_begin = clock::now();
    for (int q = 0; q < repetitions; ++q) {
      auto result = db::sql::ExecuteSql(wal_db, query);
      if (!result.ok() || result->rows.size() != 1) std::abort();
      benchmark::DoNotOptimize(result->rows);
    }
    return Seconds(query_begin, clock::now()) / repetitions;
  };
  db::sql::SetIndexScanEnabled(false);
  const double scan_per_query = run_query(20);
  db::sql::SetIndexScanEnabled(true);
  db::sql::ResetIndexScanCount();
  const double indexed_per_query = run_query(500);
  if (db::sql::IndexScanCount() == 0) std::abort();
  json.BeginEntry()
      .Field("mode", "query_full_scan")
      .Field("rows", static_cast<std::uint64_t>(rows))
      .Field("seconds_per_query", scan_per_query);
  json.BeginEntry()
      .Field("mode", "query_indexed")
      .Field("rows", static_cast<std::uint64_t>(rows))
      .Field("seconds_per_query", indexed_per_query);
  json.BeginEntry()
      .Field("mode", "query_speedup")
      .Field("indexed_vs_scan", scan_per_query / indexed_per_query);

  json.Write();
  fs::remove_all(wal_dir);
  fs::remove_all(text_dir);
}

// ---- microbenches -------------------------------------------------------

void BM_FkCheckedInsert(benchmark::State& state) {
  db::Database database = MakeGoofiDb();
  int i = 0;
  for (auto _ : state) {
    if (!database.Insert("LoggedSystemState", LoggedRow(i++)).ok()) {
      std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FkCheckedInsert);

void BM_WalCommittedInsert(benchmark::State& state) {
  // FK checks plus durable group commit every 256 rows.
  namespace fs = std::filesystem;
  const std::string dir =
      (test_util::ProcessTempDir() / "wal_insert").string();
  fs::remove_all(dir);
  db::Database database = MakeGoofiDb();
  if (!database.AttachWal(dir).ok()) std::abort();
  int i = 0;
  for (auto _ : state) {
    if (!database.Insert("LoggedSystemState", LoggedRow(i++)).ok()) {
      std::abort();
    }
    if (i % 256 == 0 && !database.Commit().ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove_all(dir);
}
BENCHMARK(BM_WalCommittedInsert);

void BM_PlainTableInsert(benchmark::State& state) {
  // Same row shape without FK checking, for the constraint overhead.
  db::TableSchema schema("plain");
  (void)schema.AddColumn({"experiment_name", db::ColumnType::kText, false,
                          false, true});
  (void)schema.AddColumn({"parent", db::ColumnType::kText});
  (void)schema.AddColumn({"campaign", db::ColumnType::kText, true});
  (void)schema.AddColumn({"data", db::ColumnType::kText});
  (void)schema.AddColumn({"state", db::ColumnType::kText});
  (void)schema.AddColumn({"attempts", db::ColumnType::kInteger});
  (void)schema.AddColumn({"tool_status", db::ColumnType::kText});
  (void)schema.AddColumn({"quarantined", db::ColumnType::kInteger});
  (void)schema.AddColumn({"equiv_class", db::ColumnType::kText});
  (void)schema.AddColumn({"equiv_weight", db::ColumnType::kInteger});
  db::Table table(schema);
  int i = 0;
  for (auto _ : state) {
    if (!table.Insert(LoggedRow(i++)).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlainTableInsert);

void BM_IndexedPointLookup(benchmark::State& state) {
  db::Database database = MakeGoofiDb();
  const int rows = static_cast<int>(state.range(0));
  for (int i = 0; i < rows; ++i) {
    (void)database.Insert("LoggedSystemState", LoggedRow(i));
  }
  const db::Table* table = database.FindTable("LoggedSystemState");
  int i = 0;
  for (auto _ : state) {
    const auto found = table->FindByUnique(
        0, Value::Text_(StrFormat("bench/exp%07d", i++ % rows)));
    if (!found) std::abort();
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedPointLookup)->Arg(1000)->Arg(10000);

void BM_SqlSelectWhereIndexed(benchmark::State& state) {
  // Equality on the secondary-indexed tool_status column; toggled by
  // the bench arg so the two modes show up side by side.
  db::Database database = MakeGoofiDb();
  const int rows = 10000;
  for (int i = 0; i < rows; ++i) {
    (void)database.Insert("LoggedSystemState", LoggedRow(i));
  }
  db::sql::SetIndexScanEnabled(state.range(0) != 0);
  for (auto _ : state) {
    auto result = db::sql::ExecuteSql(
        database,
        "SELECT COUNT(*) FROM LoggedSystemState WHERE tool_status = 's42'");
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->rows);
  }
  db::sql::SetIndexScanEnabled(true);
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SqlSelectWhereIndexed)->Arg(0)->Arg(1);

void BM_SqlSelectWhereScan(benchmark::State& state) {
  db::Database database = MakeGoofiDb();
  const int rows = static_cast<int>(state.range(0));
  for (int i = 0; i < rows; ++i) {
    (void)database.Insert("LoggedSystemState", LoggedRow(i));
  }
  for (auto _ : state) {
    auto result = db::sql::ExecuteSql(
        database,
        "SELECT COUNT(*) FROM LoggedSystemState WHERE campaign_name = "
        "'bench' AND parent_experiment IS NULL");
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SqlSelectWhereScan)->Arg(1000)->Arg(10000);

void BM_SqlParseOnly(benchmark::State& state) {
  const std::string sql =
      "SELECT experiment_name, state_vector FROM LoggedSystemState WHERE "
      "campaign_name = 'bench' AND experiment_data LIKE '%cpu.regs%' "
      "ORDER BY experiment_name DESC LIMIT 25";
  for (auto _ : state) {
    auto parsed = db::sql::ParseStatement(sql);
    if (!parsed.ok()) std::abort();
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlParseOnly);

void BM_SqlGroupByAggregate(benchmark::State& state) {
  db::Database database;
  if (!db::sql::ExecuteSql(database,
                           "CREATE TABLE outcomes (id INTEGER PRIMARY KEY, "
                           "class TEXT, bits INTEGER)")
           .ok()) {
    std::abort();
  }
  const char* classes[] = {"detected", "escaped", "latent", "overwritten"};
  for (int i = 0; i < 4000; ++i) {
    (void)database.Insert("outcomes",
                          {Value::Integer(i), Value::Text_(classes[i % 4]),
                           Value::Integer(i % 97)});
  }
  for (auto _ : state) {
    auto result = db::sql::ExecuteSql(
        database,
        "SELECT class, COUNT(*), AVG(bits) FROM outcomes GROUP BY class");
    if (!result.ok() || result->rows.size() != 4) std::abort();
    benchmark::DoNotOptimize(result->rows);
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_SqlGroupByAggregate);

void BM_SaveLoadRoundTrip(benchmark::State& state) {
  db::Database database = MakeGoofiDb();
  for (int i = 0; i < 500; ++i) {
    (void)database.Insert("LoggedSystemState", LoggedRow(i));
  }
  const std::string dir = (test_util::ProcessTempDir() / "db").string();
  for (auto _ : state) {
    if (!database.SaveToDirectory(dir).ok()) std::abort();
    auto loaded = db::Database::LoadFromDirectory(dir);
    if (!loaded.ok()) std::abort();
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SaveLoadRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  RunStorageReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
