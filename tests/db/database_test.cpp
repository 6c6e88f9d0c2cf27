#include "db/database.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "test_util/temp_dir.h"

namespace goofi::db {
namespace {

TableSchema ParentSchema() {
  TableSchema schema("parent");
  EXPECT_TRUE(schema.AddColumn({"key", ColumnType::kText, false, false,
                                true}).ok());
  EXPECT_TRUE(schema.AddColumn({"info", ColumnType::kText, false, false,
                                false}).ok());
  return schema;
}

TableSchema ChildSchema() {
  TableSchema schema("child");
  EXPECT_TRUE(schema.AddColumn({"id", ColumnType::kInteger, false, false,
                                true}).ok());
  EXPECT_TRUE(schema.AddColumn({"parent_key", ColumnType::kText, false,
                                false, false}).ok());
  EXPECT_TRUE(schema.AddForeignKey({"parent_key", "parent", "key"}).ok());
  return schema;
}

Database MakeLinked() {
  Database database;
  EXPECT_TRUE(database.CreateTable(ParentSchema()).ok());
  EXPECT_TRUE(database.CreateTable(ChildSchema()).ok());
  EXPECT_TRUE(database.Insert("parent", {Value::Text_("p1"),
                                         Value::Text_("first")}).ok());
  EXPECT_TRUE(database.Insert("parent", {Value::Text_("p2"),
                                         Value::Null()}).ok());
  EXPECT_TRUE(database.Insert("child", {Value::Integer(1),
                                        Value::Text_("p1")}).ok());
  return database;
}

TEST(DatabaseTest, CreateAndLookupTables) {
  Database database = MakeLinked();
  EXPECT_TRUE(database.HasTable("parent"));
  EXPECT_NE(database.FindTable("child"), nullptr);
  EXPECT_EQ(database.FindTable("ghost"), nullptr);
  EXPECT_EQ(database.TableNames().size(), 2u);
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database database = MakeLinked();
  EXPECT_EQ(database.CreateTable(ParentSchema()).code(),
            ErrorCode::kAlreadyExists);
}

TEST(DatabaseTest, ForeignKeyMustReferenceExistingTable) {
  Database database;
  TableSchema schema("orphan");
  ASSERT_TRUE(schema.AddColumn({"x", ColumnType::kText, false, false,
                                true}).ok());
  ASSERT_TRUE(schema.AddForeignKey({"x", "nowhere", "key"}).ok());
  EXPECT_EQ(database.CreateTable(schema).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DatabaseTest, ForeignKeyMustReferenceUniqueColumn) {
  Database database;
  ASSERT_TRUE(database.CreateTable(ParentSchema()).ok());
  TableSchema schema("bad");
  ASSERT_TRUE(schema.AddColumn({"x", ColumnType::kText, false, false,
                                true}).ok());
  ASSERT_TRUE(schema.AddForeignKey({"x", "parent", "info"}).ok());
  EXPECT_EQ(database.CreateTable(schema).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DatabaseTest, InsertNeedsParent) {
  Database database = MakeLinked();
  EXPECT_EQ(database.Insert("child", {Value::Integer(2),
                                      Value::Text_("missing")}).code(),
            ErrorCode::kConstraintViolation);
  // NULL FK is allowed.
  EXPECT_TRUE(database.Insert("child", {Value::Integer(2),
                                        Value::Null()}).ok());
}

TEST(DatabaseTest, DeleteRestrictedByChildren) {
  Database database = MakeLinked();
  const auto blocked = database.Delete("parent", [](const Row& row) {
    return row[0].AsText() == "p1";
  });
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), ErrorCode::kConstraintViolation);
  // p2 has no children: deletable.
  const auto removed = database.Delete("parent", [](const Row& row) {
    return row[0].AsText() == "p2";
  });
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
}

TEST(DatabaseTest, DeleteChildThenParentWorks) {
  Database database = MakeLinked();
  ASSERT_TRUE(database.Delete("child", [](const Row&) {
                                return true;
                              }).ok());
  EXPECT_TRUE(database.Delete("parent", [](const Row&) {
                                return true;
                              }).ok());
}

TEST(DatabaseTest, UpdateParentKeyRestricted) {
  Database database = MakeLinked();
  const auto blocked = database.Update(
      "parent", [](const Row& row) { return row[0].AsText() == "p1"; },
      {{0, Value::Text_("renamed")}});
  EXPECT_EQ(blocked.status().code(), ErrorCode::kConstraintViolation);
  // Updating a non-key column is fine.
  EXPECT_TRUE(database.Update("parent",
                              [](const Row& row) {
                                return row[0].AsText() == "p1";
                              },
                              {{1, Value::Text_("changed")}}).ok());
}

TEST(DatabaseTest, UpdateChildFkChecked) {
  Database database = MakeLinked();
  const auto bad = database.Update(
      "child", [](const Row&) { return true; },
      {{1, Value::Text_("nope")}});
  EXPECT_EQ(bad.status().code(), ErrorCode::kConstraintViolation);
  EXPECT_TRUE(database.Update("child", [](const Row&) { return true; },
                              {{1, Value::Text_("p2")}}).ok());
}

TEST(DatabaseTest, DropRestrictedWhileReferenced) {
  Database database = MakeLinked();
  EXPECT_EQ(database.DropTable("parent").code(),
            ErrorCode::kConstraintViolation);
  EXPECT_TRUE(database.DropTable("child").ok());
  EXPECT_TRUE(database.DropTable("parent").ok());
  EXPECT_EQ(database.DropTable("parent").code(), ErrorCode::kNotFound);
}

TableSchema SelfRefSchema() {
  // Mirrors LoggedSystemState.parentExperiment.
  TableSchema schema("tree");
  EXPECT_TRUE(schema.AddColumn({"name", ColumnType::kText, false, false,
                                true}).ok());
  EXPECT_TRUE(schema.AddColumn({"parent", ColumnType::kText, false, false,
                                false}).ok());
  EXPECT_TRUE(schema.AddForeignKey({"parent", "tree", "name"}).ok());
  return schema;
}

TEST(DatabaseTest, SelfReferencingForeignKey) {
  Database database;
  ASSERT_TRUE(database.CreateTable(SelfRefSchema()).ok());
  EXPECT_TRUE(database.Insert("tree", {Value::Text_("root"),
                                       Value::Null()}).ok());
  EXPECT_TRUE(database.Insert("tree", {Value::Text_("leaf"),
                                       Value::Text_("root")}).ok());
  EXPECT_EQ(database.Insert("tree", {Value::Text_("orphan"),
                                     Value::Text_("ghost")}).code(),
            ErrorCode::kConstraintViolation);
  // Deleting the parent alone is restricted...
  EXPECT_FALSE(database.Delete("tree", [](const Row& row) {
                 return row[0].AsText() == "root";
               }).ok());
  // ...but deleting the whole subtree in one call is allowed.
  const auto removed =
      database.Delete("tree", [](const Row&) { return true; });
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2u);
}

TEST(DatabaseTest, SchemaSerializationRoundTrip) {
  const TableSchema schema = ChildSchema();
  const std::string text = SerializeSchema(schema);
  const auto parsed = ParseSchemaText(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->table_name(), "child");
  EXPECT_EQ(parsed->column_count(), 2u);
  EXPECT_EQ(parsed->primary_key_index(), 0u);
  ASSERT_EQ(parsed->foreign_keys().size(), 1u);
  EXPECT_EQ(parsed->foreign_keys()[0].ref_table, "parent");
}

TEST(DatabaseTest, SaveAndLoadDirectory) {
  namespace fs = std::filesystem;
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_db_test").string();
  fs::remove_all(dir);
  {
    Database database = MakeLinked();
    ASSERT_TRUE(database.AttachWal(dir).ok());
    ASSERT_TRUE(database.Insert("child", {Value::Integer(2),
                                          Value::Text_("p2")}).ok());
    ASSERT_TRUE(database.Commit().ok());
  }
  auto loaded = Database::Open(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table* parent = loaded->FindTable("parent");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->row_count(), 2u);
  const Table* child = loaded->FindTable("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->row_count(), 2u);
  EXPECT_EQ(child->row(0)[1].AsText(), "p1");
  // Constraints survive the round trip.
  EXPECT_EQ(loaded->Insert("child", {Value::Integer(9),
                                     Value::Text_("ghost")}).code(),
            ErrorCode::kConstraintViolation);
  fs::remove_all(dir);
}

TEST(DatabaseTest, SaveOrdersParentsBeforeChildren) {
  namespace fs = std::filesystem;
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_db_order_test").string();
  fs::remove_all(dir);
  Database database;
  // Alphabetically the child ("a_child") precedes the parent ("z_parent"),
  // so a naive alphabetical manifest would fail to load.
  TableSchema parent("z_parent");
  ASSERT_TRUE(parent.AddColumn({"k", ColumnType::kText, false, false,
                                true}).ok());
  ASSERT_TRUE(database.CreateTable(parent).ok());
  TableSchema child("a_child");
  ASSERT_TRUE(child.AddColumn({"k", ColumnType::kText, false, false,
                               true}).ok());
  ASSERT_TRUE(child.AddForeignKey({"k", "z_parent", "k"}).ok());
  ASSERT_TRUE(database.CreateTable(child).ok());
  ASSERT_TRUE(database.Insert("z_parent", {Value::Text_("x")}).ok());
  ASSERT_TRUE(database.Insert("a_child", {Value::Text_("x")}).ok());
  // Open creates tables in manifest order, so the generation-0 manifest
  // and a compaction's manifest must both list the parent first.
  ASSERT_TRUE(database.AttachWal(dir).ok());
  const auto loaded = Database::Open(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->FindTable("a_child")->row_count(), 1u);
  ASSERT_TRUE(database.Insert("z_parent", {Value::Text_("y")}).ok());
  ASSERT_TRUE(database.Insert("a_child", {Value::Text_("y")}).ok());
  ASSERT_TRUE(database.Compact().ok());
  const auto compacted = Database::Open(dir);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted->FindTable("a_child")->row_count(), 2u);
  fs::remove_all(dir);
}

// Writes a directory in the retired text format, one file per entry.
void WriteTextDirectory(
    const std::filesystem::path& dir,
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::filesystem::create_directories(dir);
  for (const auto& [name, bytes] : files) {
    std::ofstream(dir / name, std::ios::binary) << bytes;
  }
}

TEST(DatabaseTest, LoadHandlesSelfRefChildBeforeParentRows) {
  const std::filesystem::path dir =
      test_util::ProcessTempDir() / "goofi_db_selfref_test";
  // The leaf precedes its parent, which precedes the root: the importer
  // must defer rows until their parents exist.
  WriteTextDirectory(dir, {{"manifest.txt", "tree\n"},
                           {"tree.schema", SerializeSchema(SelfRefSchema())},
                           {"tree.rows", "tleaf\ttmid\n"
                                         "tmid\ttroot\n"
                                         "troot\tn\n"}});
  const auto loaded = ImportTextDirectory(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->FindTable("tree")->row_count(), 3u);
  EXPECT_FALSE(loaded->wal_attached());
}

TEST(DatabaseTest, ImportRejectsTableNamesThatAreNotIdentifiers) {
  const std::filesystem::path dir =
      test_util::ProcessTempDir() / "goofi_db_import_name_test";
  WriteTextDirectory(dir, {{"manifest.txt", "../tree\n"},
                           {"tree.schema", SerializeSchema(SelfRefSchema())},
                           {"tree.rows", ""}});
  const auto loaded = ImportTextDirectory(dir.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kDataLoss);
}

TEST(DatabaseTest, MissingDirectoryReportsNotFound) {
  const auto loaded = Database::Open("/nonexistent/goofi");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kNotFound);
}

TEST(DatabaseTest, OpenOfTextDirectoryNamesTheMigration) {
  const std::filesystem::path dir =
      test_util::ProcessTempDir() / "goofi_db_text_open_test";
  WriteTextDirectory(dir, {{"manifest.txt", ""}});
  const auto opened = Database::Open(dir.string());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(opened.status().message().find("goofi_dbck migrate"),
            std::string::npos);
}

TEST(DatabaseTest, PersistCommitsOnlyTheAttachedDirectory) {
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_db_persist_test").string();
  Database database = MakeLinked();
  EXPECT_EQ(database.Persist(dir).code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(database.AttachWal(dir).ok());
  ASSERT_TRUE(database.Insert("parent", {Value::Text_("p3"),
                                         Value::Null()}).ok());
  EXPECT_EQ(database.Persist(dir + "_elsewhere").code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(database.pending_record_count(), 1u);
  ASSERT_TRUE(database.Persist(dir).ok());
  EXPECT_EQ(database.pending_record_count(), 0u);
}

TEST(DatabaseTest, CreateTableRejectsNamesThatAreNotIdentifiers) {
  for (const char* name : {"", "../x", "a b", "9lives", "x.y"}) {
    Database database;
    TableSchema schema(name);
    ASSERT_TRUE(schema.AddColumn({"k", ColumnType::kText}).ok());
    EXPECT_EQ(database.CreateTable(schema).code(),
              ErrorCode::kInvalidArgument)
        << name;
  }
}

TEST(DatabaseTest, ManifestRejectsTableNamesThatAreNotIdentifiers) {
  EXPECT_TRUE(wal::DecodeManifest("goofi-wal-manifest v2\ngeneration 3\n"
                                  "table\tok_name\t2\n")
                  .ok());
  EXPECT_EQ(wal::DecodeManifest("goofi-wal-manifest v2\ngeneration 3\n"
                                "table\t../x\t2\n")
                .status()
                .code(),
            ErrorCode::kDataLoss);
  EXPECT_EQ(wal::DecodeManifest("goofi-wal-manifest v1\ngeneration 3\n"
                                "table ../x\n")
                .status()
                .code(),
            ErrorCode::kDataLoss);
}

TEST(DatabaseTest, OpenRefusesAManifestNamingAFileOutsideTheDirectory) {
  namespace fs = std::filesystem;
  const fs::path root = test_util::ProcessTempDir() / "goofi_db_escape_test";
  const fs::path dir = root / "db";
  {
    Database database = MakeLinked();
    ASSERT_TRUE(database.AttachWal(dir.string()).ok());
  }
  // A snapshot planted beside the directory, and a manifest pointing at
  // it through "..".
  fs::copy_file(dir / "parent.0.snap", root / "x.0.snap");
  std::ofstream(dir / "snapshot.manifest", std::ios::trunc)
      << "goofi-wal-manifest v2\ngeneration 0\ntable\t../x\t0\n";
  const auto opened = Database::Open(dir.string());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kDataLoss);
}

}  // namespace
}  // namespace goofi::db
