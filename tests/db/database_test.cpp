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
    ASSERT_TRUE(database.SaveToDirectory(dir).ok());
  }
  auto loaded = Database::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table* parent = loaded->FindTable("parent");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->row_count(), 2u);
  const Table* child = loaded->FindTable("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->row_count(), 1u);
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
  ASSERT_TRUE(database.SaveToDirectory(dir).ok());
  const auto loaded = Database::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->FindTable("a_child")->row_count(), 1u);
  fs::remove_all(dir);
}

TEST(DatabaseTest, LoadHandlesSelfRefChildBeforeParentRows) {
  namespace fs = std::filesystem;
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_db_selfref_test").string();
  fs::remove_all(dir);
  {
    Database database;
    ASSERT_TRUE(database.CreateTable(SelfRefSchema()).ok());
    ASSERT_TRUE(database.Insert("tree", {Value::Text_("root"),
                                         Value::Null()}).ok());
    ASSERT_TRUE(database.Insert("tree", {Value::Text_("mid"),
                                         Value::Text_("root")}).ok());
    ASSERT_TRUE(database.Insert("tree", {Value::Text_("leaf"),
                                         Value::Text_("mid")}).ok());
    ASSERT_TRUE(database.SaveToDirectory(dir).ok());
  }
  const auto loaded = Database::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->FindTable("tree")->row_count(), 3u);
  fs::remove_all(dir);
}

TEST(DatabaseTest, MissingDirectoryReportsIoError) {
  const auto loaded = Database::LoadFromDirectory("/nonexistent/goofi");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kIo);
}

TEST(DatabaseTest, SaveReplacesDirectoryAtomically) {
  namespace fs = std::filesystem;
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_db_atomic_test").string();
  fs::remove_all(dir);

  Database database;
  ASSERT_TRUE(database.CreateTable(ParentSchema()).ok());
  ASSERT_TRUE(database.Insert("parent", {Value::Text_("a"),
                                         Value::Text_("one")}).ok());
  ASSERT_TRUE(database.SaveToDirectory(dir).ok());

  // A second save goes through a sibling temp directory and a rename
  // swap: no .saving/.stale residue survives a successful save, and a
  // file that only existed in the old version is gone.
  {
    std::ofstream((fs::path(dir) / "leftover.rows").string()) << "junk\n";
  }
  ASSERT_TRUE(database.Insert("parent", {Value::Text_("b"),
                                         Value::Text_("two")}).ok());
  ASSERT_TRUE(database.SaveToDirectory(dir).ok());
  EXPECT_FALSE(fs::exists(dir + ".saving"));
  EXPECT_FALSE(fs::exists(dir + ".stale"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "leftover.rows"));
  const auto loaded = Database::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->FindTable("parent")->row_count(), 2u);
  fs::remove_all(dir);
}

TEST(DatabaseTest, LoadRecoversInterruptedSave) {
  namespace fs = std::filesystem;
  const std::string dir =
      (test_util::ProcessTempDir() / "goofi_db_interrupted_test").string();
  fs::remove_all(dir);
  fs::remove_all(dir + ".saving");

  // Simulate a crash after the temp directory was fully written but
  // before it was renamed into place: save elsewhere, then move the
  // result to `<dir>.saving` with no `<dir>` present.
  Database database;
  ASSERT_TRUE(database.CreateTable(ParentSchema()).ok());
  ASSERT_TRUE(database.Insert("parent", {Value::Text_("a"),
                                         Value::Text_("one")}).ok());
  ASSERT_TRUE(database.SaveToDirectory(dir).ok());
  fs::rename(dir, dir + ".saving");

  const auto loaded = Database::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->FindTable("parent")->row_count(), 1u);
  // Recovery published the temp directory as the real one.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest.txt"));
  EXPECT_FALSE(fs::exists(dir + ".saving"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace goofi::db
