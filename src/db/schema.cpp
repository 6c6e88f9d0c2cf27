#include "db/schema.h"

#include "util/strings.h"

namespace goofi::db {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInteger: return "INTEGER";
    case ColumnType::kReal: return "REAL";
    case ColumnType::kText: return "TEXT";
    case ColumnType::kBlob: return "BLOB";
    case ColumnType::kAny: return "ANY";
  }
  return "?";
}

std::optional<ColumnType> ColumnTypeFromName(const std::string& name) {
  const std::string upper = AsciiToUpper(name);
  if (upper == "INTEGER" || upper == "INT") return ColumnType::kInteger;
  if (upper == "REAL" || upper == "DOUBLE" || upper == "FLOAT") {
    return ColumnType::kReal;
  }
  if (upper == "TEXT" || upper == "VARCHAR" || upper == "STRING") {
    return ColumnType::kText;
  }
  if (upper == "BLOB") return ColumnType::kBlob;
  if (upper == "ANY") return ColumnType::kAny;
  return std::nullopt;
}

bool IsSqlIdentifier(std::string_view name) {
  if (name.empty()) return false;
  const auto alpha = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '_';
  };
  if (!alpha(name.front())) return false;
  for (const char c : name) {
    if (!alpha(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

Status TableSchema::AddColumn(Column column) {
  if (column.name.empty()) {
    return InvalidArgumentError("column name must not be empty");
  }
  if (FindColumn(column.name)) {
    return AlreadyExistsError("duplicate column '" + column.name + "' in '" +
                              table_name_ + "'");
  }
  if (column.primary_key) {
    if (pk_index_) {
      return InvalidArgumentError("table '" + table_name_ +
                                  "' already has a primary key");
    }
    column.unique = true;
    column.not_null = true;
    pk_index_ = columns_.size();
  }
  columns_.push_back(std::move(column));
  return Status::Ok();
}

Status TableSchema::AddForeignKey(ForeignKey fk) {
  if (!FindColumn(fk.column)) {
    return InvalidArgumentError("foreign key column '" + fk.column +
                                "' not in table '" + table_name_ + "'");
  }
  foreign_keys_.push_back(std::move(fk));
  return Status::Ok();
}

std::optional<std::size_t> TableSchema::FindColumn(
    const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

Status TableSchema::CheckValue(std::size_t index, Value& value) const {
  const Column& column = columns_[index];
  if (value.is_null()) {
    if (column.not_null) {
      return ConstraintViolationError("NOT NULL violated for '" +
                                      table_name_ + "." + column.name + "'");
    }
    return Status::Ok();
  }
  switch (column.type) {
    case ColumnType::kAny:
      return Status::Ok();
    case ColumnType::kInteger:
      if (value.type() != ValueType::kInteger) break;
      return Status::Ok();
    case ColumnType::kReal:
      if (value.type() == ValueType::kInteger) {
        value = Value::Real(value.AsReal());  // widen
        return Status::Ok();
      }
      if (value.type() != ValueType::kReal) break;
      return Status::Ok();
    case ColumnType::kText:
      if (value.type() != ValueType::kText) break;
      return Status::Ok();
    case ColumnType::kBlob:
      if (value.type() != ValueType::kBlob) break;
      return Status::Ok();
  }
  return ConstraintViolationError(
      StrFormat("type mismatch for '%s.%s': column is %s, value is %s",
                table_name_.c_str(), column.name.c_str(),
                ColumnTypeName(column.type), ValueTypeName(value.type())));
}

Status TableSchema::CheckRow(std::vector<Value>& row) const {
  if (row.size() != columns_.size()) {
    return InvalidArgumentError(
        StrFormat("row arity %zu does not match table '%s' with %zu columns",
                  row.size(), table_name_.c_str(), columns_.size()));
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    RETURN_IF_ERROR(CheckValue(i, row[i]));
  }
  return Status::Ok();
}

}  // namespace goofi::db
