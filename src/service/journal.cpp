#include "service/journal.h"

#include <algorithm>

#include "db/schema.h"

namespace goofi::service {

using db::Column;
using db::ColumnType;
using db::Row;
using db::TableSchema;
using db::Value;

namespace {

Column MakeColumn(const char* name, ColumnType type, bool not_null,
                  bool primary_key = false, bool unique = false) {
  Column column;
  column.name = name;
  column.type = type;
  column.not_null = not_null || primary_key;
  column.unique = unique || primary_key;
  column.primary_key = primary_key;
  return column;
}

Result<TableSchema> QueueSchema() {
  TableSchema schema(kSubmissionQueueTable);
  RETURN_IF_ERROR(schema.AddColumn(
      MakeColumn("id", ColumnType::kInteger, true, /*primary_key=*/true)));
  RETURN_IF_ERROR(schema.AddColumn(MakeColumn(
      "name", ColumnType::kText, true, false, /*unique=*/true)));
  RETURN_IF_ERROR(
      schema.AddColumn(MakeColumn("config", ColumnType::kText, true)));
  RETURN_IF_ERROR(
      schema.AddColumn(MakeColumn("jobs", ColumnType::kInteger, true)));
  RETURN_IF_ERROR(
      schema.AddColumn(MakeColumn("state", ColumnType::kText, true)));
  RETURN_IF_ERROR(
      schema.AddColumn(MakeColumn("error", ColumnType::kText, false)));
  return schema;
}

Result<TableSchema> MetaSchema() {
  TableSchema schema(kServiceMetaTable);
  RETURN_IF_ERROR(schema.AddColumn(
      MakeColumn("key", ColumnType::kText, true, /*primary_key=*/true)));
  RETURN_IF_ERROR(
      schema.AddColumn(MakeColumn("value", ColumnType::kText, true)));
  return schema;
}

Submission FromRow(const Row& row) {
  Submission submission;
  submission.id = static_cast<std::uint64_t>(row[0].AsInteger());
  submission.name = row[1].AsText();
  submission.config_text = row[2].AsText();
  submission.jobs = static_cast<std::size_t>(row[3].AsInteger());
  submission.state = row[4].AsText();
  submission.error = row[5].is_null() ? std::string() : row[5].AsText();
  return submission;
}

}  // namespace

Result<SubmissionJournal> SubmissionJournal::Open(
    const std::string& dir, std::size_t queue_limit,
    db::wal::WalFileFactory factory) {
  if (queue_limit == 0) {
    return InvalidArgumentError("journal queue limit must be >= 1");
  }
  // Replays committed transitions and truncates any torn tail — the
  // SIGKILL recovery path.
  Result<db::Database> opened = db::Database::Open(dir, factory);
  db::Database database;
  if (opened.ok()) {
    database = std::move(*opened);
  } else if (opened.status().code() != ErrorCode::kNotFound) {
    return opened.status();
  } else {
    ASSIGN_OR_RETURN(TableSchema queue, QueueSchema());
    ASSIGN_OR_RETURN(TableSchema meta, MetaSchema());
    RETURN_IF_ERROR(database.CreateTable(std::move(queue)));
    RETURN_IF_ERROR(database.CreateTable(std::move(meta)));
    RETURN_IF_ERROR(database.Insert(
        kServiceMetaTable,
        {Value::Text_("journal_format"), Value::Text_("1")}));
    RETURN_IF_ERROR(database.AttachWal(dir, std::move(factory)));
    RETURN_IF_ERROR(database.Commit());
  }
  if (!database.HasTable(kSubmissionQueueTable) ||
      !database.HasTable(kServiceMetaTable)) {
    return DataLossError("'" + dir + "' is not a submission journal");
  }
  SubmissionJournal journal(std::move(database), queue_limit);
  const db::Table* queue =
      journal.database_.FindTable(kSubmissionQueueTable);
  for (const Row& row : queue->rows()) {
    journal.next_id_ = std::max(
        journal.next_id_, static_cast<std::uint64_t>(row[0].AsInteger()) + 1);
  }
  return journal;
}

Result<std::uint64_t> SubmissionJournal::Submit(
    const std::string& name, const std::string& config_text,
    std::size_t jobs) {
  if (name.empty()) return InvalidArgumentError("campaign name is empty");
  const db::Table* queue = database_.FindTable(kSubmissionQueueTable);
  if (queue->FindByUnique(1, Value::Text_(name)).has_value()) {
    return AlreadyExistsError("campaign '" + name +
                              "' was already submitted");
  }
  if (ActiveCount() >= queue_limit_) {
    return QueueFullError(
        "submission queue is full (" + std::to_string(queue_limit_) +
        " active); retry after a campaign finishes");
  }
  const std::uint64_t id = next_id_++;
  RETURN_IF_ERROR(database_.Insert(
      kSubmissionQueueTable,
      {Value::Integer(static_cast<std::int64_t>(id)), Value::Text_(name),
       Value::Text_(config_text),
       Value::Integer(static_cast<std::int64_t>(jobs)),
       Value::Text_(kStateQueued), Value::Null()}));
  RETURN_IF_ERROR(database_.Commit());
  return id;
}

Result<std::optional<Submission>> SubmissionJournal::ClaimNext() {
  const db::Table* queue = database_.FindTable(kSubmissionQueueTable);
  const Row* oldest = nullptr;
  for (const Row& row : queue->rows()) {
    if (row[4].AsText() != kStateQueued) continue;
    if (oldest == nullptr || row[0].AsInteger() < (*oldest)[0].AsInteger()) {
      oldest = &row;
    }
  }
  if (oldest == nullptr) return std::optional<Submission>();
  Submission claimed = FromRow(*oldest);
  RETURN_IF_ERROR(SetState(claimed.id, kStateRunning, ""));
  claimed.state = kStateRunning;
  return std::optional<Submission>(std::move(claimed));
}

Status SubmissionJournal::SetState(std::uint64_t id, const std::string& state,
                                   const std::string& error) {
  const auto updated = database_.Update(
      kSubmissionQueueTable,
      [&](const Row& row) {
        return row[0].AsInteger() == static_cast<std::int64_t>(id);
      },
      {{4, Value::Text_(state)},
       {5, error.empty() ? Value::Null() : Value::Text_(error)}});
  RETURN_IF_ERROR(updated.status());
  if (*updated == 0) {
    return NotFoundError("no submission " + std::to_string(id));
  }
  return database_.Commit();
}

Status SubmissionJournal::MarkCompleted(std::uint64_t id) {
  return SetState(id, kStateCompleted, "");
}

Status SubmissionJournal::MarkFailed(std::uint64_t id,
                                     const std::string& error) {
  return SetState(id, kStateFailed, error);
}

Status SubmissionJournal::MarkCancelled(std::uint64_t id) {
  ASSIGN_OR_RETURN(const Submission current, Find(id));
  if (current.state != kStateQueued && current.state != kStateRunning) {
    return FailedPreconditionError("submission " + std::to_string(id) +
                                   " is already " + current.state);
  }
  return SetState(id, kStateCancelled, "");
}

Result<Submission> SubmissionJournal::Find(std::uint64_t id) const {
  const db::Table* queue = database_.FindTable(kSubmissionQueueTable);
  const auto index =
      queue->FindByUnique(0, Value::Integer(static_cast<std::int64_t>(id)));
  if (!index) return NotFoundError("no submission " + std::to_string(id));
  return FromRow(queue->row(*index));
}

std::vector<Submission> SubmissionJournal::All() const {
  std::vector<Submission> out;
  const db::Table* queue = database_.FindTable(kSubmissionQueueTable);
  out.reserve(queue->row_count());
  for (const Row& row : queue->rows()) out.push_back(FromRow(row));
  std::sort(out.begin(), out.end(),
            [](const Submission& a, const Submission& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<Submission> SubmissionJournal::InState(
    const std::string& state) const {
  std::vector<Submission> out;
  for (Submission& submission : All()) {
    if (submission.state == state) out.push_back(std::move(submission));
  }
  return out;
}

std::size_t SubmissionJournal::ActiveCount() const {
  std::size_t count = 0;
  const db::Table* queue = database_.FindTable(kSubmissionQueueTable);
  for (const Row& row : queue->rows()) {
    const std::string& state = row[4].AsText();
    if (state == kStateQueued || state == kStateRunning) ++count;
  }
  return count;
}

}  // namespace goofi::service
