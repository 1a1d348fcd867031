#include "storage/table.h"

#include <algorithm>
#include <cassert>

#include "common/fault_injector.h"
#include "storage/undo_log.h"

namespace seltrig {

Table::Table(std::string name, Schema schema, int primary_key_column)
    : name_(std::move(name)), schema_(std::move(schema)), pk_col_(primary_key_column) {
  columns_.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    columns_.emplace_back(schema_.column(c).type);
  }
  MutexLock lock(&secondary_mutex_);
  if (pk_col_ >= 0) indexes_[pk_col_];
}

void Table::AppendSlot(const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(row[c]);
  deleted_.push_back(false);
  ++slot_count_;
}

void Table::WriteSlot(size_t row_id, const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Set(row_id, row[c]);
}

Row Table::GetRow(size_t row_id) const {
  Row row;
  MaterializeRow(row_id, &row);
  return row;
}

void Table::MaterializeRow(size_t row_id, Row* out) const {
  assert(row_id < slot_count_);
  out->clear();
  out->reserve(columns_.size());
  for (const TableColumn& col : columns_) col.AppendTo(row_id, out);
}

Result<size_t> Table::Insert(Row row) {
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kStorageAppend));
  if (row.size() != schema_.size()) {
    return Status::ExecutionError("insert into " + name_ + ": expected " +
                                  std::to_string(schema_.size()) + " values, got " +
                                  std::to_string(row.size()));
  }
  MutexLock lock(&secondary_mutex_);
  if (pk_col_ >= 0) {
    const Value& key = row[pk_col_];
    if (key.is_null()) {
      return Status::ExecutionError("insert into " + name_ + ": NULL primary key");
    }
    if (indexes_.at(pk_col_).count(key) > 0) {
      return Status::ExecutionError("insert into " + name_ +
                                    ": duplicate primary key " + key.ToString());
    }
  }
  size_t row_id = slot_count_;
  AppendSlot(row);
  ++live_count_;
  IndexRow(row_id);
  if (undo_ != nullptr) undo_->PushInsert(this, row_id);
  return row_id;
}

Status Table::Delete(size_t row_id) {
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kStorageDelete));
  if (row_id >= slot_count_ || deleted_[row_id]) {
    return Status::ExecutionError("delete from " + name_ + ": invalid row id");
  }
  MutexLock lock(&secondary_mutex_);
  UnindexRow(row_id);
  deleted_[row_id] = true;
  --live_count_;
  if (undo_ != nullptr) undo_->PushDelete(this, row_id);
  return Status::OK();
}

Status Table::Update(size_t row_id, Row new_row) {
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kStorageUpdate));
  if (row_id >= slot_count_ || deleted_[row_id]) {
    return Status::ExecutionError("update " + name_ + ": invalid row id");
  }
  if (new_row.size() != schema_.size()) {
    return Status::ExecutionError("update " + name_ + ": arity mismatch");
  }
  MutexLock lock(&secondary_mutex_);
  if (pk_col_ >= 0) {
    const Value& new_key = new_row[pk_col_];
    if (new_key.is_null()) {
      return Status::ExecutionError("update " + name_ + ": NULL primary key");
    }
    if (columns_[pk_col_].Get(row_id) != new_key &&
        indexes_.at(pk_col_).count(new_key) > 0) {
      return Status::ExecutionError("update " + name_ + ": duplicate primary key " +
                                    new_key.ToString());
    }
  }
  if (undo_ != nullptr) undo_->PushUpdate(this, row_id, GetRow(row_id));
  ReindexRow(row_id, new_row);
  WriteSlot(row_id, new_row);
  return Status::OK();
}

void Table::UndoInsert(size_t row_id) {
  assert(row_id < slot_count_);
  if (!deleted_[row_id]) {
    MutexLock lock(&secondary_mutex_);
    UnindexRow(row_id);
    --live_count_;
  }
  if (row_id + 1 == slot_count_) {
    // Reverse-order rollback undoes later inserts first, so the slot being
    // reverted is normally the newest and the heap shrinks back.
    for (TableColumn& col : columns_) col.PopBack();
    deleted_.pop_back();
    --slot_count_;
  } else {
    deleted_[row_id] = true;  // later slots survive: tombstone instead
  }
}

void Table::UndoDelete(size_t row_id) {
  assert(row_id < slot_count_ && deleted_[row_id]);
  deleted_[row_id] = false;
  ++live_count_;
  MutexLock lock(&secondary_mutex_);
  IndexRow(row_id);
}

void Table::UndoUpdate(size_t row_id, Row old_row) {
  assert(row_id < slot_count_);
  MutexLock lock(&secondary_mutex_);
  ReindexRow(row_id, old_row);
  WriteSlot(row_id, old_row);
}

void Table::AddId(int column, ColumnIndex& index, const Value& key, size_t row_id) {
  auto [it, added] = index.try_emplace(key, RowIds{row_id, nullptr});
  if (added) return;
  RowIds& entry = it->second;
  if (!entry.many) entry.many.reset(new ManyIds{{entry.first}, 1});
  ManyIds& many = *entry.many;
  // Bounds the stale ids by the live ones (plus slack). `row_id` may be
  // among them; it is dropped and appended anew.
  if (many.ids.size() >= 2 * many.live + 16) CompactIds(column, it->first, entry, row_id);
  if (!many.ids.empty() && row_id <= many.ids.back()) many.ascending = false;
  many.ids.push_back(row_id);
  ++many.live;
}

void Table::RemoveId(ColumnIndex& index, const Value& key) {
  auto it = index.find(key);
  assert(it != index.end());
  ManyIds* many = it->second.many.get();
  if (many == nullptr || --many->live == 0) index.erase(it);
}

const std::vector<size_t>& Table::CompactIds(int column, const Value& key, RowIds& entry,
                                             size_t skip) const {
  if (!entry.many) entry.many.reset(new ManyIds{{entry.first}, 1});
  ManyIds& many = *entry.many;
  if (many.ids.size() == many.live && many.ascending) return many.ids;
  std::erase_if(many.ids, [&](size_t id) {
    return id == skip || id >= slot_count_ || deleted_[id] || columns_[column].Get(id) != key;
  });
  if (!many.ascending) {
    std::sort(many.ids.begin(), many.ids.end());
    many.ids.erase(std::unique(many.ids.begin(), many.ids.end()), many.ids.end());
    many.ascending = true;
  }
  assert(many.ids.size() == many.live);
  return many.ids;
}

void Table::IndexRow(size_t row_id) {
  for (auto& [column, index] : indexes_) {
    AddId(column, index, columns_[column].Get(row_id), row_id);
  }
}

void Table::UnindexRow(size_t row_id) {
  for (auto& [column, index] : indexes_) {
    RemoveId(index, columns_[column].Get(row_id));
  }
}

void Table::ReindexRow(size_t row_id, const Row& next) {
  for (auto& [column, index] : indexes_) {
    Value current = columns_[column].Get(row_id);
    if (current == next[column]) continue;
    RemoveId(index, current);
    AddId(column, index, next[column], row_id);
  }
}

Result<size_t> Table::LookupByPrimaryKey(const Value& key) const {
  MutexLock lock(&secondary_mutex_);
  auto index = indexes_.find(pk_col_);
  if (index != indexes_.end()) {
    auto it = index->second.find(key);
    if (it != index->second.end()) {
      const RowIds& ids = it->second;  // a key held by one row
      return ids.many ? ids.many->ids.front() : ids.first;
    }
  }
  return Status::NotFound("no row with primary key " + key.ToString() + " in " + name_);
}

size_t Table::ScanLiveRange(size_t* cursor, size_t end_slot, size_t max_live,
                            std::vector<uint32_t>* out_slots) const {
  size_t appended = 0;
  size_t pos = *cursor;
  const size_t slots = std::min(end_slot, slot_count_);
  while (pos < slots && appended < max_live) {
    if (!deleted_[pos]) {
      out_slots->push_back(static_cast<uint32_t>(pos));
      ++appended;
    }
    ++pos;
  }
  *cursor = pos;
  return appended;
}

const std::vector<size_t>& Table::LookupBySecondary(int column, const Value& key) {
  MutexLock lock(&secondary_mutex_);
  auto [index, missing] = indexes_.try_emplace(column);
  if (missing) {
    const TableColumn& col = columns_[column];
    for (size_t i = 0; i < slot_count_; ++i) {
      if (!deleted_[i]) AddId(column, index->second, col.Get(i), i);
    }
  }
  auto it = index->second.find(key);
  if (it == index->second.end()) return empty_result_;
  return CompactIds(column, it->first, it->second);
}

// The writer lock excludes readers, but the guard mutex is taken anyway to
// satisfy the static lock discipline.
void Table::ResetIndexesAfterSchemaChange(int old_pk_col) {
  MutexLock lock(&secondary_mutex_);
  auto pk = indexes_.extract(old_pk_col);
  indexes_.clear();
  if (!pk.empty()) {
    pk.key() = pk_col_;
    indexes_.insert(std::move(pk));
  }
}

Status Table::AlterAddColumn(const std::string& name, TypeId type,
                             const Value& default_value) {
  bool ambiguous = false;
  if (schema_.TryResolve("", name, &ambiguous) >= 0 || ambiguous) {
    return Status::ExecutionError("alter table " + name_ + ": column '" + name +
                                  "' already exists");
  }
  Column col;
  col.name = name;
  col.type = type;
  std::vector<Column> cols = schema_.columns();
  cols.push_back(col);
  schema_ = Schema(std::move(cols));
  columns_.emplace_back(type);
  TableColumn& data = columns_.back();
  for (size_t i = 0; i < slot_count_; ++i) data.Append(default_value);
  ResetIndexesAfterSchemaChange(pk_col_);
  return Status::OK();
}

void Table::AlterDropLastColumn() {
  assert(!columns_.empty());
  std::vector<Column> cols = schema_.columns();
  cols.pop_back();
  schema_ = Schema(std::move(cols));
  columns_.pop_back();
  ResetIndexesAfterSchemaChange(pk_col_);
}

Result<Table::DroppedColumn> Table::AlterDropColumn(size_t column) {
  assert(column < columns_.size());
  if (static_cast<int>(column) == pk_col_) {
    return Status::ExecutionError("alter table " + name_ +
                                  ": cannot drop primary key column '" +
                                  schema_.column(column).name + "'");
  }
  DroppedColumn dropped{schema_.column(column), std::move(columns_[column]),
                        column};
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(column));
  std::vector<Column> cols = schema_.columns();
  cols.erase(cols.begin() + static_cast<ptrdiff_t>(column));
  schema_ = Schema(std::move(cols));
  const int old_pk_col = pk_col_;
  if (pk_col_ > static_cast<int>(column)) --pk_col_;
  ResetIndexesAfterSchemaChange(old_pk_col);
  return dropped;
}

void Table::AlterRestoreColumn(DroppedColumn dropped) {
  assert(dropped.index <= columns_.size());
  std::vector<Column> cols = schema_.columns();
  cols.insert(cols.begin() + static_cast<ptrdiff_t>(dropped.index),
              dropped.schema_column);
  schema_ = Schema(std::move(cols));
  columns_.insert(columns_.begin() + static_cast<ptrdiff_t>(dropped.index),
                  std::move(dropped.data));
  const int old_pk_col = pk_col_;
  if (pk_col_ >= static_cast<int>(dropped.index)) ++pk_col_;
  ResetIndexesAfterSchemaChange(old_pk_col);
}

Status Table::AlterRenameColumn(size_t column, const std::string& new_name) {
  assert(column < columns_.size());
  bool ambiguous = false;
  int existing = schema_.TryResolve("", new_name, &ambiguous);
  if ((existing >= 0 && existing != static_cast<int>(column)) || ambiguous) {
    return Status::ExecutionError("alter table " + name_ + ": column '" +
                                  new_name + "' already exists");
  }
  schema_.column(column).name = new_name;
  ResetIndexesAfterSchemaChange(pk_col_);
  return Status::OK();
}

Result<TableColumn> Table::AlterRetypeColumn(size_t column, TypeId new_type) {
  assert(column < columns_.size());
  TableColumn rebuilt(new_type);
  const TableColumn& old = columns_[column];
  for (size_t i = 0; i < slot_count_; ++i) rebuilt.Append(old.Get(i));
  TableColumn old_data = std::move(columns_[column]);
  columns_[column] = std::move(rebuilt);
  schema_.column(column).type = new_type;
  ResetIndexesAfterSchemaChange(pk_col_);
  return old_data;
}

void Table::AlterRestoreColumnData(size_t column, TableColumn old_data,
                                   TypeId old_type) {
  assert(column < columns_.size());
  columns_[column] = std::move(old_data);
  schema_.column(column).type = old_type;
  ResetIndexesAfterSchemaChange(pk_col_);
}

void Table::Clear() {
  for (TableColumn& col : columns_) col.Clear();
  deleted_.clear();
  slot_count_ = 0;
  live_count_ = 0;
  MutexLock lock(&secondary_mutex_);
  for (auto& [column, index] : indexes_) index.clear();
}

}  // namespace seltrig
