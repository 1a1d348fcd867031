// In-memory columnar table with stable row ids and write-maintained hash
// indexes (the primary key's from construction, any other column's from its
// first lookup).

#ifndef SELTRIG_STORAGE_TABLE_H_
#define SELTRIG_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/column_store.h"
#include "types/schema.h"
#include "types/value.h"

namespace seltrig {

class UndoLog;

// Storage is columnar: one append-only TableColumn per schema column (typed
// arrays + null bitmaps, see storage/column_store.h). A row id names the same
// slot in every column; deletes set a tombstone so row ids stay stable for
// indexes and triggers. Row images for DML, the undo log, WAL, and snapshots
// are materialized on demand through GetRow / MaterializeRow — the durability
// formats never see the columnar layout.
//
// Concurrency contract (docs/CONCURRENCY.md): reads (ScanLiveRange, GetRow,
// column_data, lookups) may run from many sessions and parallel scan workers
// at once; every mutation runs behind the engine's exclusive writer lock,
// which excludes all readers. The only mutable state reachable from the read
// path is the set of column indexes: a reader may build a missing one, so
// index access is serialized internally.
class Table {
 public:
  // `primary_key_column` is the index of the PK column in `schema`, or -1 if
  // the table has no primary key.
  Table(std::string name, Schema schema, int primary_key_column = -1);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int primary_key_column() const { return pk_col_; }

  // Monotonic schema version: 1 at creation, bumped once per committed ALTER
  // TABLE statement. Plans stamp the version they were bound against and the
  // validator re-checks it at execute time; audit bindings and replication
  // DDL records carry it so every replica of a table converges on the same
  // (version, layout) pair.
  uint64_t schema_version() const { return schema_version_; }
  // Used by the ALTER path (commit / rollback) and by snapshot load +
  // recovery, which must restore the counter a replayed journal continues
  // from. Never decreases outside an ALTER rollback.
  void set_schema_version(uint64_t v) { schema_version_ = v; }

  // Number of live (non-deleted) rows.
  size_t live_row_count() const { return live_count_; }
  // Total slots including tombstones; valid row ids are [0, slot_count()).
  size_t slot_count() const { return slot_count_; }

  bool IsLive(size_t row_id) const { return !deleted_[row_id]; }

  // Materializes a full row image by gathering one cell from every column.
  // The cells are the exact Values that were stored (column_store.h's
  // exactness contract), so WAL images, undo entries, and snapshot lines are
  // byte-identical to the row-storage era.
  Row GetRow(size_t row_id) const;
  // Same, reusing the caller's buffer (cleared first) to avoid reallocation
  // in scan loops.
  void MaterializeRow(size_t row_id, Row* out) const;
  // Single-cell materialization.
  Value GetCell(size_t row_id, size_t column) const {
    return columns_[column].Get(row_id);
  }

  // Direct columnar access for the vectorized executor: the returned column
  // (typed array + null bitmap) stays valid until the next mutation of the
  // table — the same lifetime the old `const Row*` scan pointers had.
  const TableColumn& column_data(size_t column) const { return columns_[column]; }

  // Cursor-based batch scan: starting at *cursor, skips tombstones and
  // appends up to `max_live` live slot ids to `out_slots`, advancing *cursor
  // past every slot examined but never at or past `end_slot`. Returns the
  // number of slot ids appended; 0 means the range is exhausted. A morsel
  // worker owning [begin, end) starts its cursor at `begin`. The slot ids
  // index directly into column_data() arrays and double as the scan's
  // selection vector.
  size_t ScanLiveRange(size_t* cursor, size_t end_slot, size_t max_live,
                       std::vector<uint32_t>* out_slots) const;

  // Appends a row. Fails on arity mismatch or duplicate primary key.
  // On success returns the new row id.
  Result<size_t> Insert(Row row);

  // Tombstones a live row. Fails if the row id is invalid or already deleted.
  Status Delete(size_t row_id);

  // Replaces the contents of a live row (primary key changes are validated).
  Status Update(size_t row_id, Row new_row);

  // Primary-key point lookup; returns the row id or NotFound.
  Result<size_t> LookupByPrimaryKey(const Value& key) const
      SELTRIG_EXCLUDES(secondary_mutex_);

  // Returns the live row ids whose `column` equals `key`, in ascending slot
  // order. The column's hash index is built on the first lookup and kept
  // exact by every write from then on (the primary key's exists from
  // construction). Safe to call from concurrent reader sessions: the build is
  // serialized; the returned reference stays valid until the next write
  // (writes exclude readers).
  const std::vector<size_t>& LookupBySecondary(int column, const Value& key)
      SELTRIG_EXCLUDES(secondary_mutex_);

  // Drops all rows (used by tests and dbgen reloads).
  void Clear();

  // --- Online schema change (engine/session.cc ExecuteAlterTable) -----------
  // All Alter* mutations run behind the engine's exclusive writer lock, like
  // every other mutation. Each returns the state the caller needs to undo it,
  // so a failed mid-chain ALTER rolls back wholesale; none of them touches
  // schema_version() — the session bumps it once per committed statement.

  // A column removed by AlterDropColumn, exactly as it was: the schema entry,
  // the columnar data (moved, never copied — StringDict pointers stay valid),
  // and its original index.
  struct DroppedColumn {
    Column schema_column;
    TableColumn data;
    size_t index = 0;
  };

  // Appends a new column backfilled with `default_value` in every slot
  // (tombstoned slots included, so column arity always equals slot_count()).
  // A default that mismatches the declared type degrades the column to the
  // generic representation instead of coercing (column_store.h contract).
  Status AlterAddColumn(const std::string& name, TypeId type,
                        const Value& default_value);
  // Inverse of AlterAddColumn: removes the last column.
  void AlterDropLastColumn();

  // Removes a column. Fails on the primary-key column; shifts pk_col_ left
  // when a preceding column goes away. The removed column is returned for the
  // rollback path (AlterRestoreColumn).
  Result<DroppedColumn> AlterDropColumn(size_t column);
  // Inverse of AlterDropColumn: splices the column back at its old index.
  void AlterRestoreColumn(DroppedColumn dropped);

  Status AlterRenameColumn(size_t column, const std::string& new_name);

  // Re-declares a column's type, rebuilding its storage by re-appending every
  // stored cell: values keep their exact identity (degrade-not-coerce), only
  // the declared type — and thus the typed fast paths new values take —
  // changes. Returns the old columnar data for the rollback path.
  Result<TableColumn> AlterRetypeColumn(size_t column, TypeId new_type);
  // Inverse of AlterRetypeColumn: restores the old data + declared type.
  void AlterRestoreColumnData(size_t column, TableColumn old_data,
                              TypeId old_type);

  // --- Transactional trigger execution (engine/database.cc) -----------------
  // While an undo log is attached, every successful mutation records its
  // inverse there so the engine can roll trigger actions back atomically.
  void set_undo_log(UndoLog* undo) { undo_ = undo; }
  UndoLog* undo_log() const { return undo_; }

  // Inverse operations applied by UndoLog::RollbackTo, newest entry first.
  // They bypass journaling (rollback must not journal itself).
  void UndoInsert(size_t row_id);
  void UndoDelete(size_t row_id);
  void UndoUpdate(size_t row_id, Row old_row);

 private:
  // One key's live row ids. A lone id is held inline in `first`, so an
  // unprobed primary-key entry allocates nothing beyond its map node. More
  // ids go to `many`, which writes only append to: a removal lowers `live`
  // and leaves its id behind, and undo or a key change can append out of
  // order. CompactIds drops the stale ids and sorts the rest when a lookup
  // hands them out, or on an append once stale ids outnumber live ones, so a
  // write costs O(1) amortized however many rows share the key.
  struct ManyIds {
    std::vector<size_t> ids;
    size_t live = 0;
    bool ascending = true;  // strictly, so no id repeats
  };
  struct RowIds {
    size_t first;  // the only id while `many` is null
    std::unique_ptr<ManyIds> many;
  };
  // noexcept, so the map caches no hash per entry: with the inline id an
  // unprobed entry costs what a (key, row id) pair does.
  struct KeyHash {
    size_t operator()(const Value& v) const noexcept { return v.Hash(); }
  };
  // One column's index: key -> its live row ids. A key with no live row has
  // no entry.
  using ColumnIndex = std::unordered_map<Value, RowIds, KeyHash, ValueEq>;

  // Adds `row_id` under `key` in `column`'s index / drops one id from `key`.
  void AddId(int column, ColumnIndex& index, const Value& key, size_t row_id)
      SELTRIG_REQUIRES(secondary_mutex_);
  static void RemoveId(ColumnIndex& index, const Value& key);
  // Leaves in `entry` (the ids under `key` in `column`'s index) exactly the
  // live rows holding `key`, but for `skip`, in ascending order; returns them.
  const std::vector<size_t>& CompactIds(int column, const Value& key, RowIds& entry,
                                        size_t skip = SIZE_MAX) const;
  // Adds / removes `row_id` under its current cell values in every index.
  void IndexRow(size_t row_id) SELTRIG_REQUIRES(secondary_mutex_);
  void UnindexRow(size_t row_id) SELTRIG_REQUIRES(secondary_mutex_);
  // Moves `row_id` from its current cell values to those of `next` in every
  // index whose key differs.
  void ReindexRow(size_t row_id, const Row& next) SELTRIG_REQUIRES(secondary_mutex_);
  // Schema mutations shift or retype columns: drops every index but the
  // primary key's, which is re-keyed from `old_pk_col` to pk_col_.
  void ResetIndexesAfterSchemaChange(int old_pk_col) SELTRIG_EXCLUDES(secondary_mutex_);
  void AppendSlot(const Row& row);
  void WriteSlot(size_t row_id, const Row& row);

  std::string name_;
  Schema schema_;
  int pk_col_;

  std::vector<TableColumn> columns_;  // one per schema column
  std::vector<bool> deleted_;
  size_t slot_count_ = 0;
  size_t live_count_ = 0;
  uint64_t schema_version_ = 1;  // bumped once per committed ALTER TABLE

  // Serializes index builds between concurrent readers; writers take it too.
  mutable Mutex secondary_mutex_;
  // Column -> its index. The primary key's is present from construction.
  std::unordered_map<int, ColumnIndex> indexes_ SELTRIG_GUARDED_BY(secondary_mutex_);
  std::vector<size_t> empty_result_;
  UndoLog* undo_ = nullptr;
};

}  // namespace seltrig

#endif  // SELTRIG_STORAGE_TABLE_H_
