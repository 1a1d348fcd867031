#include "storage/table.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "storage/undo_log.h"

namespace seltrig {
namespace {

Schema TwoColumnSchema() {
  Schema s;
  s.AddColumn({"id", "", TypeId::kInt, false});
  s.AddColumn({"name", "", TypeId::kString, false});
  return s;
}

TEST(TableTest, InsertAndRead) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(t.live_row_count(), 1u);
  EXPECT_TRUE(t.IsLive(*id));
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "a");
}

TEST(TableTest, ArityMismatchRejected) {
  Table t("t", TwoColumnSchema(), 0);
  EXPECT_FALSE(t.Insert({Value::Int(1)}).ok());
}

TEST(TableTest, DuplicatePrimaryKeyRejected) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  EXPECT_FALSE(t.Insert({Value::Int(1), Value::String("b")}).ok());
  EXPECT_EQ(t.live_row_count(), 1u);
}

TEST(TableTest, NullPrimaryKeyRejected) {
  Table t("t", TwoColumnSchema(), 0);
  EXPECT_FALSE(t.Insert({Value::Null(), Value::String("a")}).ok());
}

TEST(TableTest, NoPrimaryKeyAllowsDuplicates) {
  Table t("t", TwoColumnSchema(), -1);
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  EXPECT_EQ(t.live_row_count(), 2u);
}

TEST(TableTest, DeleteTombstones) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(t.Delete(*id).ok());
  EXPECT_FALSE(t.IsLive(*id));
  EXPECT_EQ(t.live_row_count(), 0u);
  EXPECT_EQ(t.slot_count(), 1u);  // slot remains
  EXPECT_FALSE(t.Delete(*id).ok());  // double delete
}

TEST(TableTest, DeleteFreesPrimaryKey) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(t.Delete(*id).ok());
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("b")}).ok());
}

TEST(TableTest, PrimaryKeyLookup) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(5), Value::String("x")}).ok());
  auto row_id = t.LookupByPrimaryKey(Value::Int(5));
  ASSERT_TRUE(row_id.ok());
  EXPECT_EQ(t.GetRow(*row_id)[1].AsString(), "x");
  EXPECT_FALSE(t.LookupByPrimaryKey(Value::Int(6)).ok());
}

TEST(TableTest, UpdateInPlace) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(t.Update(*id, {Value::Int(1), Value::String("b")}).ok());
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "b");
}

TEST(TableTest, UpdatePrimaryKeyMovesIndex) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(t.Update(*id, {Value::Int(2), Value::String("a")}).ok());
  EXPECT_FALSE(t.LookupByPrimaryKey(Value::Int(1)).ok());
  EXPECT_TRUE(t.LookupByPrimaryKey(Value::Int(2)).ok());
}

TEST(TableTest, UpdateToConflictingKeyRejected) {
  Table t("t", TwoColumnSchema(), 0);
  auto a = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("b")}).ok());
  EXPECT_FALSE(t.Update(*a, {Value::Int(2), Value::String("a")}).ok());
}

TEST(TableTest, SecondaryIndexLookup) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("y")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(3), Value::String("x")}).ok());
  const auto& hits = t.LookupBySecondary(1, Value::String("x"));
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(t.LookupBySecondary(1, Value::String("z")).empty());
}

// Checks every index the test has probed, over every key the workload can
// produce: the ids must equal a brute-force walk over the live slots, in
// ascending slot order, and LookupByPrimaryKey must agree with the PK's ids.
void ExpectIndexesExact(Table& t, const std::vector<int>& columns,
                        const std::vector<Value>& keys, const std::string& step) {
  for (int column : columns) {
    for (const Value& key : keys) {
      std::vector<size_t> expected;
      for (size_t id = 0; id < t.slot_count(); ++id) {
        if (t.IsLive(id) && t.GetCell(id, static_cast<size_t>(column)) == key) {
          expected.push_back(id);
        }
      }
      EXPECT_EQ(t.LookupBySecondary(column, key), expected)
          << step << ": column " << column << " key " << key.ToString();
      if (column != t.primary_key_column()) continue;
      Result<size_t> pk = t.LookupByPrimaryKey(key);
      ASSERT_LE(expected.size(), 1u) << step;
      EXPECT_EQ(pk.ok(), expected.size() == 1) << step << ": key " << key.ToString();
      if (pk.ok() && !expected.empty()) {
        EXPECT_EQ(*pk, expected[0]) << step;
      }
    }
  }
}

// A seeded random mix of every mutation kind — inserts, deletes, PK and
// non-PK key updates, undo-log rollback of mixed writes, Clear, and
// add/drop/restore column — over keys that compare equal across types
// (Int(2) and Double(2.0)), a string and NULL. The primary key sits in
// column 1 so dropping column 0 shifts it.
TEST(TableTest, IndexesStayExactUnderRandomWrites) {
  Schema schema;
  schema.AddColumn({"a", "", TypeId::kString, false});
  schema.AddColumn({"id", "", TypeId::kInt, false});
  schema.AddColumn({"k", "", TypeId::kInt, false});
  Table t("t", std::move(schema), 1);
  UndoLog undo;
  const std::vector<Value> keys = {Value::Int(1),    Value::Int(2), Value::Double(2.0),
                                   Value::Int(3),    Value::String("s"),
                                   Value::Double(4.5), Value::Null()};
  std::mt19937 rng(20130408);
  auto pick = [&rng](size_t n) { return std::uniform_int_distribution<size_t>(0, n - 1)(rng); };
  auto key = [&] { return keys[pick(keys.size())]; };
  auto live_row = [&]() -> std::optional<size_t> {
    if (t.live_row_count() == 0) return std::nullopt;
    for (;;) {
      size_t id = pick(t.slot_count());
      if (t.IsLive(id)) return id;
    }
  };
  // One write; failures (duplicate or NULL keys) must leave indexes intact.
  auto write = [&] {
    switch (pick(4)) {
      case 0:
        (void)t.Insert({Value::String("x"), key(), key()});
        break;
      case 1:
        if (auto id = live_row()) {
          ASSERT_TRUE(t.Delete(*id).ok());
        }
        break;
      case 2:
        if (auto id = live_row()) {
          Row row = t.GetRow(*id);
          row[1] = key();
          (void)t.Update(*id, row);
        }
        break;
      case 3:
        if (auto id = live_row()) {
          Row row = t.GetRow(*id);
          row[2] = key();
          ASSERT_TRUE(t.Update(*id, row).ok());
        }
        break;
    }
  };

  std::vector<int> probed = {1};  // the PK index exists from construction
  for (int step = 0; step < 2000; ++step) {
    const std::string name = "step " + std::to_string(step);
    const size_t op = pick(20);
    if (op < 14) {
      write();
    } else if (op < 17) {
      t.set_undo_log(&undo);
      const size_t savepoint = undo.Savepoint();
      for (size_t i = 0, n = 1 + pick(5); i < n; ++i) write();
      std::vector<std::string> touched;
      ASSERT_TRUE(undo.RollbackTo(savepoint, &touched).ok());
      undo.Clear();
      t.set_undo_log(nullptr);
    } else if (op == 17) {
      if (pick(4) == 0) t.Clear();
    } else if (op == 18) {
      // Dropping column 0 shifts the PK to column 0 and back.
      const size_t column = pick(2) == 0 ? 0 : 2;
      Result<Table::DroppedColumn> dropped = t.AlterDropColumn(column);
      ASSERT_TRUE(dropped.ok());
      ExpectIndexesExact(t, column == 0 ? std::vector<int>{0, 1} : std::vector<int>{1},
                         keys, name + " dropped");
      t.AlterRestoreColumn(std::move(*dropped));
      probed = {1};
    } else {
      ASSERT_TRUE(t.AlterAddColumn("extra", TypeId::kInt, key()).ok());
      ExpectIndexesExact(t, {1, 3}, keys, name + " added");
      t.AlterDropLastColumn();
      probed = {1};
    }
    ExpectIndexesExact(t, probed, keys, name);
    if (HasFailure()) return;
    // From the first check on, the non-PK index exists and is maintained.
    probed = {1, 2};
  }
}

// Bursts of writes on a two-key column with no lookup in between, so an
// index entry piles up removed ids, out-of-order ids and repeats of one id
// (a row moved away and back, a delete undone) until a write compacts it.
// Half the bursts are rolled back. Checked after every burst.
TEST(TableTest, IndexesStayExactAcrossUnprobedWriteBursts) {
  Schema schema;
  schema.AddColumn({"id", "", TypeId::kInt, false});
  schema.AddColumn({"k", "", TypeId::kInt, false});
  Table t("t", std::move(schema), 0);
  const std::vector<Value> keys = {Value::Int(0), Value::Int(1)};
  int64_t next_id = 0;
  for (; next_id < 2000; ++next_id) {
    ASSERT_TRUE(t.Insert({Value::Int(next_id), Value::Int(next_id % 2)}).ok());
  }
  UndoLog undo;
  std::mt19937 rng(20130409);
  auto pick = [&rng](size_t n) { return std::uniform_int_distribution<size_t>(0, n - 1)(rng); };
  ExpectIndexesExact(t, {0, 1}, keys, "loaded");
  for (int burst = 0; burst < 40; ++burst) {
    const bool rollback = burst % 2 == 1;
    if (rollback) t.set_undo_log(&undo);
    const size_t savepoint = undo.Savepoint();
    for (int i = 0; i < 500; ++i) {
      const size_t op = pick(8);
      if (op == 0) {
        ASSERT_TRUE(t.Insert({Value::Int(next_id++), Value::Int(0)}).ok());
        continue;
      }
      if (t.live_row_count() == 0) continue;
      size_t id = pick(t.slot_count());
      while (!t.IsLive(id)) id = pick(t.slot_count());
      if (op == 1) {
        ASSERT_TRUE(t.Delete(id).ok());
      } else {
        Row row = t.GetRow(id);
        row[1] = Value::Int(op < 6 ? 1 : 0);  // mostly onto key 1, some back
        ASSERT_TRUE(t.Update(id, row).ok());
      }
    }
    if (rollback) {
      std::vector<std::string> touched;
      ASSERT_TRUE(undo.RollbackTo(savepoint, &touched).ok());
      undo.Clear();
      t.set_undo_log(nullptr);
    }
    ExpectIndexesExact(t, {0, 1}, keys, "burst " + std::to_string(burst));
    if (HasFailure()) return;
  }
}

TEST(TableTest, AlterAddColumnBackfillsAndUndoes) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("b")}).ok());
  ASSERT_TRUE(t.AlterAddColumn("score", TypeId::kInt, Value::Int(7)).ok());
  EXPECT_EQ(t.schema().size(), 3u);
  auto id = t.LookupByPrimaryKey(Value::Int(1));
  EXPECT_EQ(t.GetRow(*id)[2].AsInt(), 7);
  // A second column with no default backfills NULL.
  ASSERT_TRUE(t.AlterAddColumn("note", TypeId::kString, Value::Null()).ok());
  EXPECT_TRUE(t.GetRow(*id)[3].is_null());
  t.AlterDropLastColumn();
  t.AlterDropLastColumn();
  EXPECT_EQ(t.schema().size(), 2u);
  EXPECT_EQ(t.GetRow(*id).size(), 2u);
}

TEST(TableTest, AlterDropAndRestoreColumn) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  Result<Table::DroppedColumn> dropped = t.AlterDropColumn(1);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->index, 1u);
  EXPECT_EQ(t.schema().size(), 1u);
  auto id = t.LookupByPrimaryKey(Value::Int(1));
  EXPECT_EQ(t.GetRow(*id).size(), 1u);
  t.AlterRestoreColumn(std::move(*dropped));
  EXPECT_EQ(t.schema().size(), 2u);
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "a");
}

TEST(TableTest, AlterDropPrimaryKeyRejected) {
  Table t("t", TwoColumnSchema(), 0);
  EXPECT_FALSE(t.AlterDropColumn(0).ok());
}

TEST(TableTest, AlterDropShiftsPrimaryKeyIndex) {
  Schema schema;
  Column a;
  a.name = "a";
  a.type = TypeId::kString;
  schema.AddColumn(a);
  Column key;
  key.name = "id";
  key.type = TypeId::kInt;
  schema.AddColumn(key);
  Table t("t", std::move(schema), 1);
  ASSERT_TRUE(t.Insert({Value::String("x"), Value::Int(1)}).ok());
  Result<Table::DroppedColumn> dropped = t.AlterDropColumn(0);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(t.primary_key_column(), 0);
  EXPECT_TRUE(t.LookupByPrimaryKey(Value::Int(1)).ok());
  t.AlterRestoreColumn(std::move(*dropped));
  EXPECT_EQ(t.primary_key_column(), 1);
  EXPECT_TRUE(t.LookupByPrimaryKey(Value::Int(1)).ok());
}

TEST(TableTest, AlterRenameColumn) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.AlterRenameColumn(1, "label").ok());
  EXPECT_EQ(t.schema().column(1).name, "label");
}

TEST(TableTest, AlterRetypeAndRestoreColumn) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  Result<TableColumn> old_data = t.AlterRetypeColumn(1, TypeId::kInt);
  ASSERT_TRUE(old_data.ok());
  EXPECT_EQ(t.schema().column(1).type, TypeId::kInt);
  // Degrade-not-coerce: the stored value keeps its identity.
  auto id = t.LookupByPrimaryKey(Value::Int(1));
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "a");
  t.AlterRestoreColumnData(1, std::move(*old_data), TypeId::kString);
  EXPECT_EQ(t.schema().column(1).type, TypeId::kString);
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "a");
}

TEST(TableTest, SchemaVersionIsSessionControlled) {
  Table t("t", TwoColumnSchema(), 0);
  EXPECT_EQ(t.schema_version(), 1u);
  // Alter primitives never bump the version; only the session does, once
  // per committed statement.
  ASSERT_TRUE(t.AlterAddColumn("x", TypeId::kInt, Value::Null()).ok());
  EXPECT_EQ(t.schema_version(), 1u);
  t.set_schema_version(2);
  EXPECT_EQ(t.schema_version(), 2u);
}

TEST(TableTest, ClearResets) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  t.Clear();
  EXPECT_EQ(t.live_row_count(), 0u);
  EXPECT_EQ(t.slot_count(), 0u);
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
}

}  // namespace
}  // namespace seltrig
