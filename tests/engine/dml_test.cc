// INSERT/UPDATE/DELETE, DDL, and DML trigger tests.

#include <gtest/gtest.h>

#include "engine/database.h"

namespace seltrig {
namespace {

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE emp (empid INT PRIMARY KEY, name VARCHAR, salary DOUBLE, dept VARCHAR);
      INSERT INTO emp VALUES (1, 'ann', 100.0, 'eng'), (2, 'bo', 200.0, 'eng'),
                             (3, 'cy', 300.0, 'hr');
    )sql").ok());
  }

  int64_t Count(const std::string& table) {
    auto r = db_.Execute("SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  }

  Database db_;
};

TEST_F(DmlTest, InsertValues) {
  auto r = db_.Execute("INSERT INTO emp VALUES (4, 'di', 150.0, 'hr')");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 1);
  EXPECT_EQ(Count("emp"), 4);
}

TEST_F(DmlTest, InsertColumnSubset) {
  ASSERT_TRUE(db_.Execute("INSERT INTO emp (empid, name) VALUES (5, 'ed')").ok());
  auto r = db_.Execute("SELECT salary FROM emp WHERE empid = 5");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows[0][0].is_null());
}

TEST_F(DmlTest, InsertIntCoercesToDouble) {
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (6, 'fi', 123, 'eng')").ok());
  auto r = db_.Execute("SELECT salary FROM emp WHERE empid = 6");
  EXPECT_DOUBLE_EQ(r->rows[0][0].AsDouble(), 123.0);
}

TEST_F(DmlTest, InsertTypeMismatchRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (7, 'gi', 'abc', 'hr')").ok());
}

TEST_F(DmlTest, InsertDuplicateKeyRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (1, 'dup', 0.0, 'x')").ok());
}

TEST_F(DmlTest, InsertSelect) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE rich (empid INT, name VARCHAR)").ok());
  auto r = db_.Execute(
      "INSERT INTO rich SELECT empid, name FROM emp WHERE salary >= 200.0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected_rows, 2);
  EXPECT_EQ(Count("rich"), 2);
}

TEST_F(DmlTest, InsertArityMismatchRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO emp (empid, name) VALUES (8)").ok());
}

TEST_F(DmlTest, UpdateWithFilter) {
  auto r = db_.Execute("UPDATE emp SET salary = salary * 2 WHERE dept = 'eng'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 2);
  auto check = db_.Execute("SELECT salary FROM emp WHERE empid = 1");
  EXPECT_DOUBLE_EQ(check->rows[0][0].AsDouble(), 200.0);
  auto untouched = db_.Execute("SELECT salary FROM emp WHERE empid = 3");
  EXPECT_DOUBLE_EQ(untouched->rows[0][0].AsDouble(), 300.0);
}

TEST_F(DmlTest, UpdateAllRows) {
  auto r = db_.Execute("UPDATE emp SET dept = 'all'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 3);
}

TEST_F(DmlTest, UpdateAssignmentsSeeOldRow) {
  // Swap-style update: both assignments read the pre-update values.
  ASSERT_TRUE(db_.Execute("CREATE TABLE pair (id INT PRIMARY KEY, a INT, b INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO pair VALUES (1, 10, 20)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE pair SET a = b, b = a").ok());
  auto r = db_.Execute("SELECT a, b FROM pair");
  EXPECT_EQ(r->rows[0][0].AsInt(), 20);
  EXPECT_EQ(r->rows[0][1].AsInt(), 10);
}

TEST_F(DmlTest, DeleteWithFilter) {
  auto r = db_.Execute("DELETE FROM emp WHERE salary < 250.0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 2);
  EXPECT_EQ(Count("emp"), 1);
}

TEST_F(DmlTest, DeleteThenReinsertSameKey) {
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE empid = 1").ok());
  EXPECT_TRUE(db_.Execute("INSERT INTO emp VALUES (1, 'new', 1.0, 'x')").ok());
}

TEST_F(DmlTest, CreateTableDuplicateRejected) {
  EXPECT_FALSE(db_.Execute("CREATE TABLE emp (x INT)").ok());
}

TEST_F(DmlTest, DropTable) {
  ASSERT_TRUE(db_.Execute("DROP TABLE emp").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM emp").ok());
}

// --- DML triggers -------------------------------------------------------

class DmlTriggerTest : public DmlTest {
 protected:
  void SetUp() override {
    DmlTest::SetUp();
    ASSERT_TRUE(db_.Execute(
        "CREATE TABLE audit_log (op VARCHAR, empid INT, old_salary DOUBLE, "
        "new_salary DOUBLE)").ok());
  }
};

TEST_F(DmlTriggerTest, AfterInsertTriggerSeesNewRow) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_ins ON emp AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('ins', new.empid, NULL, new.salary)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (10, 'x', 50.0, 'hr')").ok());
  auto r = db_.Execute("SELECT empid, new_salary FROM audit_log WHERE op = 'ins'");
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 10);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 50.0);
}

TEST_F(DmlTriggerTest, AfterUpdateTriggerSeesOldAndNew) {
  // The paper's canonical UPDATE-audit task: log salary changes > 50%.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_upd ON emp AFTER UPDATE AS "
      "IF (new.salary > old.salary * 1.5) "
      "INSERT INTO audit_log VALUES ('upd', new.empid, old.salary, new.salary)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE emp SET salary = salary * 2 WHERE empid = 1").ok());
  ASSERT_TRUE(db_.Execute("UPDATE emp SET salary = salary * 1.1 WHERE empid = 2").ok());
  auto r = db_.Execute("SELECT empid, old_salary, new_salary FROM audit_log");
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(r->rows[0][2].AsDouble(), 200.0);
}

TEST_F(DmlTriggerTest, AfterDeleteTriggerSeesOldRow) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_del ON emp AFTER DELETE AS "
      "INSERT INTO audit_log VALUES ('del', old.empid, old.salary, NULL)").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE dept = 'eng'").ok());
  auto r = db_.Execute("SELECT COUNT(*) FROM audit_log WHERE op = 'del'");
  EXPECT_EQ(r->rows[0][0].AsInt(), 2);
}

TEST_F(DmlTriggerTest, TriggerFiresPerRow) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_ins ON emp AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('ins', new.empid, NULL, NULL)").ok());
  ASSERT_TRUE(db_.Execute(
      "INSERT INTO emp VALUES (20, 'a', 1.0, 'x'), (21, 'b', 2.0, 'x')").ok());
  EXPECT_EQ(Count("audit_log"), 2);
}

TEST_F(DmlTriggerTest, CascadingTriggers) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE second_level (n INT)").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t1 ON emp AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('ins', new.empid, NULL, NULL)").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t2 ON audit_log AFTER INSERT AS "
      "INSERT INTO second_level VALUES (new.empid)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (30, 'c', 3.0, 'y')").ok());
  EXPECT_EQ(Count("second_level"), 1);
}

TEST_F(DmlTriggerTest, InfiniteCascadeIsCut) {
  // A self-triggering insert chain must hit the depth limit, not hang.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_loop ON audit_log AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('loop', new.empid, NULL, NULL)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO audit_log VALUES ('x', 1, NULL, NULL)").ok());
}

TEST_F(DmlTriggerTest, NotifyAction) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_notify ON emp AFTER DELETE AS "
      "NOTIFY 'employee removed'").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE empid = 1").ok());
  ASSERT_EQ(db_.notifications().size(), 1u);
  EXPECT_EQ(db_.notifications()[0], "employee removed");
}

TEST_F(DmlTriggerTest, DropTriggerStopsFiring) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_ins ON emp AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('ins', new.empid, NULL, NULL)").ok());
  ASSERT_TRUE(db_.Execute("DROP TRIGGER t_ins").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (40, 'z', 1.0, 'q')").ok());
  EXPECT_EQ(Count("audit_log"), 0);
}

// --- Target rows through the column index ----------------------------------
// UPDATE and DELETE take a `col = <row-invariant>` conjunct to the table's
// index (the rule SELECT scans use) and otherwise examine every live row;
// stats.rows_scanned counts the rows examined.

class DmlTargetRowsTest : public DmlTest {
 protected:
  void SetUp() override {
    DmlTest::SetUp();
    ASSERT_TRUE(db_.Execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)").ok());
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = 0; i < 1000; ++i) {
      sql += (i == 0 ? "(" : ", (") + std::to_string(i) + ", 0)";
    }
    ASSERT_TRUE(db_.Execute(sql).ok());
  }

  StatementResult Run(const std::string& sql) {
    auto r = db_.ExecuteWithOptions(sql, ExecOptions());
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : StatementResult();
  }

  // v of the row with key `id`, or -1 when there is none (found by index).
  int64_t ValueOf(int64_t id) {
    auto r = db_.Execute("SELECT v FROM big WHERE id = " + std::to_string(id));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && !r->rows.empty() ? r->rows[0][0].AsInt() : -1;
  }
};

TEST_F(DmlTargetRowsTest, PointUpdateAndDeleteExamineOneRow) {
  StatementResult update = Run("UPDATE big SET v = 1 WHERE id = 500");
  EXPECT_EQ(update.result.affected_rows, 1);
  EXPECT_EQ(update.stats.rows_scanned, 1u);
  EXPECT_EQ(ValueOf(500), 1);
  StatementResult del = Run("DELETE FROM big WHERE id = 7");
  EXPECT_EQ(del.result.affected_rows, 1);
  EXPECT_EQ(del.stats.rows_scanned, 1u);
  EXPECT_EQ(ValueOf(7), -1);
  EXPECT_EQ(Count("big"), 999);
}

TEST_F(DmlTargetRowsTest, NonIndexableWhereExaminesEveryLiveRow) {
  Run("DELETE FROM big WHERE id = 3");  // a tombstone is not examined
  StatementResult range = Run("UPDATE big SET v = 2 WHERE id < 10");
  EXPECT_EQ(range.result.affected_rows, 9);
  EXPECT_EQ(range.stats.rows_scanned, 999u);
  StatementResult disjunction = Run("DELETE FROM big WHERE v = 2 OR id = 999");
  EXPECT_EQ(disjunction.result.affected_rows, 10);
  EXPECT_EQ(disjunction.stats.rows_scanned, 999u);
  StatementResult all = Run("UPDATE big SET v = 3");
  EXPECT_EQ(all.result.affected_rows, 989);
  EXPECT_EQ(all.stats.rows_scanned, 989u);
}

TEST_F(DmlTargetRowsTest, NullKeyMatchesNothing) {
  StatementResult update = Run("UPDATE big SET v = 9 WHERE id = NULL");
  EXPECT_EQ(update.result.affected_rows, 0);
  EXPECT_EQ(update.stats.rows_scanned, 0u);
  StatementResult del = Run("DELETE FROM big WHERE NULL = id");
  EXPECT_EQ(del.result.affected_rows, 0);
  EXPECT_EQ(Count("big"), 1000);
}

TEST_F(DmlTargetRowsTest, DoubleKeyMatchesIntKey) {
  StatementResult update = Run("UPDATE big SET v = 4 WHERE id = 2.0");
  EXPECT_EQ(update.result.affected_rows, 1);
  EXPECT_EQ(update.stats.rows_scanned, 1u);
  EXPECT_EQ(ValueOf(2), 4);
  EXPECT_EQ(Run("DELETE FROM big WHERE id = 2.0").result.affected_rows, 1);
  EXPECT_EQ(ValueOf(2), -1);
}

TEST_F(DmlTargetRowsTest, CandidatesMustPassTheWholeWhere) {
  StatementResult update = Run("UPDATE big SET v = 5 WHERE id = 4 AND v = 100");
  EXPECT_EQ(update.result.affected_rows, 0);
  EXPECT_EQ(update.stats.rows_scanned, 1u);
  EXPECT_EQ(Run("DELETE FROM big WHERE v = 100 AND id = 4").result.affected_rows, 0);
  EXPECT_EQ(ValueOf(4), 0);
}

TEST_F(DmlTargetRowsTest, TriggerActionKeyReadsNewRow) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE ev (x INT)").ok());
  ASSERT_TRUE(db_.Execute("CREATE TRIGGER t_ev ON ev AFTER INSERT AS "
                          "UPDATE big SET v = 77 WHERE id = new.x").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO ev VALUES (42)").ok());
  EXPECT_EQ(ValueOf(42), 77);
  auto r = db_.Execute("SELECT COUNT(*) FROM big WHERE v = 77");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_F(DmlTargetRowsTest, PrimaryKeyChangeMovesTheIndexEntry) {
  EXPECT_EQ(Run("UPDATE big SET id = 5000 WHERE id = 5").result.affected_rows, 1);
  EXPECT_EQ(ValueOf(5), -1);
  EXPECT_EQ(ValueOf(5000), 0);
  StatementResult update = Run("UPDATE big SET v = 8 WHERE id = 5000");
  EXPECT_EQ(update.result.affected_rows, 1);
  EXPECT_EQ(update.stats.rows_scanned, 1u);
  EXPECT_EQ(ValueOf(5000), 8);
}

TEST_F(DmlTargetRowsTest, FailClosedRollbackRestoresTheIndex) {
  // The action inserts a duplicate key, so every DELETE on big fails and
  // rolls back whole.
  ASSERT_TRUE(db_.Execute("CREATE TRIGGER t_dup ON big AFTER DELETE AS "
                          "INSERT INTO big VALUES (old.id + 1, 0)").ok());
  EXPECT_FALSE(db_.Execute("DELETE FROM big WHERE id = 9").ok());
  EXPECT_EQ(ValueOf(9), 0);
  EXPECT_EQ(Count("big"), 1000);
  ASSERT_TRUE(db_.Execute("DROP TRIGGER t_dup").ok());
  StatementResult del = Run("DELETE FROM big WHERE id = 9");
  EXPECT_EQ(del.result.affected_rows, 1);
  EXPECT_EQ(del.stats.rows_scanned, 1u);
}

// The key of the indexable conjunct is evaluated once, before any row is
// examined, so its error surfaces even when no row is live (as in SELECT).
TEST_F(DmlTargetRowsTest, KeyErrorSurfacesOnAnEmptyTable) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE none (id INT PRIMARY KEY)").ok());
  EXPECT_FALSE(db_.Execute("DELETE FROM none WHERE id = 1/0").ok());
  EXPECT_FALSE(db_.Execute("UPDATE none SET id = 2 WHERE id = 1/0").ok());
  // Without an indexable conjunct the WHERE runs per row, so nothing fails.
  EXPECT_TRUE(db_.Execute("DELETE FROM none WHERE id + 0 = 1/0").ok());
}

// Bulk writes on one key of an indexed non-key column: 10^5 rows, 90% of
// them under user_id = 1. Every write must cost the same however many rows
// share the key; the index must still equal a walk after each statement.
class DmlSharedKeyTest : public DmlTest {
 protected:
  static constexpr int kRows = 100000;

  void SetUp() override {
    DmlTest::SetUp();
    ASSERT_TRUE(db_.Execute("CREATE TABLE log (id INT PRIMARY KEY, user_id INT, "
                            "flag INT, grp INT)").ok());
    for (int start = 0; start < kRows; start += 10000) {
      std::string sql = "INSERT INTO log VALUES ";
      for (int i = start; i < start + 10000; ++i) {
        sql += (i == start ? "(" : ", (") + std::to_string(i) + ", " +
               (i % 10 == 0 ? "2" : "1") + ", 0, " + std::to_string(i % 10) + ")";
      }
      ASSERT_TRUE(db_.Execute(sql).ok());
    }
  }

  std::vector<int64_t> Ids(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    std::vector<int64_t> ids;
    if (r.ok()) {
      for (const Row& row : r->rows) ids.push_back(row[0].AsInt());
    }
    return ids;
  }

  // The index probe (`col = k`) against a walk the index cannot serve.
  void ExpectIndexMatchesWalk(const std::string& col, int64_t key,
                              const std::string& step) {
    const std::string k = std::to_string(key);
    std::vector<int64_t> probed = Ids("SELECT id FROM log WHERE " + col + " = " + k);
    std::vector<int64_t> walked =
        Ids("SELECT id FROM log WHERE " + col + " + 0 = " + k);
    EXPECT_EQ(probed, walked) << step << ": " << col << " = " << k;
  }

  void ExpectExact(const std::string& step) {
    for (int64_t user = 1; user <= 3; ++user) ExpectIndexMatchesWalk("user_id", user, step);
    for (int64_t flag = 0; flag <= 1; ++flag) ExpectIndexMatchesWalk("flag", flag, step);
  }

  int64_t Affected(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? r->affected_rows : -1;
  }
};

TEST_F(DmlSharedKeyTest, BulkUpdatesAndDeletesKeepTheIndexExact) {
  // Every row moves from flag 0 to flag 1.
  EXPECT_EQ(Affected("UPDATE log SET flag = 1 WHERE flag = 0"), kRows);
  ExpectExact("flag moved");
  // 80,000 of user 1's rows leave it; then 100 of them come back.
  EXPECT_EQ(Affected("UPDATE log SET user_id = 3 WHERE user_id = 1 AND grp <> 1"),
            80000);
  EXPECT_EQ(Affected("UPDATE log SET user_id = 1 WHERE user_id = 3 AND id < 126"), 100);
  ExpectExact("users moved");
  EXPECT_EQ(Affected("DELETE FROM log WHERE user_id = 3"), 79900);
  ExpectExact("user 3 deleted");
  EXPECT_EQ(Count("log"), kRows - 79900);
}

TEST_F(DmlSharedKeyTest, RolledBackBulkDeleteRestoresTheIndex) {
  // Re-inserting row 0 (user 2, not deleted) fails, so the whole DELETE of
  // user 1's 90,000 rows rolls back.
  ASSERT_TRUE(db_.Execute("CREATE TRIGGER t_dup ON log AFTER DELETE AS "
                          "INSERT INTO log VALUES (0, 0, 0, 0)").ok());
  EXPECT_FALSE(db_.Execute("DELETE FROM log WHERE user_id = 1").ok());
  EXPECT_EQ(Count("log"), kRows);
  ExpectExact("delete rolled back");
  ASSERT_TRUE(db_.Execute("DROP TRIGGER t_dup").ok());
  EXPECT_EQ(Affected("DELETE FROM log WHERE user_id = 1"), 90000);
  ExpectExact("user 1 deleted");
  EXPECT_EQ(Count("log"), kRows - 90000);
}

}  // namespace
}  // namespace seltrig
