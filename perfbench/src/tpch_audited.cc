// tpch_audited: the paper's Figure 10 setting. TPC-H Q3/5/7/8/10/18/22 over
// tpch::LoadTpch data, audited by one market segment with a disclosure
// SELECT trigger. Each query runs plain and hcn-audited (trigger firing),
// interleaved in one process, at two engine threads.
//
// Like the TPC-H throughput test, the seed permutes the query stream (the
// query order of every round and which leg of each pair runs first); the
// database is dbgen's at its default seed, so every seed measures the same
// data and plans.
//
// Checks (against the generated rows, not stored output): audited and plain
// rows are identical; every ACCESSED ID is a customer of the audited
// segment; the trigger appends exactly |ACCESSED| log rows per audited run;
// every audited-segment c_custkey in the output of Q10 and Q18 is in
// ACCESSED; ACCESSED and rows_scanned repeat exactly. The self-check also
// checks ACCESSED ⊇ the OfflineAuditor's ground truth (Claim 3.6).

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "audit/offline_auditor.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "traced_select.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kAudit = "audit_segment";
constexpr const char* kSegment = "BUILDING";
constexpr int kThreads = 2;

struct Params {
  double scale_factor;
  int setup_reps;
  int fixed_rounds;  // > 0: run exactly this many rounds (self-check)
};

Params ParamsFor(const RunConfig& config) {
  if (config.selfcheck) return Params{0.002, 2, 2};
  return Params{0.02, 9, 0};
}

struct Built {
  std::unique_ptr<Database> db;
  double setup_s = 0;
  double load_s = 0;
  double view_ms = 0;
};

Result<Built> Build(const Params& params) {
  Built built;
  const auto start = Clock::now();
  built.db = std::make_unique<Database>();
  seltrig::tpch::TpchConfig tpch;
  tpch.scale_factor = params.scale_factor;
  SELTRIG_RETURN_IF_ERROR(seltrig::tpch::LoadTpch(built.db.get(), tpch));
  const auto loaded = Clock::now();
  SELTRIG_RETURN_IF_ERROR(
      built.db->Execute(seltrig::tpch::SegmentAuditExpressionSql(kAudit, kSegment))
          .status());
  const auto viewed = Clock::now();
  SELTRIG_RETURN_IF_ERROR(built.db->ExecuteScript(
      "CREATE TABLE log (userid VARCHAR, custkey INT);"
      "CREATE TRIGGER disclosure ON ACCESS TO audit_segment AS "
      "INSERT INTO log SELECT user_id(), c_custkey FROM accessed"));
  const auto done = Clock::now();
  built.setup_s = SecondsBetween(start, done);
  built.load_s = SecondsBetween(start, loaded);
  built.view_ms = SecondsBetween(loaded, viewed) * 1e3;
  return built;
}

// Customer keys of the audited segment, read from the generated rows.
std::set<int64_t> SegmentCustomers(Database* db) {
  std::set<int64_t> keys;
  seltrig::Table* customer = TableOrNull(db, "customer");
  if (customer == nullptr) return keys;
  const int key = ColumnIndex(*customer, "c_custkey");
  const int segment = ColumnIndex(*customer, "c_mktsegment");
  for (size_t slot = 0; slot < customer->slot_count(); ++slot) {
    if (!customer->IsLive(slot)) continue;
    if (customer->GetCell(slot, segment).AsString() == kSegment) {
      keys.insert(customer->GetCell(slot, key).AsInt());
    }
  }
  return keys;
}

struct QueryState {
  seltrig::tpch::TpchQuery query;
  std::vector<double> plain_us;
  std::vector<double> audited_us;
  std::vector<double> traced_exec_us;
  std::vector<double> traced_session_us;
  // Reference from the first (warm-up) runs; later runs must repeat it.
  bool have_reference = false;
  std::vector<Row> rows;  // sorted
  std::vector<Value> accessed;
  uint64_t plain_scanned = 0;
  seltrig::ExecStats audited_stats;
};

class TpchRun {
 public:
  TpchRun(Database* db, uint64_t seed, RunReport* report)
      : db_(db), rng_(seed), report_(report), session_(db->CreateSession()) {
    plain_.enable_select_triggers = false;
    plain_.num_threads = kThreads;
    audited_.num_threads = kThreads;
    segment_ = SegmentCustomers(db);
    log_ = TableOrNull(db, "log");
    for (const auto& q : seltrig::tpch::WorkloadQueries()) {
      QueryState state;
      state.query = q;
      queries_.push_back(std::move(state));
    }
  }

  // One plain and one audited run of every query. The warm-up round (0) runs
  // the queries in order, audited leg first: it fixes the reference both
  // legs are checked against. Later rounds take a seeded order.
  void Round(int round, Tracer* tracer) {
    std::vector<size_t> order(queries_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); round > 0 && i > 1; --i) {
      std::swap(order[i - 1], order[rng_.Below(i)]);
    }
    for (size_t i : order) {
      QueryState& q = queries_[i];
      const bool plain_first = round > 0 && rng_.Chance(0.5);
      for (int leg = 0; leg < 2; ++leg) {
        const bool audited = (leg == 0) != plain_first;
        RunOne(&q, audited);
      }
      if (tracer != nullptr) TraceOne(&q, tracer);
    }
  }

  // Claim 3.6: hcn ACCESSED is a superset of the offline ground truth.
  void CheckAgainstOfflineAuditor() {
    const seltrig::AuditExpressionDef* def = db_->audit_manager()->Find(kAudit);
    for (const QueryState& q : queries_) {
      auto plan = db_->PlanSelect(q.query.sql);
      if (!plan.ok()) {
        report_->Wrong("plan " + q.query.name + ": " + plan.status().ToString());
        continue;
      }
      seltrig::OfflineAuditor auditor(db_->catalog(), session_->context());
      auto truth = auditor.Audit(**plan, *def);
      if (!truth.ok()) {
        report_->Wrong("offline audit " + q.query.name + ": " + truth.status().ToString());
        continue;
      }
      for (const Value& id : truth->accessed_ids) {
        if (!std::binary_search(q.accessed.begin(), q.accessed.end(), id,
                                [](const Value& a, const Value& b) {
                                  return Value::Compare(a, b) < 0;
                                })) {
          report_->Wrong(q.query.name + ": offline-accessed ID " + id.ToString() +
                         " missing from hcn ACCESSED");
        }
      }
    }
  }

  std::vector<QueryState>& queries() { return queries_; }
  const int64_t* statements_ok() const { return &statements_ok_; }

 private:
  void RunOne(QueryState* q, bool audited) {
    const size_t log_before = log_->live_row_count();
    Timed timed = RunTimed(session_.get(), q->query.sql, audited ? audited_ : plain_,
                           report_);
    if (!timed.result.ok()) return;
    ++statements_ok_;
    const StatementResult& r = *timed.result;
    (audited ? q->audited_us : q->plain_us).push_back(timed.micros);
    std::vector<Row> rows = Sorted(r.result.rows);
    if (!q->have_reference && audited) {
      // The first audited run (warm-up) fixes the reference every later
      // run, plain or audited, must repeat.
      q->have_reference = true;
      q->rows = rows;
      q->accessed = AccessedOf(r);
      q->audited_stats = r.stats;
      CheckAccessed(*q, r);
    }
    if (q->have_reference) CheckRows(*q, rows, audited);
    if (audited) {
      const std::vector<Value> accessed = AccessedOf(r);
      if (accessed.size() != q->accessed.size() ||
          !std::equal(accessed.begin(), accessed.end(), q->accessed.begin())) {
        report_->Wrong(q->query.name + ": ACCESSED changed between repetitions");
      }
      if (r.stats.rows_scanned != q->audited_stats.rows_scanned) {
        report_->Wrong(q->query.name + ": audited rows_scanned changed");
      }
      const size_t appended = log_->live_row_count() - log_before;
      if (appended != accessed.size()) {
        report_->Wrong(q->query.name + ": trigger appended " + std::to_string(appended) +
                       " log rows for |ACCESSED| = " + std::to_string(accessed.size()));
      }
    } else {
      if (log_->live_row_count() != log_before) {
        report_->Wrong(q->query.name + ": plain run wrote log rows");
      }
      if (q->plain_scanned == 0) q->plain_scanned = r.stats.rows_scanned;
      if (r.stats.rows_scanned != q->plain_scanned) {
        report_->Wrong(q->query.name + ": plain rows_scanned changed");
      }
    }
  }

  void CheckRows(const QueryState& q, const std::vector<Row>& rows, bool audited) {
    bool same = rows.size() == q.rows.size();
    for (size_t i = 0; same && i < rows.size(); ++i) same = RowsEqual(rows[i], q.rows[i]);
    if (!same) {
      report_->Wrong(q.query.name + (audited ? ": audited" : ": plain") +
                     " rows differ from the reference (audited and plain must match)");
    }
  }

  void CheckAccessed(const QueryState& q, const StatementResult& r) {
    for (const Value& id : q.accessed) {
      if (segment_.count(id.AsInt()) == 0) {
        report_->Wrong(q.query.name + ": ACCESSED ID " + id.ToString() +
                       " is not a " + kSegment + " customer");
      }
    }
    // Q10 and Q18 output c_custkey: each audited-segment key they return was
    // accessed.
    if (q.query.number != 10 && q.query.number != 18) return;
    int col = -1;
    for (size_t i = 0; i < r.result.schema.size(); ++i) {
      if (r.result.schema.column(i).name == "c_custkey") col = static_cast<int>(i);
    }
    if (col < 0) {
      report_->Wrong(q.query.name + ": no c_custkey output column");
      return;
    }
    std::set<int64_t> accessed;
    for (const Value& id : q.accessed) accessed.insert(id.AsInt());
    for (const Row& row : r.result.rows) {
      const int64_t key = row[col].AsInt();
      if (segment_.count(key) > 0 && accessed.count(key) == 0) {
        report_->Wrong(q.query.name + ": output customer " + std::to_string(key) +
                       " of the audited segment is missing from ACCESSED");
      }
    }
  }

  static std::vector<Value> AccessedOf(const StatementResult& r) {
    auto it = r.accessed.find(kAudit);
    return it == r.accessed.end() ? std::vector<Value>{} : it->second;
  }

  // Traced leg: the audited statement through the layer calls, then through
  // the Session; rows and ACCESSED must agree.
  void TraceOne(QueryState* q, Tracer* tracer) {
    SpanScope stmt(tracer, "statement.q" + std::to_string(q->query.number), 0);
    ++report_->attempted;
    auto traced = TraceSelect(db_, session_.get(), q->query.sql, audited_, tracer,
                              stmt.id());
    if (!traced.ok()) {
      report_->Failed(q->query.sql, traced.status());
      return;
    }
    q->traced_exec_us.push_back(tracer->spans().back().micros());
    Timed timed =
        RunTimed(session_.get(), q->query.sql, audited_, report_, tracer, stmt.id());
    if (!timed.result.ok()) return;
    ++statements_ok_;
    q->traced_session_us.push_back(timed.micros);
    CheckTracedMatches(*traced, *timed.result, q->query.sql, report_);
  }

  Database* db_;
  Rng rng_;
  RunReport* report_;
  std::unique_ptr<Session> session_;
  ExecOptions plain_;
  ExecOptions audited_;
  std::set<int64_t> segment_;
  seltrig::Table* log_ = nullptr;
  std::vector<QueryState> queries_;
  int64_t statements_ok_ = 0;
};

std::string QueryTag(const QueryState& q) { return "q" + std::to_string(q.query.number); }

}  // namespace

RunReport RunTpchAudited(const RunConfig& config) {
  RunReport report;
  const Params params = ParamsFor(config);
  std::vector<double> setup_s, load_s, view_ms;
  Built built;
  for (int i = 0; i < params.setup_reps; ++i) {
    built.db.reset();  // never hold two databases at once
    auto next = Build(params);
    if (!next.ok()) {
      report.problems.push_back("set-up: " + next.status().ToString());
      return report;
    }
    built = std::move(*next);
    setup_s.push_back(built.setup_s);
    load_s.push_back(built.load_s);
    view_ms.push_back(built.view_ms);
  }

  TpchRun run(built.db.get(), config.seed, &report);
  // Warm-up round: fixes the per-query references and fills caches; its
  // latencies are not part of the measured phase.
  run.Round(0, nullptr);
  if (config.selfcheck) run.CheckAgainstOfflineAuditor();
  for (QueryState& q : run.queries()) {
    q.plain_us.clear();
    q.audited_us.clear();
  }

  Tracer tracer;
  const double measured = config.trace ? config.seconds / 2 : config.seconds;
  Phase phase =
      RunRounds(measured, params.fixed_rounds, run.statements_ok(),
                [&](int i) { run.Round(1 + i, nullptr); });

  std::vector<double> audited_med, plain_med;
  for (const QueryState& q : run.queries()) {
    audited_med.push_back(Median(q.audited_us));
    plain_med.push_back(Median(q.plain_us));
    Put(&report.detail, "audited_ms." + QueryTag(q), Median(q.audited_us) / 1e3, "ms");
    Put(&report.detail, "plain_ms." + QueryTag(q), Median(q.plain_us) / 1e3, "ms");
  }
  const double audited_geo = Geomean(audited_med);
  const double plain_geo = Geomean(plain_med);
  Put(&report.detail, "audited_geomean_ms", audited_geo / 1e3, "ms");
  Put(&report.detail, "plain_geomean_ms", plain_geo / 1e3, "ms");
  Put(&report.detail, "hcn_overhead_x", audited_geo / plain_geo, "x");
  Put(&report.detail, "rounds", phase.rounds, "count");
  PutEndToEnd(&report, Median(setup_s), phase.StatementsPerSecond(),
              audited_geo, plain_geo);
  if (!config.trace) return report;

  RunRounds(measured, params.fixed_rounds, run.statements_ok(),
            [&](int i) { run.Round(1 + phase.rounds + i, &tracer); });
  tracer.Write(config.workdir + "/spans-tpch_audited.jsonl").ok();

  std::vector<Metric>* out = &report.per_layer;
  Put(out, "setup.load_s", Median(load_s), "s");
  Put(out, "audit.view_build_ms", Median(view_ms), "ms");
  for (const char* layer : kSelectLayerSpans) {
    Put(out, std::string(layer) + "_us", Median(tracer.Micros(layer)), "us");
  }
  const StatementBreakdown statements = Breakdown(tracer, "statement.");
  Put(out, "engine.rest_us", Median(statements.rest_us), "us");
  Put(out, "engine.statement_us.select", Median(statements.session_us), "us");
  Put(out, "engine.local_commit_us", Median(statements.local_commit_us), "us");
  for (const QueryState& q : run.queries()) {
    const std::string tag = QueryTag(q);
    const seltrig::ExecStats& s = q.audited_stats;
    Put(out, "exec.execute_ms." + tag, Median(q.traced_exec_us) / 1e3, "ms");
    Put(out, "exec.rows_scanned." + tag, static_cast<double>(s.rows_scanned), "count");
    Put(out, "exec.subquery_executions." + tag,
        static_cast<double>(s.subquery_executions), "count");
    Put(out, "audit.rows_through_ops." + tag,
        static_cast<double>(s.rows_through_audit_ops), "count");
    Put(out, "audit.probe_hits." + tag, static_cast<double>(s.audit_probe_hits), "count");
    Put(out, "audit.hits_per_row." + tag,
        s.rows_through_audit_ops > 0
            ? static_cast<double>(s.audit_probe_hits) / s.rows_through_audit_ops
            : 0,
        "ratio");
    Put(out, "audit.batches_prescreened." + tag,
        static_cast<double>(s.audit_batches_prescreened), "count");
    Put(out, "audit.accessed_ids." + tag, static_cast<double>(q.accessed.size()),
        "count");
  }
  std::vector<double> traced_med;
  for (const QueryState& q : run.queries()) traced_med.push_back(Median(q.traced_session_us));
  Put(out, "trace.overhead_pct", (Geomean(traced_med) / audited_geo - 1) * 100, "%");
  return report;
}

}  // namespace perfbench
