// oltp_audit: an in-memory patients table (10^5 rows, ~10% sensitive under
// a diagnosis audit expression), a disclosure log and a SELECT trigger.
// Each round is one point write, then nine audited point SELECTs by primary
// key, then the last SELECT again unaudited (the plain twin behind
// overhead_x). Writes cycle through: move a patient into the sensitive set,
// move one out of it, insert a new patient. No journal.
//
// Checks: every SELECT returns the shadow row; the log grows by one row
// naming the patient exactly when the shadow says the patient is sensitive
// (never for the plain twin); every write affects one row.

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "patients.h"
#include "traced_select.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Params {
  int64_t patients;
  int setup_reps;
  int fixed_rounds;  // > 0: run exactly this many rounds (self-check)
};

Params ParamsFor(const RunConfig& config) {
  if (config.selfcheck) return Params{2000, 2, 30};
  return Params{100000, 5, 0};
}

constexpr int kSelectsPerRound = 9;

struct Built {
  std::unique_ptr<Database> db;
  std::unique_ptr<PatientsModel> model;
  double setup_s = 0;
  double load_s = 0;
  double view_ms = 0;
};

Result<Built> Build(const Params& params, uint64_t seed) {
  Built built;
  const auto start = Clock::now();
  Rng rng(seed);
  built.model = std::make_unique<PatientsModel>(params.patients, &rng);
  built.db = std::make_unique<Database>();
  SELTRIG_RETURN_IF_ERROR(built.db->ExecuteScript(kPatientsDdl));
  for (const std::string& sql : built.model->LoadStatements(1000)) {
    SELTRIG_RETURN_IF_ERROR(built.db->Execute(sql).status());
  }
  const auto view_start = Clock::now();
  built.load_s = SecondsBetween(start, view_start);
  SELTRIG_RETURN_IF_ERROR(built.db->Execute(kAuditDdl).status());
  built.view_ms = SecondsBetween(view_start, Clock::now()) * 1e3;
  SELTRIG_RETURN_IF_ERROR(built.db->Execute(kTriggerDdl).status());
  built.setup_s = SecondsBetween(start, Clock::now());
  return built;
}

class OltpRun {
 public:
  OltpRun(Database* db, PatientsModel* model, uint64_t seed, RunReport* report)
      : db_(db),
        model_(model),
        rng_(seed ^ 0x0171a0d17ULL),
        report_(report),
        session_(db->CreateSession()),
        patients_(TableOrNull(db, "patients")),
        log_(TableOrNull(db, "log")) {
    plain_.enable_select_triggers = false;
    key_column_ = ColumnIndex(*patients_, "patientid");
  }

  void Round(int round, Tracer* tracer) {
    Write(round % 3, tracer);
    int64_t id = 0;
    for (int i = 0; i < kSelectsPerRound; ++i) {
      id = model_->Pick(&rng_);
      Select(id, true, tracer);
    }
    Select(id, false, nullptr);
  }

  void Reset() {
    select_us.clear();
    plain_us.clear();
    write_us.clear();
  }

  int64_t statements_ok = 0;
  std::vector<double> select_us, plain_us, write_us;

 private:
  // 0: a non-sensitive patient becomes sensitive; 1: a sensitive one stops
  // being sensitive; 2: a new patient (sensitive with the generated share).
  void Write(int kind, Tracer* tracer) {
    std::string sql;
    Patient fresh;
    int64_t id = 0;
    std::string diagnosis;
    if (kind == 2) {
      fresh = model_->NewPatient(&rng_);
      id = fresh.id;
      sql = PatientsModel::InsertSql(fresh);
    } else {
      id = model_->PickSensitive(&rng_, kind == 1);
      diagnosis = kind == 0 ? kSensitiveDiagnosis : PatientsModel::OtherDiagnosis(&rng_);
      sql = PatientsModel::UpdateSql(id, diagnosis);
    }
    SpanScope stmt(tracer, kind == 2 ? "statement.insert" : "statement.update", 0);
    Timed timed = RunTimed(session_.get(), sql, ExecOptions(), report_, tracer, stmt.id());
    if (!timed.result.ok()) return;  // the engine state is unchanged
    ++statements_ok;
    write_us.push_back(timed.micros);
    if (timed.result->result.affected_rows != 1) {
      report_->Wrong(sql + ": affected " +
                     std::to_string(timed.result->result.affected_rows) + " rows");
    }
    if (kind == 2) {
      model_->Add(std::move(fresh));
    } else {
      model_->SetDiagnosis(id, diagnosis);
    }
    if (tracer != nullptr) {
      // The first secondary-index lookup after a write rebuilds the index.
      std::shared_lock<seltrig::SharedMutex> lock(db_->storage_mutex());
      SpanScope build(tracer, "storage.index_build", stmt.id());
      patients_->LookupBySecondary(key_column_, Value::Int(id));
    }
  }

  void Select(int64_t id, bool audited, Tracer* tracer) {
    std::optional<double> us = PointSelect(db_, session_.get(), *model_, &log_, id,
                                           audited ? audited_ : plain_, tracer, report_);
    if (!us) return;
    ++statements_ok;
    (audited ? select_us : plain_us).push_back(*us);
  }

  Database* db_;
  PatientsModel* model_;
  Rng rng_;
  RunReport* report_;
  std::unique_ptr<Session> session_;
  seltrig::Table* patients_;
  LogWatch log_;
  int key_column_ = -1;
  ExecOptions audited_;
  ExecOptions plain_;
};

}  // namespace

RunReport RunOltpAudit(const RunConfig& config) {
  RunReport report;
  const Params params = ParamsFor(config);
  std::vector<double> setup_s, load_s, view_ms;
  Built built;
  for (int i = 0; i < params.setup_reps; ++i) {
    built.db.reset();  // never hold two databases at once
    auto next = Build(params, config.seed);
    if (!next.ok()) {
      report.problems.push_back("set-up: " + next.status().ToString());
      return report;
    }
    built = std::move(*next);
    setup_s.push_back(built.setup_s);
    load_s.push_back(built.load_s);
    view_ms.push_back(built.view_ms);
  }

  OltpRun run(built.db.get(), built.model.get(), config.seed, &report);
  // Warm-up: one round of each write kind, not measured.
  for (int round = 0; round < 3; ++round) {
    run.Round(round, nullptr);
  }
  run.Reset();

  const double measured = config.trace ? config.seconds / 2 : config.seconds;
  Phase phase = RunRounds(measured, params.fixed_rounds, &run.statements_ok,
                          [&](int i) { run.Round(3 + i, nullptr); });

  const double select_p50 = Median(run.select_us);
  Put(&report.detail, "select_p50_us", select_p50, "us");
  Put(&report.detail, "select_p99_us", Percentile(run.select_us, 0.99), "us");
  Put(&report.detail, "write_p50_us", Median(run.write_us), "us");
  Put(&report.detail, "write_p99_us", Percentile(run.write_us, 0.99), "us");
  Put(&report.detail, "selects", static_cast<double>(run.select_us.size()), "count");
  Put(&report.detail, "writes", static_cast<double>(run.write_us.size()), "count");
  PutEndToEnd(&report, Median(setup_s), phase.StatementsPerSecond(), select_p50,
              Median(run.plain_us));
  if (!config.trace) return report;

  Tracer tracer;
  RunRounds(measured, params.fixed_rounds, &run.statements_ok,
            [&](int i) { run.Round(3 + phase.rounds + i, &tracer); });
  tracer.Write(config.workdir + "/spans-oltp_audit.jsonl").ok();

  std::vector<Metric>* out = &report.per_layer;
  Put(out, "setup.load_s", Median(load_s), "s");
  Put(out, "audit.view_build_ms", Median(view_ms), "ms");
  for (const char* layer : kSelectLayerSpans) {
    Put(out, std::string(layer) + "_us", Median(tracer.Micros(layer)), "us");
  }
  const StatementBreakdown selects = Breakdown(tracer, "statement.select");
  Put(out, "engine.rest_us", Median(selects.rest_us), "us");
  Put(out, "engine.statement_us.select", Median(selects.session_us), "us");
  Put(out, "engine.statement_us.update",
      Median(Breakdown(tracer, "statement.update").session_us), "us");
  Put(out, "engine.statement_us.insert",
      Median(Breakdown(tracer, "statement.insert").session_us), "us");
  Put(out, "engine.local_commit_us", Median(Breakdown(tracer, "statement.").local_commit_us),
      "us");
  Put(out, "storage.index_build_ms", Median(tracer.Micros("storage.index_build")) / 1e3,
      "ms");
  Put(out, "trace.overhead_pct", (Median(selects.session_us) / select_p50 - 1) * 100, "%");
  return report;
}

}  // namespace perfbench
