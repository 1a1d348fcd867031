#include "patients.h"

#include "traced_select.h"

namespace perfbench {

const char* const kSensitiveDiagnosis = "oncology";

const char* const kPatientsDdl =
    "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, "
    "diagnosis VARCHAR, age INT);"
    "CREATE TABLE log (userid VARCHAR, query VARCHAR, patientid INT)";

const char* const kAuditDdl =
    "CREATE AUDIT EXPRESSION audit_oncology AS "
    "SELECT * FROM patients WHERE diagnosis = 'oncology' "
    "FOR SENSITIVE TABLE patients PARTITION BY patientid";

const char* const kTriggerDdl =
    "CREATE TRIGGER disclosure ON ACCESS TO audit_oncology AS "
    "INSERT INTO log SELECT user_id(), sql_text(), patientid FROM accessed";

namespace {
const char* const kOtherDiagnoses[] = {"cardiology", "dermatology", "neurology",
                                       "orthopedics", "pediatrics"};
}  // namespace

PatientsModel::PatientsModel(int64_t count, Rng* rng) {
  patients_.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) Add(NewPatient(rng));
}

Patient PatientsModel::NewPatient(Rng* rng) const {
  Patient p;
  p.id = size() + 1;
  p.name = "patient-" + std::to_string(p.id) + "-" + std::to_string(rng->Below(10000));
  p.diagnosis = rng->Chance(kSensitiveShare) ? kSensitiveDiagnosis : OtherDiagnosis(rng);
  p.age = 1 + static_cast<int64_t>(rng->Below(99));
  return p;
}

std::string PatientsModel::OtherDiagnosis(Rng* rng) {
  return kOtherDiagnoses[rng->Below(sizeof(kOtherDiagnoses) / sizeof(kOtherDiagnoses[0]))];
}

std::vector<std::string> PatientsModel::LoadStatements(size_t rows_per_statement) const {
  std::vector<std::string> out;
  std::string sql;
  size_t in_statement = 0;
  for (const Patient& p : patients_) {
    sql += in_statement == 0 ? "INSERT INTO patients VALUES " : ", ";
    sql += "(" + std::to_string(p.id) + ", '" + p.name + "', '" + p.diagnosis + "', " +
           std::to_string(p.age) + ")";
    if (++in_statement == rows_per_statement) {
      out.push_back(std::move(sql));
      sql.clear();
      in_statement = 0;
    }
  }
  if (in_statement > 0) out.push_back(std::move(sql));
  return out;
}

int64_t PatientsModel::Pick(Rng* rng) const {
  return 1 + static_cast<int64_t>(rng->Below(static_cast<uint64_t>(size())));
}

int64_t PatientsModel::PickSensitive(Rng* rng, bool sensitive) const {
  for (;;) {
    const int64_t id = Pick(rng);
    if (Get(id).sensitive() == sensitive) return id;
  }
}

std::string PatientsModel::SelectSql(int64_t id) {
  return "SELECT * FROM patients WHERE patientid = " + std::to_string(id);
}

std::string PatientsModel::InsertSql(const Patient& p) {
  return "INSERT INTO patients VALUES (" + std::to_string(p.id) + ", '" + p.name + "', '" +
         p.diagnosis + "', " + std::to_string(p.age) + ")";
}

std::string PatientsModel::UpdateSql(int64_t id, const std::string& diagnosis) {
  return "UPDATE patients SET diagnosis = '" + diagnosis +
         "' WHERE patientid = " + std::to_string(id);
}

void PatientsModel::CheckSelect(int64_t id, const StatementResult& result,
                                RunReport* report) const {
  const Patient& p = Get(id);
  const Row expected = {Value::Int(p.id), Value::String(p.name),
                        Value::String(p.diagnosis), Value::Int(p.age)};
  if (result.result.rows.size() != 1 || !RowsEqual(result.result.rows[0], expected)) {
    report->Wrong("patient " + std::to_string(id) + ": expected " + RowText(expected) +
                  ", got " + std::to_string(result.result.rows.size()) + " rows" +
                  (result.result.rows.empty() ? "" : " " + RowText(result.result.rows[0])));
  }
}

LogWatch::LogWatch(seltrig::Table* log)
    : log_(log), patient_column_(ColumnIndex(*log, "patientid")) {}

void LogWatch::Check(int64_t id, bool expect_row, RunReport* report) const {
  const size_t appended = log_->live_row_count() - before_;
  if (appended != (expect_row ? 1u : 0u)) {
    report->Wrong("patient " + std::to_string(id) + ": log grew by " +
                  std::to_string(appended) + ", expected " + (expect_row ? "1" : "0"));
    return;
  }
  if (expect_row && !(LastRowCell(*log_, patient_column_) == Value::Int(id))) {
    report->Wrong("patient " + std::to_string(id) + ": log row names another patient");
  }
}

std::optional<double> PointSelect(Database* db, Session* session,
                                  const PatientsModel& model, LogWatch* log, int64_t id,
                                  const ExecOptions& options, Tracer* tracer,
                                  RunReport* report) {
  const std::string sql = PatientsModel::SelectSql(id);
  SpanScope stmt(tracer, "statement.select", 0);
  std::optional<TracedSelect> traced;
  if (tracer != nullptr) {
    ++report->attempted;
    auto layers = TraceSelect(db, session, sql, options, tracer, stmt.id());
    if (!layers.ok()) {
      report->Failed(sql, layers.status());
      return std::nullopt;
    }
    traced = std::move(*layers);
  }
  log->Before();
  Timed timed = RunTimed(session, sql, options, report, tracer, stmt.id());
  if (!timed.result.ok()) return std::nullopt;
  model.CheckSelect(id, *timed.result, report);
  log->Check(id, options.enable_select_triggers && model.Get(id).sensitive(), report);
  if (traced) CheckTracedMatches(*traced, *timed.result, sql, report);
  return timed.micros;
}

}  // namespace perfbench
