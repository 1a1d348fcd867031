// The patients schema shared by oltp_audit and replicated_commit, and the
// benchmark's shadow model of it: what every point SELECT must return and
// whether it must append a disclosure row, computed apart from the engine.

#ifndef PERFBENCH_PATIENTS_H_
#define PERFBENCH_PATIENTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// The sensitive diagnosis; about kSensitiveShare of generated patients.
extern const char* const kSensitiveDiagnosis;
constexpr double kSensitiveShare = 0.10;

// Tables, audit expression and disclosure trigger (the log row carries the
// user, the statement text and the patient).
extern const char* const kPatientsDdl;
extern const char* const kAuditDdl;
extern const char* const kTriggerDdl;

struct Patient {
  int64_t id = 0;
  std::string name;
  std::string diagnosis;
  int64_t age = 0;
  bool sensitive() const { return diagnosis == kSensitiveDiagnosis; }
};

class PatientsModel {
 public:
  // `count` patients with ids 1..count, drawn from `rng`.
  PatientsModel(int64_t count, Rng* rng);

  // Multi-row INSERT statements that load the current patients.
  std::vector<std::string> LoadStatements(size_t rows_per_statement) const;

  int64_t size() const { return static_cast<int64_t>(patients_.size()); }
  const Patient& Get(int64_t id) const { return patients_[id - 1]; }
  // A uniformly random patient id, optionally restricted to (non-)sensitive.
  int64_t Pick(Rng* rng) const;
  int64_t PickSensitive(Rng* rng, bool sensitive) const;

  // A fresh patient (next id); sensitive with probability kSensitiveShare.
  Patient NewPatient(Rng* rng) const;
  void Add(Patient patient) { patients_.push_back(std::move(patient)); }
  void SetDiagnosis(int64_t id, std::string diagnosis) {
    patients_[id - 1].diagnosis = std::move(diagnosis);
  }
  // A diagnosis that is not sensitive.
  static std::string OtherDiagnosis(Rng* rng);

  static std::string SelectSql(int64_t id);
  static std::string InsertSql(const Patient& p);
  static std::string UpdateSql(int64_t id, const std::string& diagnosis);

  // Checks a point SELECT's result against the shadow row.
  void CheckSelect(int64_t id, const StatementResult& result, RunReport* report) const;

 private:
  std::vector<Patient> patients_;
};

// Watches the disclosure log: after an audited SELECT of `id`, exactly one
// new row naming `id` iff the patient is sensitive, none otherwise.
class LogWatch {
 public:
  explicit LogWatch(seltrig::Table* log);
  void Before() { before_ = log_->live_row_count(); }
  void Check(int64_t id, bool expect_row, RunReport* report) const;
  size_t rows() const { return log_->live_row_count(); }

 private:
  seltrig::Table* log_;
  int patient_column_;
  size_t before_ = 0;
};

// One point SELECT of patient `id` with `options` (audited when SELECT
// triggers are enabled). With a tracer it is first driven through the layer
// calls (TraceSelect) under a "statement.select" span, then run through
// `session`; the result is checked against the shadow row, the disclosure
// log and, when traced, the layer-driven result. Returns the Session call's
// latency in µs, or nullopt if a statement failed.
std::optional<double> PointSelect(Database* db, Session* session,
                                  const PatientsModel& model, LogWatch* log, int64_t id,
                                  const ExecOptions& options, Tracer* tracer,
                                  RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_PATIENTS_H_
