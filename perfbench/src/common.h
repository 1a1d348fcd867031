// Shared plumbing for the perfbench workloads: run configuration, the report
// every workload fills in, a seeded generator, order statistics, the span
// recorder behind the traced run, and small catalog-reading helpers the
// correctness checks use to look at table contents without going through
// the query engine.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "storage/table.h"

namespace perfbench {

using seltrig::Database;
using seltrig::ExecOptions;
using seltrig::Result;
using seltrig::Row;
using seltrig::Session;
using seltrig::StatementResult;
using seltrig::Status;
using seltrig::Value;

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny inputs, a fixed number of rounds, and the extra ground-truth checks.
  bool selfcheck = false;
  // Scratch directory for journals (created and removed by the workload).
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run produced. `attempted`/`failed` count every statement
// the run sent after set-up (warm-up included); failed statements are left
// out of every latency and check.
struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Workload-specific figures printed for people (not part of the result
  // line), e.g. the workload-specific figures behind each generic slot.
  std::vector<Metric> detail;
  std::vector<std::string> problems;

  // Records a correctness violation (the run then reports correct=false).
  void Wrong(const std::string& what);
  // Records a statement that returned an error.
  void Failed(const std::string& sql, const Status& status);
};

// splitmix64: the same seed gives the same stream on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // True with probability `p`.
  bool Chance(double p);

 private:
  uint64_t state_;
};

// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Geomean(const std::vector<double>& values);

// VmHWM of this process, in MiB.
double PeakRssMb();

// Bytes of all regular files under `dir` (recursively); 0 if missing.
uint64_t DirectoryBytes(const std::string& dir);

// --- Spans ---------------------------------------------------------------
// One span per call into a layer, with the statement as the parent span.
// Spans stay in memory and are written out once, when the run ends.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root (a statement)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  uint64_t Begin(const std::string& name, uint64_t parent);
  void End(uint64_t id);
  // The innermost root span (statement) still open; 0 if none.
  uint64_t open_statement() const { return open_statement_; }
  // Adds an already-measured span (e.g. from a callback's own clock).
  void Record(const std::string& name, uint64_t parent, Clock::time_point start,
                  Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (µs) of every closed span called `name`.
  std::vector<double> Micros(const std::string& name) const;
  // Writes one JSON object per span to `path`.
  Status Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint64_t open_statement_ = 0;
};

// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, uint64_t parent)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

// --- Running statements ---------------------------------------------------
// Runs `sql` on `session`, times it, and counts it in `report`; with a
// tracer, also records the call as an "engine.session" span under
// `statement`. A failed statement is recorded in `report`; callers skip its
// latency sample and checks and go on with the next statement.
struct Timed {
  Result<StatementResult> result;
  double micros = 0;
};
Timed RunTimed(Session* session, const std::string& sql, const ExecOptions& options,
               RunReport* report, Tracer* tracer = nullptr, uint64_t statement = 0);

// A measured phase: whole rounds until `seconds` have passed (at least one
// round), or exactly `fixed_rounds` rounds when that is positive.
// `round(i)` runs round i (0-based within the phase); `statements_ok` is the
// caller's count of completed statements.
struct Phase {
  double seconds = 0;
  int rounds = 0;
  int64_t statements = 0;
  double StatementsPerSecond() const { return seconds > 0 ? statements / seconds : 0; }
};
Phase RunRounds(double seconds, int fixed_rounds, const int64_t* statements_ok,
                const std::function<void(int)>& round);

// --- Direct table reads (bypassing the query engine) ----------------------
// The caller guarantees no concurrent writer (every workload has one client).
seltrig::Table* TableOrNull(Database* db, const std::string& name);
// Column index by name, -1 if absent.
int ColumnIndex(const seltrig::Table& table, const std::string& name);
// Value of `column` in the most recently inserted live row.
Value LastRowCell(const seltrig::Table& table, int column);

// Rows sorted into a canonical order (for order-insensitive comparison).
std::vector<Row> Sorted(std::vector<Row> rows);
bool RowsEqual(const Row& a, const Row& b);
std::string RowText(const Row& row);

// Adds a metric to `list`.
void Put(std::vector<Metric>* list, const std::string& name, double value,
         const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
