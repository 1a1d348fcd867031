#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

void RunReport::Wrong(const std::string& what) {
  correct = false;
  if (problems.size() < 20) problems.push_back("wrong: " + what);
}

void RunReport::Failed(const std::string& sql, const Status& status) {
  ++failed;
  if (problems.size() < 20) {
    problems.push_back("failed: " + sql.substr(0, 120) + ": " + status.ToString());
  }
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool Rng::Chance(double p) {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  return values[std::min(rank, values.size() - 1)];
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}
}  // namespace

uint64_t Tracer::Begin(const std::string& name, uint64_t parent) {
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  if (parent == 0) open_statement_ = spans_.back().id;
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  spans_[id - 1].end_ns = NowNs();
  if (id == open_statement_) open_statement_ = 0;
}

void Tracer::Record(const std::string& name, uint64_t parent, Clock::time_point start,
                    Clock::time_point end) {
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.start_ns = ToNs(start);
  span.end_ns = ToNs(end);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::Micros(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= span.start_ns) out.push_back(span.micros());
  }
  return out;
}

Status Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Internal("cannot write " + path);
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 span.name.c_str(), static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0 ? Status::OK() : Status::Internal("write " + path);
}

Timed RunTimed(Session* session, const std::string& sql, const ExecOptions& options,
               RunReport* report, Tracer* tracer, uint64_t statement) {
  ++report->attempted;
  const auto start = Clock::now();
  Timed timed{session->ExecuteWithOptions(sql, options), 0};
  const auto end = Clock::now();
  timed.micros = MicrosBetween(start, end);
  if (tracer != nullptr) tracer->Record("engine.session", statement, start, end);
  if (!timed.result.ok()) report->Failed(sql, timed.result.status());
  return timed;
}

Phase RunRounds(double seconds, int fixed_rounds, const int64_t* statements_ok,
                const std::function<void(int)>& round) {
  Phase phase;
  const int64_t before = *statements_ok;
  const auto start = Clock::now();
  for (;;) {
    round(phase.rounds);
    ++phase.rounds;
    phase.seconds = SecondsBetween(start, Clock::now());
    if (fixed_rounds > 0 ? phase.rounds >= fixed_rounds : phase.seconds >= seconds) break;
  }
  phase.statements = *statements_ok - before;
  return phase;
}

seltrig::Table* TableOrNull(Database* db, const std::string& name) {
  auto table = db->catalog()->GetTable(name);
  return table.ok() ? *table : nullptr;
}

int ColumnIndex(const seltrig::Table& table, const std::string& name) {
  const seltrig::Schema& schema = table.schema();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.column(i).name == name) return static_cast<int>(i);
  }
  return -1;
}

Value LastRowCell(const seltrig::Table& table, int column) {
  for (size_t slot = table.slot_count(); slot > 0; --slot) {
    if (table.IsLive(slot - 1)) {
      return table.GetCell(slot - 1, static_cast<size_t>(column));
    }
  }
  return Value::Null();
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Value::Compare(a[i], b[i]) != 0) return false;
  }
  return true;
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

std::string RowText(const Row& row) { return seltrig::RowToString(row); }

void Put(std::vector<Metric>* list, const std::string& name, double value,
         const std::string& unit) {
  list->push_back(Metric{name, value, unit});
}

}  // namespace perfbench
