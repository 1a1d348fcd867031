// replicated_commit: a journaled primary (Database::Recover, sync mode
// WalSyncMode::kCommit) with one sync follower whose ReplicaApplier runs in this process
// over the in-process transport; the shipper uses the default
// ShipperOptions apart from ack_mode = kSync. Each round is an audited point
// SELECT of a sensitive patient (its disclosure row is a commit), the same
// SELECT unaudited (the plain twin behind overhead_x), and an INSERT into
// visits (a commit). patients is never written, so its index stays warm
// and the commit path dominates.
//
// Checks: every SELECT returns the shadow row and appends exactly one log
// row naming the patient (none for the twin); every INSERT affects one row;
// after catch-up the follower holds the primary's log and visits counts;
// reopening the primary's directory with Database::Recover yields them
// again; no NAKs or reconnects occurred.

#include <filesystem>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "patients.h"
#include "replication/applier.h"
#include "replication/shipper.h"
#include "replication/transport.h"
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
  if (config.selfcheck) return Params{500, 2, 40};
  return Params{20000, 5, 0};
}

constexpr const char* kVisitsDdl =
    "CREATE TABLE visits (visitid INT PRIMARY KEY, patientid INT, note VARCHAR)";

// Times each ack wait as a span under the statement being run. Sessions call
// the waiter on the client's own thread, inside the statement's span.
class TimingWaiter : public seltrig::ReplicationWaiter {
 public:
  TimingWaiter(seltrig::ReplicationWaiter* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  Status WaitReplicated(const seltrig::WalPosition& pos) override {
    const auto start = Clock::now();
    Status status = inner_->WaitReplicated(pos);
    tracer_->Record("replication.ack_wait", tracer_->open_statement(), start, Clock::now());
    return status;
  }

 private:
  seltrig::ReplicationWaiter* inner_;
  Tracer* tracer_;
};

size_t RowCount(Database* db, const std::string& table) {
  std::shared_lock<seltrig::SharedMutex> lock(db->storage_mutex());
  seltrig::Table* t = TableOrNull(db, table);
  return t == nullptr ? 0 : t->live_row_count();
}

// A primary with its follower. Members are declared so that destruction
// stops the shipper before the applier and both before the database.
struct Cluster {
  std::string dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<seltrig::ReplicaApplier> applier;
  std::unique_ptr<seltrig::LogShipper> shipper;
  std::unique_ptr<PatientsModel> model;
  double setup_s = 0;
  double load_s = 0;
  double view_ms = 0;

  std::string primary_dir() const { return dir + "/primary"; }

  void Stop() {
    if (shipper != nullptr) shipper->Stop();
    if (applier != nullptr) applier->Stop();
  }
  ~Cluster() {
    Stop();
    shipper.reset();
    applier.reset();
    db.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

Status WaitCaughtUp(seltrig::LogShipper* shipper) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (!shipper->AllCaughtUp()) {
    if (Clock::now() > deadline) return Status::DeadlineExceeded("follower catch-up");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

Status Build(const Params& params, const RunConfig& config, Cluster* c) {
  const auto start = Clock::now();
  c->dir = config.workdir + "/replicated_commit-" + std::to_string(::getpid());
  std::filesystem::remove_all(c->dir);
  std::filesystem::create_directories(c->dir);
  Rng rng(config.seed);
  c->model = std::make_unique<PatientsModel>(params.patients, &rng);
  SELTRIG_ASSIGN_OR_RETURN(c->db, Database::Recover(c->primary_dir()));
  c->db->wal()->set_sync_mode(seltrig::WalSyncMode::kCommit);  // WAL_SYNC = COMMIT
  SELTRIG_RETURN_IF_ERROR(c->db->ExecuteScript(kPatientsDdl));
  SELTRIG_RETURN_IF_ERROR(c->db->Execute(kVisitsDdl).status());
  for (const std::string& sql : c->model->LoadStatements(1000)) {
    SELTRIG_RETURN_IF_ERROR(c->db->Execute(sql).status());
  }
  const auto view_start = Clock::now();
  c->load_s = SecondsBetween(start, view_start);
  SELTRIG_RETURN_IF_ERROR(c->db->Execute(kAuditDdl).status());
  c->view_ms = SecondsBetween(view_start, Clock::now()) * 1e3;
  SELTRIG_RETURN_IF_ERROR(c->db->Execute(kTriggerDdl).status());

  SELTRIG_ASSIGN_OR_RETURN(c->applier, seltrig::ReplicaApplier::Open(c->dir + "/follower"));
  seltrig::ShipperOptions options;
  options.ack_mode = seltrig::ReplicationAckMode::kSync;
  c->shipper = std::make_unique<seltrig::LogShipper>(c->db.get(), options);
  seltrig::ReplicaApplier* applier = c->applier.get();
  c->shipper->AddFollower(
      "follower", [applier]() -> Result<std::shared_ptr<seltrig::FrameChannel>> {
        applier->Stop();
        seltrig::ChannelPair pair = seltrig::CreateInProcessChannelPair();
        applier->Start(pair.follower_end);
        return pair.primary_end;
      });
  SELTRIG_RETURN_IF_ERROR(WaitCaughtUp(c->shipper.get()));
  c->setup_s = SecondsBetween(start, Clock::now());
  return Status::OK();
}

class CommitRun {
 public:
  CommitRun(Cluster* cluster, uint64_t seed, RunReport* report)
      : db_(cluster->db.get()),
        model_(cluster->model.get()),
        rng_(seed ^ 0x5e1ec7ULL),
        report_(report),
        session_(db_->CreateSession()),
        patients_(TableOrNull(db_, "patients")),
        log_(TableOrNull(db_, "log")) {
    plain_.enable_select_triggers = false;
    key_column_ = ColumnIndex(*patients_, "patientid");
    expected_log_rows = log_.rows();
  }

  void Round(Tracer* tracer) {
    const int64_t id = model_->PickSensitive(&rng_, true);
    Select(id, true, tracer);
    Select(id, false, nullptr);
    InsertVisit(id, tracer);
  }

  void Reset() {
    select_us.clear();
    insert_us.clear();
    plain_us.clear();
  }

  int64_t statements_ok = 0;
  int64_t commits = 0;
  int64_t visits = 0;
  size_t expected_log_rows = 0;
  std::vector<double> select_us, insert_us, plain_us;

 private:
  void Select(int64_t id, bool audited, Tracer* tracer) {
    std::optional<double> us = PointSelect(db_, session_.get(), *model_, &log_, id,
                                           audited ? audited_ : plain_, tracer, report_);
    if (!us) return;
    ++statements_ok;
    (audited ? select_us : plain_us).push_back(*us);
    if (audited && model_->Get(id).sensitive()) {  // its disclosure row committed
      ++expected_log_rows;
      ++commits;
    }
  }

  void InsertVisit(int64_t patient, Tracer* tracer) {
    const int64_t visit = visits + 1;
    const std::string sql = "INSERT INTO visits VALUES (" + std::to_string(visit) + ", " +
                            std::to_string(patient) + ", 'visit-" +
                            std::to_string(visit) + "')";
    SpanScope stmt(tracer, "statement.insert", 0);
    Timed timed = RunTimed(session_.get(), sql, ExecOptions(), report_, tracer, stmt.id());
    if (!timed.result.ok()) return;  // the engine state is unchanged
    ++statements_ok;
    ++commits;
    visits = visit;
    insert_us.push_back(timed.micros);
    if (timed.result->result.affected_rows != 1) {
      report_->Wrong(sql + ": affected " +
                     std::to_string(timed.result->result.affected_rows) + " rows");
    }
    if (tracer != nullptr) {
      // patients is never written: the lookup finds the index warm.
      std::shared_lock<seltrig::SharedMutex> lock(db_->storage_mutex());
      SpanScope build(tracer, "storage.index_build", stmt.id());
      patients_->LookupBySecondary(key_column_, Value::Int(patient));
    }
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

// Follower and recovery checks after the measured phase.
void CheckReplicas(Cluster* cluster, const CommitRun& run, RunReport* report) {
  const size_t log_rows = run.expected_log_rows;
  const size_t visits = static_cast<size_t>(run.visits);
  if (RowCount(cluster->db.get(), "log") != log_rows ||
      RowCount(cluster->db.get(), "visits") != visits) {
    report->Wrong("primary counts differ from the shadow model");
  }
  Status caught_up = WaitCaughtUp(cluster->shipper.get());
  if (!caught_up.ok()) report->Wrong(caught_up.ToString());
  for (const seltrig::FollowerStatus& f : cluster->shipper->Followers()) {
    if (f.naks_received != 0 || f.reconnects != 0 || f.degraded) {
      report->Wrong("follower " + f.name + ": naks=" + std::to_string(f.naks_received) +
                    " reconnects=" + std::to_string(f.reconnects) +
                    (f.degraded ? " degraded" : ""));
    }
  }
  std::shared_ptr<Database> follower = cluster->applier->database();
  if (RowCount(follower.get(), "log") != log_rows ||
      RowCount(follower.get(), "visits") != visits) {
    report->Wrong("follower log/visits counts differ from the primary's");
  }
  cluster->Stop();
  cluster->shipper.reset();
  cluster->db.reset();
  auto reopened = Database::Recover(cluster->primary_dir());
  if (!reopened.ok()) {
    report->Wrong("reopen: " + reopened.status().ToString());
    return;
  }
  if (RowCount(reopened->get(), "log") != log_rows ||
      RowCount(reopened->get(), "visits") != visits) {
    report->Wrong("recovered log/visits counts differ from the acknowledged ones");
  }
}

}  // namespace

RunReport RunReplicatedCommit(const RunConfig& config) {
  RunReport report;
  const Params params = ParamsFor(config);
  std::vector<double> setup_s, load_s, view_ms;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < params.setup_reps; ++i) {
    cluster.reset();  // never hold two clusters at once
    cluster = std::make_unique<Cluster>();
    Status built = Build(params, config, cluster.get());
    if (!built.ok()) {
      report.problems.push_back("set-up: " + built.ToString());
      return report;
    }
    setup_s.push_back(cluster->setup_s);
    load_s.push_back(cluster->load_s);
    view_ms.push_back(cluster->view_ms);
  }

  CommitRun run(cluster.get(), config.seed, &report);
  // Warm-up rounds, not measured.
  for (int round = 0; round < 10; ++round) {
    run.Round(nullptr);
  }
  run.Reset();

  const double measured = config.trace ? config.seconds / 2 : config.seconds;
  Phase phase = RunRounds(measured, params.fixed_rounds, &run.statements_ok,
                          [&](int) { run.Round(nullptr); });

  std::vector<double> commit_us = run.select_us;
  commit_us.insert(commit_us.end(), run.insert_us.begin(), run.insert_us.end());
  const double select_p50 = Median(run.select_us);
  Put(&report.detail, "commit_p50_us", Median(commit_us), "us");
  Put(&report.detail, "commit_p99_us", Percentile(commit_us, 0.99), "us");
  Put(&report.detail, "select_commit_p50_us", select_p50, "us");
  Put(&report.detail, "select_commit_p99_us", Percentile(run.select_us, 0.99), "us");
  Put(&report.detail, "insert_commit_p50_us", Median(run.insert_us), "us");
  Put(&report.detail, "commits", static_cast<double>(commit_us.size()), "count");
  PutEndToEnd(&report, Median(setup_s), phase.StatementsPerSecond(), select_p50,
              Median(run.plain_us));

  if (config.trace) {
    Tracer tracer;
    TimingWaiter waiter(cluster->shipper.get(), &tracer);
    const std::string wal_dir = cluster->primary_dir() + "/wal";
    const uint64_t wal_before = DirectoryBytes(wal_dir);
    const int64_t commits_before = run.commits;
    const seltrig::FollowerStatus before = cluster->shipper->Followers().at(0);
    cluster->db->set_replication_waiter(&waiter);
    RunRounds(measured, params.fixed_rounds, &run.statements_ok,
              [&](int) { run.Round(&tracer); });
    cluster->db->set_replication_waiter(cluster->shipper.get());
    const seltrig::FollowerStatus after = cluster->shipper->Followers().at(0);
    tracer.Write(config.workdir + "/spans-replicated_commit.jsonl").ok();

    std::vector<Metric>* out = &report.per_layer;
    Put(out, "setup.load_s", Median(load_s), "s");
    Put(out, "audit.view_build_ms", Median(view_ms), "ms");
    for (const char* layer : kSelectLayerSpans) {
      Put(out, std::string(layer) + "_us", Median(tracer.Micros(layer)), "us");
    }
    const StatementBreakdown selects = Breakdown(tracer, "statement.select");
    const StatementBreakdown all = Breakdown(tracer, "statement.");
    Put(out, "engine.rest_us", Median(selects.rest_us), "us");
    Put(out, "engine.statement_us.select", Median(selects.session_us), "us");
    Put(out, "engine.statement_us.insert",
        Median(Breakdown(tracer, "statement.insert").session_us), "us");
    Put(out, "engine.local_commit_us", Median(all.local_commit_us), "us");
    Put(out, "replication.ack_wait_us", Median(tracer.Micros("replication.ack_wait")),
        "us");
    Put(out, "storage.index_build_ms", Median(tracer.Micros("storage.index_build")) / 1e3,
        "ms");
    const int64_t commits = run.commits - commits_before;
    Put(out, "storage.wal_bytes_per_commit",
        commits > 0 ? static_cast<double>(DirectoryBytes(wal_dir) - wal_before) / commits
                    : 0,
        "B");
    const double sent = static_cast<double>(after.records_sent - before.records_sent);
    const double acked = static_cast<double>(after.records_acked - before.records_acked);
    Put(out, "replication.records_sent", sent, "count");
    Put(out, "replication.records_acked", acked, "count");
    Put(out, "replication.acked_per_sent", sent > 0 ? acked / sent : 0, "ratio");
    Put(out, "replication.naks", static_cast<double>(after.naks_received), "count");
    Put(out, "replication.reconnects", static_cast<double>(after.reconnects), "count");
    Put(out, "trace.overhead_pct", (Median(selects.session_us) / select_p50 - 1) * 100,
        "%");
  }
  CheckReplicas(cluster.get(), run, &report);
  return report;
}

}  // namespace perfbench
