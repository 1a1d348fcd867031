// Outside-in trace of one SELECT: drives the statement through the engine's
// public layer entry points in the order Session::PrepareSelectPlan and
// Session::RunSelectQuery use them, under the database's shared lock, with
// one span per call:
//
//   sql.parse        ParseSql
//   binder.bind      Binder::BindSelect
//   optimizer.optimize  OptimizePlan
//   audit.place      InstrumentPlan (one call per audited expression)
//   optimizer.post_place  OptimizeInstrumentedPlan
//   exec.execute     Executor::ExecuteQuery
//
// The traced path records ACCESSED but fires no trigger; callers compare its
// rows and ACCESSED with what the Session returned for the same statement.

#ifndef PERFBENCH_TRACED_SELECT_H_
#define PERFBENCH_TRACED_SELECT_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "exec/exec_context.h"
#include "exec/executor.h"

namespace perfbench {

struct TracedSelect {
  seltrig::QueryResult result;
  std::map<std::string, std::vector<Value>> accessed;
};

// The span names above, in pipeline order.
extern const char* const kSelectLayerSpans[6];

Result<TracedSelect> TraceSelect(Database* db, Session* session, const std::string& sql,
                                 const ExecOptions& options, Tracer* tracer,
                                 uint64_t parent);

// Per-statement split of the spans under every root span whose name starts
// with `statement_prefix`: the Session call ("engine.session"), the time the
// Session call spent waiting for the follower ack ("replication.ack_wait",
// recorded by the waiter while the call runs), and the remainder no timed
// layer call covers (session − layer calls − ack wait).
struct StatementBreakdown {
  std::vector<double> session_us;
  std::vector<double> rest_us;
  std::vector<double> local_commit_us;  // session − ack wait
};
StatementBreakdown Breakdown(const Tracer& tracer, const std::string& statement_prefix);

// Compares a traced SELECT with the Session's result for the same statement
// (same rows, same ACCESSED); records a violation in `report` on mismatch.
void CheckTracedMatches(const TracedSelect& traced, const StatementResult& session,
                        const std::string& sql, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_SELECT_H_
