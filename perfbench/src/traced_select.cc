#include "traced_select.h"

#include <mutex>
#include <shared_mutex>

#include "audit/accessed_state.h"
#include "audit/placement.h"
#include "binder/binder.h"
#include "optimizer/optimizer.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace perfbench {

const char* const kSelectLayerSpans[6] = {
    "sql.parse",   "binder.bind",           "optimizer.optimize",
    "audit.place", "optimizer.post_place", "exec.execute"};

Result<TracedSelect> TraceSelect(Database* db, Session* session, const std::string& sql,
                                 const ExecOptions& options, Tracer* tracer,
                                 uint64_t parent) {
  std::shared_lock<seltrig::SharedMutex> lock(db->storage_mutex());

  seltrig::ast::StatementPtr stmt;
  {
    SpanScope span(tracer, kSelectLayerSpans[0], parent);
    SELTRIG_ASSIGN_OR_RETURN(stmt, seltrig::ParseSql(sql));
  }
  if (stmt->kind != seltrig::ast::StatementKind::kSelect) {
    return Status::InvalidArgument("not a SELECT: " + sql);
  }
  const auto& select = *static_cast<seltrig::ast::SelectWrapper&>(*stmt).select;

  seltrig::PlanPtr plan;
  {
    SpanScope span(tracer, kSelectLayerSpans[1], parent);
    seltrig::Binder binder(db->catalog());
    SELTRIG_ASSIGN_OR_RETURN(plan, binder.BindSelect(select));
  }

  seltrig::OptimizerOptions opt_options = options.optimizer;
  opt_options.catalog = db->catalog();
  for (const seltrig::AuditExpressionDef* def : db->audit_manager()->All()) {
    opt_options.audit_keys.push_back(
        {def->sensitive_table(), def->partition_column(), def->partition_by()});
  }
  {
    SpanScope span(tracer, kSelectLayerSpans[2], parent);
    SELTRIG_ASSIGN_OR_RETURN(plan, seltrig::OptimizePlan(std::move(plan), opt_options));
  }

  std::vector<std::string> audit_names;
  if (options.enable_select_triggers) {
    audit_names = db->trigger_manager()->AuditedExpressionNames();
  }
  bool instrumented = false;
  for (const std::string& name : audit_names) {
    const seltrig::AuditExpressionDef* def = db->audit_manager()->Find(name);
    if (def == nullptr) continue;
    seltrig::PlacementOptions popts;
    popts.heuristic = options.heuristic;
    popts.use_id_view = options.use_id_views;
    popts.use_bloom_filter = options.use_bloom_filters;
    popts.bloom_fp_rate = options.bloom_fp_rate;
    SpanScope span(tracer, kSelectLayerSpans[3], parent);
    SELTRIG_ASSIGN_OR_RETURN(plan, seltrig::InstrumentPlan(*plan, *def, popts));
    instrumented = true;
  }
  if (instrumented && options.run_post_placement_rules) {
    SpanScope span(tracer, kSelectLayerSpans[4], parent);
    SELTRIG_ASSIGN_OR_RETURN(
        plan, seltrig::OptimizeInstrumentedPlan(std::move(plan), opt_options));
  }

  seltrig::ExecContext ctx(db->catalog(), session->context());
  ctx.set_batch_size(options.batch_size);
  ctx.set_columnar(options.columnar);
  ctx.set_num_threads(options.num_threads);
  seltrig::AccessedStateRegistry registry;
  ctx.set_accessed(&registry);
  seltrig::Executor executor(&ctx);
  TracedSelect out;
  {
    SpanScope span(tracer, kSelectLayerSpans[5], parent);
    SELTRIG_ASSIGN_OR_RETURN(out.result, executor.ExecuteQuery(*plan, options.max_rows));
  }
  for (const auto& [name, state] : registry.states()) {
    out.accessed[name] = state.SortedIds();
  }
  return out;
}

StatementBreakdown Breakdown(const Tracer& tracer, const std::string& statement_prefix) {
  struct Parts {
    double session = 0, layers = 0, ack = 0;
    bool has_session = false;
  };
  std::map<uint64_t, Parts> parts;  // statement span id -> its children
  for (const Span& span : tracer.spans()) {
    if (span.parent == 0) {
      if (span.name.rfind(statement_prefix, 0) == 0) parts[span.id];
      continue;
    }
    auto it = parts.find(span.parent);
    if (it == parts.end()) continue;
    if (span.name == "engine.session") {
      it->second.session += span.micros();
      it->second.has_session = true;
    } else if (span.name == "replication.ack_wait") {
      it->second.ack += span.micros();
    } else {
      for (const char* layer : kSelectLayerSpans) {
        if (span.name == layer) it->second.layers += span.micros();
      }
    }
  }
  StatementBreakdown out;
  for (const auto& [id, p] : parts) {
    if (!p.has_session) continue;
    out.session_us.push_back(p.session);
    out.local_commit_us.push_back(p.session - p.ack);
    if (p.layers > 0) out.rest_us.push_back(p.session - p.layers - p.ack);
  }
  return out;
}

void CheckTracedMatches(const TracedSelect& traced, const StatementResult& session,
                        const std::string& sql, RunReport* report) {
  // Order-insensitive: ORDER BY ties may come back in either order.
  const std::vector<Row> a = Sorted(traced.result.rows);
  const std::vector<Row> b = Sorted(session.result.rows);
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) same = RowsEqual(a[i], b[i]);
  if (!same) report->Wrong("traced rows differ from the session's: " + sql);
  // The session reports a (possibly empty) ACCESSED entry per instrumented
  // expression; compare expression by expression, treating absent as empty.
  std::map<std::string, std::vector<Value>> left = traced.accessed;
  std::map<std::string, std::vector<Value>> right = session.accessed;
  for (const auto& [name, ids] : right) left.try_emplace(name);
  for (const auto& [name, ids] : left) right.try_emplace(name);
  for (const auto& [name, ids] : left) {
    const std::vector<Value>& other = right[name];
    bool equal = ids.size() == other.size();
    for (size_t i = 0; equal && i < ids.size(); ++i) equal = ids[i] == other[i];
    if (!equal) report->Wrong("traced ACCESSED(" + name + ") differs: " + sql);
  }
}

}  // namespace perfbench
