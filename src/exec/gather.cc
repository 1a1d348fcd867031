#include "exec/gather.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "audit/accessed_state.h"
#include "common/thread_pool.h"
#include "expr/analysis.h"

namespace seltrig {

const LogicalScan* ParallelSpineScan(const LogicalOperator& node) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      if (scan.virtual_rows != nullptr) return nullptr;
      if (scan.filter != nullptr) {
        if (ContainsSubquery(*scan.filter)) return nullptr;
        const Expr* key = nullptr;
        if (FindIndexableConjunct(*scan.filter, &key) >= 0) return nullptr;
      }
      return &scan;
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const LogicalFilter&>(node);
      if (filter.predicate != nullptr && ContainsSubquery(*filter.predicate)) {
        return nullptr;
      }
      return ParallelSpineScan(*node.children[0]);
    }
    case PlanKind::kProject: {
      const auto& project = static_cast<const LogicalProject&>(node);
      for (const ExprPtr& e : project.exprs) {
        if (e != nullptr && ContainsSubquery(*e)) return nullptr;
      }
      return ParallelSpineScan(*node.children[0]);
    }
    case PlanKind::kAudit: {
      const auto& audit = static_cast<const LogicalAudit&>(node);
      if (audit.fallback_predicate != nullptr &&
          ContainsSubquery(*audit.fallback_predicate)) {
        return nullptr;
      }
      return ParallelSpineScan(*node.children[0]);
    }
    default:
      // Joins, aggregates, sorts, limits, distinct, values: serial path.
      return nullptr;
  }
}

namespace {

// Builds a worker-private copy of the spine over the slot range [begin, end).
// Only the node kinds ParallelSpineScan admits can appear here.
OperatorPtr BuildSpine(ExecContext* ctx, const LogicalOperator& node,
                       Table* table, size_t begin, size_t end) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      auto op = std::make_unique<SeqScanOp>(ctx, std::vector<const Row*>{},
                                            scan, table);
      op->set_slot_range(begin, end);
      return op;
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const LogicalFilter&>(node);
      return std::make_unique<FilterOp>(
          ctx, std::vector<const Row*>{}, filter,
          BuildSpine(ctx, *node.children[0], table, begin, end));
    }
    case PlanKind::kProject: {
      const auto& project = static_cast<const LogicalProject&>(node);
      return std::make_unique<ProjectOp>(
          ctx, std::vector<const Row*>{}, project,
          BuildSpine(ctx, *node.children[0], table, begin, end));
    }
    case PlanKind::kAudit: {
      const auto& audit = static_cast<const LogicalAudit&>(node);
      return std::make_unique<PhysicalAuditOp>(
          ctx, std::vector<const Row*>{}, audit,
          BuildSpine(ctx, *node.children[0], table, begin, end));
    }
    default:
      return nullptr;  // unreachable: eligibility checked the tree
  }
}

}  // namespace

PhysicalGatherOp::PhysicalGatherOp(ExecContext* ctx,
                                   const LogicalOperator& spine,
                                   const LogicalScan& scan, Table* table)
    : PhysicalOperator(ctx, {}), spine_(spine), scan_(scan), table_(table) {}

std::string PhysicalGatherOp::DebugName() const {
  return "Gather(threads=" + std::to_string(workers_used_ > 0
                                                ? workers_used_
                                                : ctx_->num_threads()) +
         ")";
}

void PhysicalGatherOp::AppendProfileLines(int indent, std::string* out) const {
  for (const SpineStat& s : spine_stats_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%*s%s  rows=%llu batches=%llu init=%.3fms next=%.3fms "
                  "[sum of %d workers]\n",
                  indent * 2, "", s.name.c_str(),
                  static_cast<unsigned long long>(s.profile.rows_out),
                  static_cast<unsigned long long>(s.profile.batches),
                  static_cast<double>(s.profile.init_ns) / 1e6,
                  static_cast<double>(s.profile.next_ns) / 1e6, workers_used_);
    *out += line;
    ++indent;
  }
}

Status PhysicalGatherOp::InitImpl() {
  rows_.clear();
  cursor_ = 0;
  spine_stats_.clear();

  const size_t slots = table_->slot_count();
  const size_t morsel_count = (slots + kMorselSlots - 1) / kMorselSlots;
  if (morsel_count == 0) {
    workers_used_ = 0;
    return Status::OK();
  }
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(ctx_->num_threads(), 1)), morsel_count));
  workers_used_ = workers;

  struct WorkerState {
    std::unique_ptr<ExecContext> ctx;
    AccessedStateRegistry registry;
    Status status = Status::OK();
    std::vector<SpineStat> stats;
  };
  std::vector<WorkerState> states(static_cast<size_t>(workers));
  // Output buffer per morsel: concatenating in morsel order reproduces the
  // serial scan order exactly, independent of which worker ran which morsel.
  std::vector<std::vector<Row>> morsel_rows(morsel_count);
  std::atomic<size_t> next_morsel{0};
  const bool track_accessed = ctx_->accessed() != nullptr;

  for (auto& ws : states) {
    ws.ctx = std::make_unique<ExecContext>(ctx_->catalog(), ctx_->session());
    for (const ScanExclusion& e : ctx_->exclusions()) ws.ctx->AddExclusion(e);
    ws.ctx->set_batch_size(ctx_->batch_size());
    ws.ctx->set_columnar(ctx_->columnar());
    ws.ctx->set_collect_profile(ctx_->collect_profile());
    // Thread-local ACCESSED partition, uncapped: the deterministic merge
    // below re-applies the union; eligibility guaranteed no cap is active.
    if (track_accessed) ws.ctx->set_accessed(&ws.registry);
  }

  auto run_worker = [&](int w) {
    WorkerState& ws = states[static_cast<size_t>(w)];
    while (true) {
      const size_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
      if (m >= morsel_count) return;
      const size_t begin = m * kMorselSlots;
      const size_t end = std::min(begin + kMorselSlots, slots);
      OperatorPtr root = BuildSpine(ws.ctx.get(), spine_, table_, begin, end);
      if (root == nullptr) {
        ws.status = Status::Internal("gather: unbuildable spine node");
        return;
      }
      Status init = root->Init();
      if (!init.ok()) {
        if (ws.status.ok()) ws.status = init;
        return;
      }
      std::vector<Row>& out_rows = morsel_rows[m];
      ColumnBatch batch;
      while (true) {
        Result<bool> has = root->NextBatch(&batch);
        if (!has.ok()) {
          if (ws.status.ok()) ws.status = has.status();
          return;
        }
        if (!*has) break;
        for (size_t i = 0; i < batch.size(); ++i) {
          out_rows.emplace_back();
          batch.MoveRowTo(i, &out_rows.back());
        }
      }
      // Fold this morsel's per-operator profiles into the worker's running
      // sums (root first) before the pipeline is destroyed.
      const PhysicalOperator* op = root.get();
      for (size_t pos = 0; op != nullptr; ++pos) {
        if (ws.stats.size() <= pos) ws.stats.push_back({op->DebugName(), {}});
        OperatorProfile& agg = ws.stats[pos].profile;
        agg.batches += op->profile().batches;
        agg.rows_out += op->profile().rows_out;
        agg.init_ns += op->profile().init_ns;
        agg.next_ns += op->profile().next_ns;
        op = op->profile_children().empty() ? nullptr
                                            : op->profile_children()[0];
      }
    }
  };

  ThreadPool::Shared().RunAndWait(workers, run_worker);

  // --- Deterministic merge (all on the calling thread) -----------------------
  // Errors: first failing worker by index wins, so the surfaced error does
  // not depend on scheduling.
  for (const WorkerState& ws : states) {
    if (!ws.status.ok()) return ws.status;
  }
  // Stats are sums over a fixed partition of the slots, so each total is
  // identical to the serial run's regardless of morsel assignment.
  for (WorkerState& ws : states) {
    ExecStats& total = ctx_->stats();
    const ExecStats& s = ws.ctx->stats();
    total.rows_scanned += s.rows_scanned;
    total.rows_through_audit_ops += s.rows_through_audit_ops;
    total.audit_probe_hits += s.audit_probe_hits;
    total.subquery_executions += s.subquery_executions;
    total.audit_batches_prescreened += s.audit_batches_prescreened;
  }
  // ACCESSED: union the thread-local partitions into the query's registry in
  // worker-index order. Set union is commutative and the registry is
  // uncapped, so the merged state equals the serial state bit for bit.
  if (track_accessed) {
    for (WorkerState& ws : states) {
      for (const auto& [name, state] : ws.registry.states()) {
        AccessedState& dst = ctx_->accessed()->GetOrCreate(name);
        for (const Value& id : state.ids()) dst.Record(id);
      }
    }
  }
  // Worker profiles: sum position-wise across workers (every worker ran the
  // same spine shape).
  for (const WorkerState& ws : states) {
    for (size_t pos = 0; pos < ws.stats.size(); ++pos) {
      if (spine_stats_.size() <= pos) {
        spine_stats_.push_back({ws.stats[pos].name, {}});
      }
      OperatorProfile& agg = spine_stats_[pos].profile;
      agg.batches += ws.stats[pos].profile.batches;
      agg.rows_out += ws.stats[pos].profile.rows_out;
      agg.init_ns += ws.stats[pos].profile.init_ns;
      agg.next_ns += ws.stats[pos].profile.next_ns;
    }
  }

  size_t total_rows = 0;
  for (const auto& m : morsel_rows) total_rows += m.size();
  rows_.reserve(total_rows);
  for (auto& m : morsel_rows) {
    for (Row& r : m) rows_.push_back(std::move(r));
  }
  return Status::OK();
}

Result<bool> PhysicalGatherOp::NextBatchImpl(ColumnBatch* out) {
  if (cursor_ >= rows_.size()) return false;
  out->ResetOwned(rows_[cursor_].size());
  const size_t n = std::min(batch_capacity_, rows_.size() - cursor_);
  for (size_t i = 0; i < n; ++i) {
    out->AppendRow(std::move(rows_[cursor_++]));
  }
  return true;
}

}  // namespace seltrig
