// perfbench: one binary, three workloads (tpch_audited, oltp_audit,
// replicated_commit). See perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//   perfbench --selfcheck [--workdir <dir>]
//
// Prints the workload's figures for people, then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). --selfcheck runs
// every workload on tiny inputs with all correctness checks and exits
// non-zero if any check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tpch_audited|oltp_audit|replicated_commit "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n"
               "       perfbench --selfcheck [--workdir DIR]\n");
  return 2;
}

RunReport Dispatch(const RunConfig& config, bool* known) {
  *known = true;
  if (config.workload == "tpch_audited") return RunTpchAudited(config);
  if (config.workload == "oltp_audit") return RunOltpAudit(config);
  if (config.workload == "replicated_commit") return RunReplicatedCommit(config);
  *known = false;
  return RunReport();
}

// Every per-layer metric, in the order BENCHMARK.json lists them. A traced
// run reports all of them; a layer the workload does not exercise reads 0
// (README.md lists which apply where).
std::vector<Metric> PerLayerCatalog() {
  std::vector<Metric> all;
  auto add = [&](const std::string& name, const char* unit) {
    all.push_back(Metric{name, 0, unit});
  };
  add("setup.load_s", "s");
  add("audit.view_build_ms", "ms");
  for (const char* layer : {"sql.parse", "binder.bind", "optimizer.optimize",
                            "audit.place", "optimizer.post_place", "exec.execute"}) {
    add(std::string(layer) + "_us", "us");
  }
  add("engine.rest_us", "us");
  add("engine.statement_us.select", "us");
  add("engine.statement_us.update", "us");
  add("engine.statement_us.insert", "us");
  add("engine.local_commit_us", "us");
  add("storage.index_build_ms", "ms");
  add("storage.wal_bytes_per_commit", "B");
  add("replication.ack_wait_us", "us");
  add("replication.records_sent", "count");
  add("replication.records_acked", "count");
  add("replication.acked_per_sent", "ratio");
  add("replication.naks", "count");
  add("replication.reconnects", "count");
  add("trace.overhead_pct", "%");
  for (int q : {3, 5, 7, 8, 10, 18, 22}) {
    const std::string tag = ".q" + std::to_string(q);
    add("exec.execute_ms" + tag, "ms");
    add("exec.rows_scanned" + tag, "count");
    add("exec.subquery_executions" + tag, "count");
    add("audit.rows_through_ops" + tag, "count");
    add("audit.probe_hits" + tag, "count");
    add("audit.hits_per_row" + tag, "ratio");
    add("audit.batches_prescreened" + tag, "count");
    add("audit.accessed_ids" + tag, "count");
  }
  return all;
}

// The catalog with the workload's values filled in.
std::vector<Metric> CompletePerLayer(const std::vector<Metric>& reported) {
  std::vector<Metric> all = PerLayerCatalog();
  for (const Metric& m : reported) {
    bool known = false;
    for (Metric& slot : all) {
      if (slot.name != m.name) continue;
      slot.value = m.value;
      known = slot.unit == m.unit;
    }
    if (!known) std::fprintf(stderr, "perfbench: unlisted metric %s\n", m.name.c_str());
  }
  return all;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void PrintHuman(const RunConfig& config, const RunReport& report) {
  for (const Metric& m : report.detail) {
    std::printf("# %s %-28s %14.6g %s\n", config.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  const auto& metrics = config.trace ? report.per_layer : report.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("# %s %-28s %14.6g %s\n", config.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("# %s attempted %lld failed %lld correct %s\n", config.workload.c_str(),
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), report.correct ? "true" : "false");
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "%s: %s\n", config.workload.c_str(), p.c_str());
  }
}

void PrintResultLine(const RunConfig& config, const RunReport& report) {
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  const std::vector<Metric> metrics =
      config.trace ? CompletePerLayer(report.per_layer) : report.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int SelfCheck(RunConfig config) {
  config.selfcheck = true;
  config.seconds = 0;
  bool all_ok = true;
  for (const char* workload : {"tpch_audited", "oltp_audit", "replicated_commit"}) {
    for (bool trace : {false, true}) {
      config.workload = workload;
      config.trace = trace;
      bool known = false;
      RunReport report = Dispatch(config, &known);
      PrintHuman(config, report);
      const bool ok = report.correct && report.failed == 0 && report.attempted > 0;
      std::printf("selfcheck %-18s trace=%d %s\n", workload, trace ? 1 : 0,
                  ok ? "ok" : "FAILED");
      all_ok = all_ok && ok;
    }
  }
  std::printf("selfcheck %s\n", all_ok ? "passed" : "FAILED");
  return all_ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool selfcheck = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selfcheck") {
      selfcheck = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && has_value) {
      config.workdir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (selfcheck) return SelfCheck(config);
  if (!have_workload || config.seconds <= 0) return Usage();
  bool known = false;
  RunReport report = Dispatch(config, &known);
  if (!known) return Usage();
  PrintHuman(config, report);
  // A run that could not set up has nothing to report.
  if (report.attempted == 0) return 1;
  PrintResultLine(config, report);
  return 0;
}

}  // namespace

void PutEndToEnd(RunReport* report, double setup_s, double stmt_per_s,
                 double audited_p50_us, double plain_p50_us) {
  std::vector<Metric>* out = &report->end_to_end;
  Put(out, "setup_s", setup_s, "s");
  Put(out, "peak_rss_mb", PeakRssMb(), "MB");
  Put(out, "stmt_per_s", stmt_per_s, "1/s");
  Put(out, "audited_p50_us", audited_p50_us, "us");
  Put(out, "plain_p50_us", plain_p50_us, "us");
  Put(out, "overhead_x", plain_p50_us > 0 ? audited_p50_us / plain_p50_us : 0, "x");
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
