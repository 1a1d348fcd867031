// The three perfbench workloads. Each is a closed loop with one client that
// builds its inputs from RunConfig::seed, measures for RunConfig::seconds
// (in whole rounds), checks the engine's outputs, and fills a RunReport with
// the end-to-end slots below (and, when traced, the per-layer metrics).
//
// End-to-end slots, reported by every workload (README.md maps each slot to
// the workload-specific quantity behind it):
//   setup_s         median wall time of the workload's set-up, repeated
//   peak_rss_mb     VmHWM of the benchmark process
//   stmt_per_s      statements completed per second in the measured phase
//   audited_p50_us  median latency of the audited statements
//   plain_p50_us    median latency of the same reads run unaudited
//   overhead_x      audited_p50_us / plain_p50_us, within one process

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

RunReport RunTpchAudited(const RunConfig& config);
RunReport RunOltpAudit(const RunConfig& config);
RunReport RunReplicatedCommit(const RunConfig& config);

// Fills the slots shared by every workload.
void PutEndToEnd(RunReport* report, double setup_s, double stmt_per_s,
                 double audited_p50_us, double plain_p50_us);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
