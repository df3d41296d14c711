// The benchmark's workloads. Each one builds its inputs from the run seed,
// sets up, runs whole rounds of the same operations until the run's
// measuring time is used, checks every output, and fills a RunResult with
// the end-to-end metrics (and, in traced mode, the per-layer metrics it
// measures itself).

#ifndef CDCL_PERFBENCH_WORKLOADS_H_
#define CDCL_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

RunResult RunTableDigits(const RunOptions& options);
RunResult RunServeTraining(const RunOptions& options);

/// Traced mode: times calls into each module's public functions on seeded
/// probe inputs (a small CDCL run at quickstart's shape) and sets the
/// per-layer metrics they give.
void RunLayerProbes(const RunOptions& options, RunResult* result);

/// Feeds every correctness check a right and a deliberately wrong output;
/// returns the number of checks that failed to tell them apart.
int RunSelfTest(const std::string& work_dir);

}  // namespace perfbench

#endif  // CDCL_PERFBENCH_WORKLOADS_H_
