// The benchmark's workloads. Each builds its own inputs from the seed, sets
// up, warms up untimed, measures for options.seconds, checks every result
// and fills `report`. Returns the process exit code (0 = ran; a wrong
// result is reported through Report::Mismatch, not the exit code).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "util.h"

namespace perfbench {

int RunOlapMix(const Options& options, Report* report);
int RunServePoint(const Options& options, Report* report);
int RunIngestTrain(const Options& options, Report* report);

/// Traced runs: prints each span name's self time under the operation spans
/// (root spans named "op.*"), and sets bench.unattributed_share — the share
/// of operation time no layer span covers.
void ReportSpanAccounting(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
