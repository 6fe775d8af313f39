// Reproduces Figure 13: job execution time as a function of the number of
// reduce tasks, for Hadoop and for Spark/Shark. Hadoop's multi-second
// per-task overhead makes large task counts catastrophic and small counts
// skew-prone; Spark's ~5ms tasks keep the curve flat, so one can always
// over-partition (§7 "Task Scheduling Cost").
#include "bench/bench_common.h"
#include "workloads/pavlo.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

int main() {
  PrintHeader("Figure 13 - Task launching overhead",
              "Hadoop runtime explodes with task count; Spark stays flat");

  // A moderate (~60GB virtual) job so scheduling overhead is visible next
  // to the data-processing time, as in the paper's micro-benchmark.
  PavloConfig data;
  data.uservisits_rows = 1000000;
  data.uservisits_blocks = 400;
  auto session = MakeSharkSession(500.0);
  if (!GeneratePavloTables(session.get(), data).ok()) return 1;
  auto hive_result = MakeHiveSession(session.get());
  if (!hive_result.ok()) return 1;
  auto hive = std::move(*hive_result);

  // Isolate the reducer-count effect: fixed reducer counts, no PDE.
  session->options().pde = false;

  const std::string query = PavloAggregationFineQuery();
  const int kTaskCounts[] = {8, 50, 100, 200, 500, 1000, 2000, 5000};

  std::printf("\n%12s %18s %18s\n", "reducers", "Hadoop (s)", "Spark (s)");
  for (int n : kTaskCounts) {
    hive->options().static_reducers = n;
    hive->options().bytes_per_reducer = 0;
    session->options().static_reducers = n;
    double hadoop = TimedRun(hive.get(), query);
    double spark = TimedRun(session.get(), query);
    std::printf("%12d %18.1f %18.2f\n", n, hadoop, spark);
    const std::string label = "reducers" + std::to_string(n);
    EmitBench("fig13", label + ".hadoop", "virtual_s", hadoop, "s",
              Clock::kVirtual);
    EmitBench("fig13", label + ".spark", "virtual_s", spark, "s",
              Clock::kVirtual);
  }
  std::printf("\npaper: Hadoop rises from ~1000s to ~6000s over this range "
              "while Spark stays in the tens of seconds and slowly "
              "improves.\n");
  return 0;
}
