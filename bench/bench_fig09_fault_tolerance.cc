// Reproduces Figure 9: query performance in the presence of node failures,
// on a 50-node cluster (§6.3.3). A group-by query runs over the cached
// lineitem table; killing a worker mid-query loses its cached partitions and
// shuffle outputs, which the engine recomputes from lineage in parallel on
// the surviving nodes — far cheaper than reloading the dataset.
#include "bench/bench_common.h"
#include "workloads/tpch.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

int main() {
  PrintHeader("Figure 9 - Query time with failures (50-node cluster)",
              "single failure adds seconds; full reload costs far more; "
              "post-recovery back to normal");

  TpchConfig data;
  double vscale = data.VirtualScaleFor(600e6);  // the paper's 100GB dataset
  auto session = MakeSharkSession(vscale, /*num_nodes=*/50);
  if (!GenerateTpchTables(session.get(), data).ok()) return 1;

  const std::string query = TpchAggregationQuery("L_SHIPMODE");

  // Load into the memory store; measure the load for the "full reload" bar.
  if (!session->CacheTable("lineitem").ok()) return 1;
  double load_seconds = session->last_load_metrics().virtual_seconds;

  // Warm run (fills any lazily-computed state), then the measured baseline.
  TimedRun(session.get(), query);
  double no_failure = TimedRun(session.get(), query);

  // Kill one worker shortly after the next query starts.
  ClusterContext& ctx = session->context();
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kKill, ctx.now() + 0.2, 7, 1.0});
  QueryResult failed_run = MustRun(session.get(), query);
  double with_failure = failed_run.metrics.virtual_seconds;

  // Subsequent queries run on 49 nodes against the recovered dataset.
  double post_recovery = TimedRun(session.get(), query);

  double full_reload = load_seconds + no_failure;

  PrintBars("fig09", "agg_shipmode",
            "SELECT L_SHIPMODE, COUNT(*) ... GROUP BY (100GB lineitem)",
            {{"No failures", no_failure, ""},
             {"Single failure", with_failure,
              std::to_string(failed_run.metrics.map_tasks_recovered) +
                  " map tasks recomputed"},
             {"Post-recovery", post_recovery, "49 nodes"},
             {"Full reload", full_reload, "reload + rerun"}},
            "paper: ~17s / ~20s / ~16s / ~38s");

  std::printf("\nfailure overhead: +%.1fs (paper ~3s); full reload is %.1fx "
              "the failure-recovery cost\n",
              with_failure - no_failure,
              Ratio(full_reload - no_failure, with_failure - no_failure));
  std::printf("tasks failed: %d, recovered map tasks: %d\n",
              failed_run.metrics.tasks_failed,
              failed_run.metrics.map_tasks_recovered);

  // The failure run's timeline (aborted tasks, the death event, the nested
  // lineage-recovery stage) as a chrome://tracing file.
  WriteChromeTrace("fig09_fault_tolerance", "agg_shipmode_node_death",
                   failed_run, "fig09_trace.json");
  return 0;
}
