// Reproduces Figure 10: the four prototypical queries from a video analytics
// company's real Hive warehouse (§6.4). Shark answers them out of the
// columnar memory store at interactive latency, helped by map pruning over
// the data's natural (datacenter, day) clustering; Hive takes 50-100x
// longer.
#include "bench/bench_common.h"
#include "workloads/warehouse.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

int main() {
  PrintHeader("Figure 10 - Real Hive warehouse queries",
              "sub-second Shark vs 50-100x slower Hive; map pruning cuts "
              "scanned data ~30x");

  WarehouseConfig data;
  auto session = MakeSharkSession(17000.0);  // ~1.7TB virtual
  if (!GenerateWarehouseTable(session.get(), data).ok()) return 1;
  auto hive_result = MakeHiveSession(session.get());
  if (!hive_result.ok()) return 1;
  auto hive = std::move(*hive_result);

  const std::string queries[] = {WarehouseQ1(7, "2012-06-11"), WarehouseQ2(),
                                 WarehouseQ3(), WarehouseQ4()};
  const char* labels[] = {"Q1", "Q2", "Q3", "Q4"};
  const char* charts[] = {"q1", "q2", "q3", "q4"};

  double disk[4];
  for (int q = 0; q < 4; ++q) disk[q] = TimedRun(session.get(), queries[q]);

  if (!session->CacheTable("sessions").ok()) return 1;

  double total_scanned = 0, total_partitions = 0;
  for (int q = 0; q < 4; ++q) {
    QueryResult mem = MustRun(session.get(), queries[q]);
    double hive_time = TimedRun(hive.get(), queries[q]);
    int total = mem.metrics.partitions_scanned + mem.metrics.partitions_pruned;
    total_scanned += mem.metrics.partitions_scanned;
    total_partitions += total;
    std::string prune_note =
        "scanned " + std::to_string(mem.metrics.partitions_scanned) + "/" +
        std::to_string(total) + " partitions";
    PrintBars("fig10", charts[q], std::string("Warehouse ") + labels[q],
              {{"Shark", mem.metrics.virtual_seconds, prune_note},
               {"Shark (disk)", disk[q], ""},
               {"Hive", hive_time, ""}});
    std::printf("   Shark vs Hive: %.0fx\n",
                Ratio(hive_time, mem.metrics.virtual_seconds));
    const std::string label = std::string(charts[q]) + ".shark";
    EmitBench("fig10", label, "partitions_scanned",
              mem.metrics.partitions_scanned, "partitions", Clock::kCount);
    EmitBench("fig10", label, "partitions_total", total, "partitions",
              Clock::kCount);
  }

  if (total_scanned > 0) {
    std::printf("\nmap pruning scan reduction across Q1-Q4: %.1fx\n",
                total_partitions / total_scanned);
  }

  // The paper's ~30x average comes from the full 3833-query trace, which is
  // dominated by daily-report style queries with time/customer predicates
  // (§3.5). Reproduce that population with a sweep of day-filtered reports.
  double sweep_scanned = 0, sweep_total = 0;
  for (int day = 2; day <= 28; day += 3) {
    char date[16];
    std::snprintf(date, sizeof(date), "2012-06-%02d", day);
    QueryResult r = MustRun(
        session.get(),
        "SELECT country, COUNT(*), AVG(duration), AVG(buffering_ratio) "
        "FROM sessions WHERE day = DATE '" + std::string(date) +
            "' GROUP BY country");
    sweep_scanned += r.metrics.partitions_scanned;
    sweep_total += r.metrics.partitions_scanned + r.metrics.partitions_pruned;
  }
  std::printf("daily-report sweep (9 queries): scan reduction %.1fx "
              "(paper: ~30x average over the real trace)\n",
              sweep_total / sweep_scanned);
  EmitBench("fig10", "daily_sweep", "partitions_scanned", sweep_scanned,
            "partitions", Clock::kCount);
  EmitBench("fig10", "daily_sweep", "partitions_total", sweep_total,
            "partitions", Clock::kCount);
  return 0;
}
