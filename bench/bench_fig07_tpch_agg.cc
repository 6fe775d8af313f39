// Reproduces Figure 7: TPC-H lineitem group-by sweep (no group / 7 groups /
// ~2500 groups / per-order-key groups) at two scale points, comparing Shark
// (memory), Shark (disk), hand-tuned Hive and default-heuristic Hive. The
// paper's headline: 80x over Hive for few groups, ~20x when the shuffle
// dominates, and a catastrophic Hive default reducer count.
#include "bench/bench_common.h"
#include "workloads/tpch.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

namespace {

struct ScalePoint {
  const char* name;
  double paper_rows;
};

void RunScale(const ScalePoint& scale) {
  TpchConfig data;
  double vscale = data.VirtualScaleFor(scale.paper_rows);
  auto session = MakeSharkSession(vscale);
  if (!GenerateTpchTables(session.get(), data).ok()) std::exit(1);
  auto hive_default_r = MakeHiveSession(session.get());
  auto hive_tuned_r = MakeHiveSession(session.get(), HiveConfig{800, 0});
  if (!hive_default_r.ok() || !hive_tuned_r.ok()) std::exit(1);
  auto hive_default = std::move(*hive_default_r);
  auto hive_tuned = std::move(*hive_tuned_r);

  struct QueryPoint {
    const char* label;
    const char* chart;
    std::string column;
  };
  const QueryPoint queries[] = {
      {"1 group (COUNT(*))", "count", ""},
      {"7 groups (SHIPMODE)", "shipmode", "L_SHIPMODE"},
      {"~2.5K groups (RECEIPTDATE)", "receiptdate", "L_RECEIPTDATE"},
      {"per-order groups (ORDERKEY)", "orderkey", "L_ORDERKEY"},
  };

  std::printf("\n---- TPC-H %s (lineitem %lld rows, virtual scale x%.0f) ----\n",
              scale.name, static_cast<long long>(data.lineitem_rows), vscale);

  // Disk runs first, then cache lineitem for the in-memory runs.
  double disk[4];
  for (int q = 0; q < 4; ++q) {
    disk[q] = TimedRun(session.get(), TpchAggregationQuery(queries[q].column));
  }
  if (!session->CacheTable("lineitem").ok()) std::exit(1);
  for (int q = 0; q < 4; ++q) {
    const std::string sql = TpchAggregationQuery(queries[q].column);
    double mem = TimedRun(session.get(), sql);
    double tuned = TimedRun(hive_tuned.get(), sql);
    double untuned = TimedRun(hive_default.get(), sql);
    PrintBars("fig07", Slug(scale.name) + "_" + queries[q].chart,
              std::string(scale.name) + " " + queries[q].label,
              {{"Shark", mem, ""},
               {"Shark (disk)", disk[q], ""},
               {"Hive (tuned)", tuned, ""},
               {"Hive", untuned, ""}});
    std::printf("   speedup vs tuned Hive: %.1fx (mem), %.1fx (disk); "
                "untuned/tuned Hive: %.1fx\n",
                Ratio(tuned, mem), Ratio(tuned, disk[q]),
                Ratio(untuned, tuned));
  }
}

/// Runs the 100GB cached aggregation sweep under a fixed host-thread count
/// and reports the host wall-clock of the query loop plus every query's
/// virtual seconds (which must not depend on host_threads).
double RunAggsWithHostThreads(int host_threads, std::vector<double>* virt) {
  TpchConfig data;
  double vscale = data.VirtualScaleFor(600e6);
  auto session = MakeSharkSession(vscale);
  session->context().set_host_threads(host_threads);
  if (!GenerateTpchTables(session.get(), data).ok()) std::exit(1);
  if (!session->CacheTable("lineitem").ok()) std::exit(1);
  const std::string columns[] = {"", "L_SHIPMODE", "L_RECEIPTDATE",
                                 "L_ORDERKEY"};
  WallTimer timer;
  for (const std::string& col : columns) {
    virt->push_back(TimedRun(session.get(), TpchAggregationQuery(col)));
  }
  return timer.ElapsedMs();
}

/// Host-parallel execution: same virtual results, less wall-clock. Compares
/// the serial reference path (host_threads=1) against the work-stealing pool
/// (host_threads=0, one worker per hardware thread).
void RunHostParallel() {
  std::printf("\n---- host-parallel task execution (100GB cached aggs) ----\n");
  std::vector<double> virt_serial, virt_pool;
  double ms_serial = RunAggsWithHostThreads(1, &virt_serial);
  double ms_pool = RunAggsWithHostThreads(0, &virt_pool);
  double vsum_serial = 0, vsum_pool = 0;
  for (double v : virt_serial) vsum_serial += v;
  for (double v : virt_pool) vsum_pool += v;
  bool identical = virt_serial == virt_pool;
  EmitParallel("fig07", "agg4_cached_100gb", 1, ms_serial, vsum_serial);
  EmitParallel("fig07", "agg4_cached_100gb", 0, ms_pool, vsum_pool);
  std::printf("  host_threads=1: %8.1fms host, %.4fs virtual\n", ms_serial,
              vsum_serial);
  std::printf("  host_threads=0: %8.1fms host, %.4fs virtual\n", ms_pool,
              vsum_pool);
  std::printf("  host speedup: %.2fx; virtual times %s\n",
              Ratio(ms_serial, ms_pool),
              identical ? "bit-for-bit identical" : "DIVERGED (BUG)");
  if (!identical) std::exit(1);
}

/// Vectorized batch path on vs off over the 100GB cached sweep: identical
/// virtual seconds (CompareVectorized exits on drift), less host wall-clock.
void RunVectorized() {
  std::printf("\n---- vectorized batch path (100GB cached aggs) ----\n");
  TpchConfig data;
  double vscale = data.VirtualScaleFor(600e6);
  auto session = MakeSharkSession(vscale);
  if (!GenerateTpchTables(session.get(), data).ok()) std::exit(1);
  if (!session->CacheTable("lineitem").ok()) std::exit(1);
  struct Point {
    const char* label;
    const char* column;
  };
  const Point points[] = {{"agg_1group", ""},
                          {"agg_shipmode", "L_SHIPMODE"},
                          {"agg_receiptdate", "L_RECEIPTDATE"},
                          {"agg_orderkey", "L_ORDERKEY"}};
  for (const Point& p : points) {
    auto ms = CompareVectorized(session.get(), "fig07_vector", p.label,
                                TpchAggregationQuery(p.column));
    std::printf("  %-16s on %8.1fms / off %8.1fms -> %.2fx host speedup, "
                "virtual seconds unchanged\n",
                p.label, ms.first, ms.second, Ratio(ms.second, ms.first));
  }
}

/// Writes a chrome://tracing profile of the ~2.5K-group cached aggregation —
/// the per-stage/per-task timeline behind the Figure 7 numbers.
void RunTraceArtifact() {
  TpchConfig data;
  double vscale = data.VirtualScaleFor(600e6);
  auto session = MakeSharkSession(vscale);
  if (!GenerateTpchTables(session.get(), data).ok()) std::exit(1);
  if (!session->CacheTable("lineitem").ok()) std::exit(1);
  QueryResult result =
      MustRun(session.get(), TpchAggregationQuery("L_RECEIPTDATE"));
  WriteChromeTrace("fig07_tpch_agg", "agg_receiptdate_cached_100GB", result,
                   "fig07_trace.json");
}

}  // namespace

int main() {
  PrintHeader("Figure 7 - TPC-H aggregation sweep",
              "Shark 20-80x over tuned Hive; Hive's default reducer "
              "heuristic can be far worse than hand tuning");
  RunScale({"100GB", 600e6});
  RunScale({"1TB", 6e9});
  RunHostParallel();
  RunVectorized();
  RunTraceArtifact();
  return 0;
}
