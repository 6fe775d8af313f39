// Reproduces Figure 5 of the paper: selection and aggregation query runtimes
// from the Pavlo et al. benchmark, comparing Shark (in-memory), Shark (disk)
// and Hive on the same warehouse. Also measures the host wall-clock of the
// cached queries with the vectorized batch path on vs off (virtual seconds
// must not move — only how fast the host simulates them).
#include <cstring>

#include "bench/bench_common.h"
#include "workloads/pavlo.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

namespace {

/// Cached-query wall-clock with the batch path on vs off. `bench` names the
/// BENCH lines ("fig05_vector" full-size, "fig05_vector_smoke" CI-sized); the
/// tables must already be cached.
void RunVectorComparison(SharkSession* session, const std::string& bench,
                         const std::string& selection,
                         const std::string& agg_coarse) {
  std::printf("\n---- vectorized batch path: host wall-clock, cached ----\n");
  auto report = [&](const char* label, std::pair<double, double> ms) {
    std::printf("  %-12s on %8.1fms / off %8.1fms -> %.2fx host speedup, "
                "virtual seconds unchanged\n",
                label, ms.first, ms.second, Ratio(ms.second, ms.first));
  };
  report("selection", CompareVectorized(session, bench, "selection", selection));
  report("agg_coarse", CompareVectorized(session, bench, "agg_coarse",
                                         agg_coarse));
}

}  // namespace

int main(int argc, char** argv) {
  // --vector-smoke: CI-sized run of only the vectorized on/off comparison
  // (shrunken tables; bench/claims.json floors its speedups).
  bool vector_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--vector-smoke") == 0) vector_smoke = true;
  }

  PavloConfig data;
  if (vector_smoke) {
    data.rankings_rows = 30000;
    data.uservisits_rows = 60000;
    data.rankings_blocks = 10;
    data.uservisits_blocks = 20;
    auto session = MakeSharkSession(data.VirtualScale(), 20);
    if (!GeneratePavloTables(session.get(), data).ok()) return 1;
    if (!session->CacheTable("rankings").ok()) return 1;
    if (!session->CacheTable("uservisits").ok()) return 1;
    RunVectorComparison(session.get(), "fig05_vector_smoke",
                        PavloSelectionQuery(9900),
                        PavloAggregationCoarseQuery());
    return 0;
  }

  PrintHeader("Figure 5 - Pavlo benchmark: selection & aggregation",
              "Shark answers the selection ~80x and the aggregations 20-80x "
              "faster than Hive; in-memory beats disk");

  auto session = MakeSharkSession(data.VirtualScale());
  if (!GeneratePavloTables(session.get(), data).ok()) return 1;
  std::printf("data: rankings=%lld rows, uservisits=%lld rows, "
              "virtual scale x%.0f (paper: 1.8B / 15.5B rows)\n",
              static_cast<long long>(data.rankings_rows),
              static_cast<long long>(data.uservisits_rows),
              data.VirtualScale());

  auto hive_result = MakeHiveSession(session.get());
  if (!hive_result.ok()) return 1;
  auto hive = std::move(*hive_result);

  const std::string selection = PavloSelectionQuery(9900);
  const std::string agg_fine = PavloAggregationFineQuery();
  const std::string agg_coarse = PavloAggregationCoarseQuery();

  // Disk first (before caching), then load the memstore.
  double sel_disk = TimedRun(session.get(), selection);
  double fine_disk = TimedRun(session.get(), agg_fine);
  double coarse_disk = TimedRun(session.get(), agg_coarse);

  if (!session->CacheTable("rankings").ok()) return 1;
  if (!session->CacheTable("uservisits").ok()) return 1;

  double sel_mem = TimedRun(session.get(), selection);
  double fine_mem = TimedRun(session.get(), agg_fine);
  QueryResult coarse_result = MustRun(session.get(), agg_coarse);
  double coarse_mem = coarse_result.metrics.virtual_seconds;
  WriteChromeTrace("fig05_pavlo_scan_agg", "agg_coarse_cached", coarse_result,
                   "fig05_trace.json");

  double sel_hive = TimedRun(hive.get(), selection);
  double fine_hive = TimedRun(hive.get(), agg_fine);
  double coarse_hive = TimedRun(hive.get(), agg_coarse);

  PrintBars("fig05", "selection", "Selection (WHERE pageRank > X)",
            {{"Shark", sel_mem, ""},
             {"Shark (disk)", sel_disk, ""},
             {"Hive", sel_hive, ""}},
            "Shark 1.1s vs Hive ~80x slower");
  PrintBars("fig05", "agg_fine", "Aggregation, many groups (sourceIP)",
            {{"Shark", fine_mem, ""},
             {"Shark (disk)", fine_disk, ""},
             {"Hive", fine_hive, ""}},
            "Shark 147s, Hive ~2500s at 2.5M groups");
  PrintBars("fig05", "agg_coarse",
            "Aggregation, ~1K groups (SUBSTR(sourceIP,1,7))",
            {{"Shark", coarse_mem, ""},
             {"Shark (disk)", coarse_disk, ""},
             {"Hive", coarse_hive, ""}},
            "Shark 32s, Hive ~600s at 1K groups");

  std::printf("\nspeedups over Hive: selection %.0fx (mem) / %.1fx (disk); "
              "many-group agg %.1fx; 1K-group agg %.1fx\n",
              Ratio(sel_hive, sel_mem), Ratio(sel_hive, sel_disk),
              Ratio(fine_hive, fine_mem), Ratio(coarse_hive, coarse_mem));

  RunVectorComparison(session.get(), "fig05_vector", selection, agg_coarse);
  return 0;
}
