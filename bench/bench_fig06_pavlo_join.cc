// Reproduces Figure 6: the Pavlo join query (rankings x uservisits with a
// visit-date filter), comparing co-partitioned Shark, Shark (memory), Shark
// (disk) and Hive. The join cost dominates, so memory vs disk matters less
// here; co-partitioning removes the shuffle entirely (§3.4).
#include "bench/bench_common.h"
#include "workloads/pavlo.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

int main() {
  PrintHeader("Figure 6 - Pavlo benchmark: join query",
              "Hive slowest; Shark mem ~ disk (join-dominated); "
              "co-partitioning wins big");

  PavloConfig data;
  auto session = MakeSharkSession(data.VirtualScale());
  if (!GeneratePavloTables(session.get(), data).ok()) return 1;
  auto hive_result = MakeHiveSession(session.get());
  if (!hive_result.ok()) return 1;
  auto hive = std::move(*hive_result);

  const std::string join = PavloJoinQuery();

  double disk = TimedRun(session.get(), join);

  if (!session->CacheTable("rankings").ok()) return 1;
  if (!session->CacheTable("uservisits").ok()) return 1;
  QueryResult mem_result = MustRun(session.get(), join);
  double mem = mem_result.metrics.virtual_seconds;

  // Co-partitioned variant: both tables cached DISTRIBUTE BY the join key.
  MustRun(session.get(),
          "CREATE TABLE r_mem TBLPROPERTIES (\"shark.cache\"=true) AS "
          "SELECT * FROM rankings DISTRIBUTE BY pageURL");
  MustRun(session.get(),
          "CREATE TABLE uv_mem TBLPROPERTIES (\"shark.cache\"=true, "
          "\"copartition\"=\"r_mem\") AS SELECT * FROM uservisits "
          "DISTRIBUTE BY destURL");
  QueryResult copart_result = MustRun(
      session.get(),
      "SELECT sourceIP, AVG(pageRank), SUM(adRevenue) as totalRevenue "
      "FROM r_mem AS R, uv_mem AS UV WHERE R.pageURL = UV.destURL AND "
      "UV.visitDate BETWEEN Date('2000-01-15') AND Date('2000-01-22') "
      "GROUP BY UV.sourceIP");
  double copart = copart_result.metrics.virtual_seconds;

  double hive_time = TimedRun(hive.get(), join);

  PrintBars("fig06", "join", "Join query runtime",
            {{"Copartitioned", copart, copart_result.metrics.join_strategy},
             {"Shark", mem, mem_result.metrics.join_strategy},
             {"Shark (disk)", disk, ""},
             {"Hive", hive_time, ""}},
            "Hive ~1850s; Shark mem~disk (join-dominated); copartitioned "
            "~5x faster than Shark");

  std::printf("\nshapes: hive/shark=%.1fx, shark/copartitioned=%.1fx, "
              "mem vs disk=%.2fx\n",
              Ratio(hive_time, mem), Ratio(mem, copart), Ratio(disk, mem));
  return 0;
}
