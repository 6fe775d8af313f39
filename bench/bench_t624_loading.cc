// Reproduces §6.2.4 (data loading): Shark loads data into its memory store
// about 5x faster than loading the same data into HDFS, because the memstore
// load runs at aggregate CPU throughput (columnar marshalling, no
// replication) while the HDFS load pays serialization plus 3-way replicated
// writes.
#include "bench/bench_common.h"
#include "workloads/pavlo.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

int main() {
  PrintHeader("§6.2.4 - Data loading throughput",
              "memstore ingest ~5x the HDFS ingest rate");

  PavloConfig data;
  auto session = MakeSharkSession(data.VirtualScale());
  if (!GeneratePavloTables(session.get(), data).ok()) return 1;

  auto info = session->catalog().Get("uservisits");
  if (!info.ok()) return 1;
  double virtual_bytes =
      static_cast<double>((*info)->approx_bytes) * data.VirtualScale();

  // HDFS load: scan the source and write a replicated copy.
  QueryResult hdfs =
      MustRun(session.get(), "CREATE TABLE uv_hdfs AS SELECT * FROM uservisits");
  double hdfs_seconds = hdfs.metrics.virtual_seconds;

  // Memstore load: scan the source and marshal into cached columnar
  // partitions (§3.3).
  if (!session->CacheTable("uservisits").ok()) return 1;
  double mem_seconds = session->last_load_metrics().virtual_seconds;

  double hdfs_rate = virtual_bytes / hdfs_seconds / 1e6;
  double mem_rate = virtual_bytes / mem_seconds / 1e6;

  PrintBars("t624", "load", "Time to load the uservisits table",
            {{"Shark memstore", mem_seconds, ""},
             {"HDFS (replicated)", hdfs_seconds, ""}},
            "memstore ingest rate ~5x HDFS's");
  std::printf("\ningest rates: memstore %.0f MB/s vs HDFS %.0f MB/s "
              "(ratio %.1fx; paper: ~5x)\n",
              mem_rate, hdfs_rate, mem_rate / hdfs_rate);
  return 0;
}
