// Reproduces the §3.2 memory-footprint observations: storing a lineitem
// sample as per-value heap objects ("JVM objects": ~971 MB for 270 MB of
// data in the paper) versus a serialized row format (~289 MB) versus Shark's
// columnar store with per-column compression. Also prints the chosen
// encoding per column (§3.3's local decisions).
#include <cstdio>

#include "bench/bench_common.h"
#include "columnar/table_partition.h"
#include "common/string_util.h"
#include "workloads/tpch.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

int main() {
  PrintHeader("§3.2 - Columnar memory store footprint",
              "object storage ~3.4x serialized size; columnar+compression "
              "beats both");

  TpchConfig data;
  data.lineitem_rows = 200000;
  auto session = MakeSharkSession(1.0);
  if (!GenerateTpchTables(session.get(), data).ok()) return 1;

  auto table = session->Sql2Rdd("SELECT * FROM lineitem");
  if (!table.ok()) return 1;
  auto rows_result = session->context().Collect(table->rdd);
  if (!rows_result.ok()) return 1;
  const std::vector<Row>& rows = *rows_result;

  // (a) one heap object per value, with JVM-style per-object headers.
  uint64_t object_bytes = 0;
  for (const Row& r : rows) {
    object_bytes += 16;  // row object header
    for (const Value& v : r.fields) object_bytes += ApproxSizeOf(v) + 16;
  }
  // (b) serialized rows (binary SerDe).
  uint64_t serialized_bytes = 0;
  for (const Row& r : rows) {
    serialized_bytes += SerializedSizeOf(r, DfsFormat::kBinary);
  }
  // (c) columnar with per-partition compression choice.
  auto part = TablePartition::FromRows(table->schema, rows);
  uint64_t columnar_bytes = part->MemoryBytes();
  // (d) columnar without compression (plain encodings only).
  uint64_t plain_bytes = 64;
  for (int c = 0; c < table->schema.num_fields(); ++c) {
    std::vector<Value> column;
    column.reserve(rows.size());
    for (const Row& r : rows) column.push_back(r.Get(c));
    plain_bytes +=
        EncodeColumn(table->schema.field(c).type, column, Encoding::kPlain)
            ->MemoryBytes();
  }

  std::printf("\nlineitem sample: %zu rows\n", rows.size());
  std::printf("%-34s %12s %9s\n", "representation", "bytes", "ratio");
  auto line = [&](const char* name, uint64_t bytes) {
    std::printf("%-34s %12s %8.2fx\n", name, shark::FormatBytes(bytes).c_str(),
                static_cast<double>(object_bytes) / static_cast<double>(bytes));
    EmitBench("t32", Slug(name), "bytes", static_cast<double>(bytes), "B",
              Clock::kCount);
  };
  line("heap objects (Spark default)", object_bytes);
  line("serialized rows (binary)", serialized_bytes);
  line("columnar, plain", plain_bytes);
  line("columnar + compression (Shark)", columnar_bytes);
  std::printf("\npaper: 971 MB objects vs 289 MB serialized (3.4x); "
              "compression adds up to another ~5x on favorable columns\n");

  std::printf("\nper-column encodings chosen by the loader (§3.3):\n");
  for (int c = 0; c < part->num_columns(); ++c) {
    std::printf("  %-16s %-8s %10s\n", table->schema.field(c).name.c_str(),
                EncodingName(part->column(c).encoding()),
                shark::FormatBytes(part->ColumnBytes(c)).c_str());
  }
  return 0;
}
