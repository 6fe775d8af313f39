#include "sql/stats/analyze.h"

#include <utility>
#include <vector>

#include "rdd/context.h"
#include "sql/executor.h"

namespace shark {

namespace {

using SketchPtr = std::shared_ptr<PartitionSketch>;

// Sketch maintenance: one histogram/heavy-hitter/KMV update per value.
void ChargeSketching(size_t rows, const Schema& schema, TaskContext* tctx) {
  tctx->work().rows_processed +=
      rows * static_cast<size_t>(schema.num_fields());
}

}  // namespace

Result<std::shared_ptr<const TableStatistics>> RunAnalyzeTable(
    ClusterContext* ctx, TableInfo* info, QueryMetrics* metrics) {
  Schema schema = info->schema;
  RddPtr<SketchPtr> sketches;
  if (info->is_cached()) {
    // Sketch the columnar partitions where they live, one column chunk at a
    // time; reading every column is charged like a full-width memstore scan.
    sketches = info->cached_rdd->MapPartitions(
        [schema](int, const std::vector<TablePartitionPtr>& in,
                 TaskContext* tctx) {
          auto sketch = std::make_shared<PartitionSketch>(schema);
          size_t rows = 0;
          for (const TablePartitionPtr& part : in) {
            if (part == nullptr) continue;
            tctx->work().mem_read_bytes += part->MemoryBytes();
            sketch->AddPartition(schema, *part);
            rows += part->num_rows();
          }
          ChargeSketching(rows, schema, tctx);
          return std::vector<SketchPtr>{sketch};
        },
        "analyzeScan:" + info->name);
  } else {
    if (info->dfs_file.empty()) {
      return Status::ExecutionError("table has no storage to analyze: " +
                                    info->name);
    }
    SHARK_ASSIGN_OR_RETURN(RddPtr<Row> rows, ctx->FromDfs<Row>(info->dfs_file));
    sketches = rows->MapPartitions(
        [schema](int, const std::vector<Row>& in, TaskContext* tctx) {
          auto sketch = std::make_shared<PartitionSketch>(schema);
          sketch->AddRows(schema, in);
          ChargeSketching(in.size(), schema, tctx);
          return std::vector<SketchPtr>{sketch};
        },
        "analyzeScan:" + info->name);
  }

  double start = ctx->now();
  SHARK_ASSIGN_OR_RETURN(std::vector<SketchPtr> parts, ctx->Collect(sketches));
  if (metrics != nullptr) {
    metrics->AddJob(ctx->scheduler().last_job());
    metrics->virtual_seconds += ctx->now() - start;
  }

  // Master-side merge: the same ApproxHistogram/HeavyHitters/KMV merge
  // machinery PDE uses for per-task shuffle statistics.
  PartitionSketch merged;
  for (const SketchPtr& p : parts) {
    if (p != nullptr) merged.Merge(*p);
  }
  if (merged.columns.empty()) {
    // Empty table: still record zero-row statistics with typed columns.
    merged = PartitionSketch(schema);
  }
  auto stats = std::make_shared<TableStatistics>(merged.Finish());
  info->column_statistics = stats;
  if (info->approx_rows == 0) {
    info->approx_rows = static_cast<uint64_t>(stats->row_count);
  }
  return std::shared_ptr<const TableStatistics>(stats);
}

}  // namespace shark
