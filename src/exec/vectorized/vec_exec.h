#ifndef SHARK_EXEC_VECTORIZED_VEC_EXEC_H_
#define SHARK_EXEC_VECTORIZED_VEC_EXEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "columnar/table_partition.h"
#include "rdd/pair_rdd.h"
#include "rdd/rdd.h"
#include "relation/row.h"
#include "relation/types.h"
#include "sql/expr_compiler.h"
#include "sql/logical_plan.h"

namespace shark {
namespace vec {

/// A prepared vectorized scan of a cached columnar table: the (possibly
/// pruned) partition RDD plus everything the fused operators need. Built by
/// the executor; the charge-model fields exist so the fused pipelines issue
/// exactly the virtual-time charges the scalar memScan -> scanFilter chain
/// would (only host wall-clock may differ).
struct VecScan {
  RddPtr<TablePartitionPtr> base;
  std::shared_ptr<const Schema> schema;
  std::shared_ptr<const std::vector<int>> needed;
  std::string table;

  /// Compiled scan predicate; null for unfiltered scans.
  std::shared_ptr<const CompiledExpr> predicate;
  uint64_t predicate_extra = 0;  // UdfExtraRows of the predicate
};

/// Per-row virtual charge of evaluating expressions over n rows: one row of
/// work each, plus `extra` rows for the UDF calls among them. Shared with the
/// executor's ApplyPredicate and BuildProject.
inline uint64_t ExprChargeRows(uint64_t n, uint64_t extra) {
  return n * (1 + extra);
}

/// Fused scan+filter over the columnar store: decodes only the needed
/// columns, evaluates the predicate batch-at-a-time, and materializes
/// full-arity survivor Rows. Replaces the memScan -> scanFilter chain with
/// identical output rows (and order) and identical charges.
RddPtr<Row> BuildVecScanFilter(const VecScan& scan);

/// Fused scan+filter+project: survivors are compacted with a selection
/// vector and each projection runs batch-at-a-time over the compacted
/// columns; Rows are only materialized for the projected outputs.
RddPtr<Row> BuildVecScanProject(
    const VecScan& scan,
    std::shared_ptr<const std::vector<CompiledExpr>> projects,
    uint64_t project_extra);

/// ORDER BY's sort keys, their directions and the LIMIT (-1 for none).
struct SortSpec {
  std::shared_ptr<const std::vector<CompiledExpr>> keys;
  std::shared_ptr<const std::vector<bool>> ascending;
  int64_t limit = -1;
};

/// The row path's sort task ("sortPartial", and "sortFinal" over the
/// gathered partials): evaluates each row's keys once and orders the rows
/// by Value::Compare under each key's direction, ties broken on the input
/// index (a stable sort). Under a LIMIT only the first `limit` rows are
/// ordered and returned. Charges the sort buffer (ApproxSizeOfRange of
/// `in`, spilling to sorted runs past the task's budget) and one record of
/// sort and row work per input row.
std::vector<Row> SortRows(const std::vector<Row>& in, const SortSpec& spec,
                          TaskContext* tctx);

/// Columnar top-k map task over the columnar store ("sortPartial:vecScan:"):
/// scan, filter and project batch by batch as BuildVecScanProject does,
/// evaluate the sort keys with EvalBatch over the projected columns, keep
/// the task's `spec.limit` first rows on typed cells (SortRows' order) and
/// materialize only those. Emits the rows, and issues the charges and
/// memory operations, of BuildVecScanProject followed by SortRows; the sort
/// buffer's bytes are the projected rows' ApproxSizeOf, summed cell by cell.
/// Requires spec.limit >= 0.
RddPtr<Row> BuildVecTopK(
    const VecScan& scan,
    std::shared_ptr<const std::vector<CompiledExpr>> projects,
    uint64_t project_extra, SortSpec spec);

/// Map side of a vectorized hash group-by directly over the columnar store:
/// scan, filter, column-wise key hashing, batched group-table probing and
/// typed accumulate kernels in one ShuffleDependency. Each map task ships
/// one GroupBatch (group_table.h) whose buckets are slices of it.
/// `agg_arg_programs` holds every call's argument programs flattened call by
/// call (AccumulateArgs' layout).
std::shared_ptr<ShuffleDependency> MakeVecAggDep(
    const VecScan& scan, int num_buckets,
    std::shared_ptr<const std::vector<CompiledExpr>> group_programs,
    std::shared_ptr<const std::vector<CompiledExpr>> agg_arg_programs,
    std::shared_ptr<const std::vector<AggCall>> calls);

/// The same map side over an RDD of rows (the row path): keys and
/// arguments evaluated row by row into the same flat GroupBatch, so both
/// paths ship identical buckets, bytes and charges. Its stage is labeled
/// "aggKey".
std::shared_ptr<ShuffleDependency> MakeRowAggDep(
    RddPtr<Row> input, int num_buckets,
    std::shared_ptr<const std::vector<CompiledExpr>> group_programs,
    std::shared_ptr<const std::vector<CompiledExpr>> agg_arg_programs,
    std::shared_ptr<const std::vector<AggCall>> calls);

/// The group-by's one reducer, for either map side: merges each reduce
/// partition's fetched GroupBatch slices in fetch order ("aggReduce") and
/// finalizes the merged groups into rows, first-seen order ("aggFinalize").
RddPtr<Row> BuildAggReduce(std::shared_ptr<ShuffleDependency> dep,
                           std::shared_ptr<const std::vector<AggCall>> calls,
                           size_t num_keys, BucketAssignment assignment);

/// Map side of a shuffle join over an RDD of rows: each task evaluates its
/// rows' join keys once and copies the rows into one flat JoinBatch
/// (join_table.h), whose buckets are slices of it. Its stage is labeled
/// `label` (joinKeyL or joinKeyR).
std::shared_ptr<ShuffleDependency> MakeJoinDep(
    RddPtr<Row> input, int num_buckets,
    std::shared_ptr<const std::vector<CompiledExpr>> keys, std::string label);

/// The shuffle join's reducer over two MakeJoinDep sides ("joinOutput"):
/// chains each reduce partition's fetched left slices, then its right
/// slices, in fetch order into one two-sided JoinHashTable and emits the
/// joined rows key by key in first-seen order. Per key: every left row with
/// every right row, then the preserved side's null extension when the other
/// side has none. Charges what co-grouping the same (key Row, Row) pairs
/// and flattening the groups charges.
RddPtr<Row> BuildJoinReduce(std::shared_ptr<ShuffleDependency> left,
                            std::shared_ptr<ShuffleDependency> right,
                            JoinType join_type, int left_width,
                            int right_width, BucketAssignment assignment);

/// Every row of a MakeJoinDep shuffle, read back out of its slices in fetch
/// order by one task ("gatherSmallSide", the map join's build side). Charges
/// what concatenating the same (key Row, Row) buckets charges.
RddPtr<Row> BuildJoinGather(std::shared_ptr<ShuffleDependency> dep);

}  // namespace vec
}  // namespace shark

#endif  // SHARK_EXEC_VECTORIZED_VEC_EXEC_H_
