#include "exec/vectorized/vec_exec.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "exec/vectorized/column_batch.h"
#include "exec/vectorized/kernels.h"
#include "rdd/pair_rdd.h"
#include "sql/aggregates.h"

namespace shark {
namespace vec {

namespace {

/// One partition scanned and filtered: the surviving rows as a compacted
/// batch, plus the pre-filter row count (the filter charge's base).
struct ScannedPart {
  ColumnBatch batch;
  size_t scanned = 0;
};

/// Charges the columnar read (same bytes/rows as the scalar memScan),
/// decodes the needed columns, and applies the predicate in kBatchSize
/// windows. The per-row filter charge is NOT made here — the caller charges
/// it once per task over the whole partition block, like ApplyPredicate.
ScannedPart ScanFilterPart(const VecScan& s, const TablePartition& part,
                           TaskContext* tctx) {
  uint64_t bytes = 0;
  for (int c : *s.needed) bytes += part.ColumnBytes(c);
  tctx->work().mem_read_bytes += bytes;
  tctx->work().rows_processed += part.num_rows();
  ScannedPart out;
  out.scanned = part.num_rows();
  Status st =
      DecodePartition(part, s.schema->fields(), *s.needed, s.table, &out.batch);
  SHARK_CHECK(st.ok()) << " " << st.message();
  if (s.predicate == nullptr) return out;
  SelVector sel;
  ColumnVector verdict;
  for (size_t b = 0; b < out.batch.num_rows; b += kBatchSize) {
    size_t e = std::min(out.batch.num_rows, b + kBatchSize);
    s.predicate->EvalBatch(out.batch, b, e, &verdict);
    SelectTrue(verdict, b, e, &sel);
  }
  out.batch = GatherBatch(out.batch, sel);
  return out;
}

}  // namespace

RddPtr<Row> BuildVecScanFilter(const VecScan& scan) {
  return scan.base->MapPartitions(
      [scan](int, const std::vector<TablePartitionPtr>& parts,
             TaskContext* tctx) {
        std::vector<Row> out;
        uint64_t scanned = 0;
        for (const TablePartitionPtr& part : parts) {
          if (part == nullptr) continue;
          ScannedPart sp = ScanFilterPart(scan, *part, tctx);
          scanned += sp.scanned;
          for (size_t i = 0; i < sp.batch.num_rows; ++i) {
            out.push_back(MaterializeRow(sp.batch, i));
          }
        }
        if (scan.predicate != nullptr) {
          tctx->work().rows_processed +=
              ExprChargeRows(scanned, scan.predicate_extra);
        }
        return out;
      },
      "vecScanFilter:" + scan.table);
}

RddPtr<Row> BuildVecScanProject(
    const VecScan& scan,
    std::shared_ptr<const std::vector<CompiledExpr>> projects,
    uint64_t project_extra) {
  return scan.base->MapPartitions(
      [scan, projects, project_extra](int,
                                      const std::vector<TablePartitionPtr>& parts,
                                      TaskContext* tctx) {
        std::vector<Row> out;
        uint64_t scanned = 0;
        uint64_t survived = 0;
        std::vector<ColumnVector> cols(projects->size());
        for (const TablePartitionPtr& part : parts) {
          if (part == nullptr) continue;
          ScannedPart sp = ScanFilterPart(scan, *part, tctx);
          scanned += sp.scanned;
          const size_t m = sp.batch.num_rows;
          survived += m;
          for (size_t b = 0; b < m; b += kBatchSize) {
            const size_t e = std::min(m, b + kBatchSize);
            for (size_t j = 0; j < projects->size(); ++j) {
              (*projects)[j].EvalBatch(sp.batch, b, e, &cols[j]);
            }
            for (size_t i = b; i < e; ++i) {
              Row r;
              r.fields.reserve(cols.size());
              for (const ColumnVector& c : cols) {
                r.fields.push_back(c.ValueAt(i - b));
              }
              out.push_back(std::move(r));
            }
          }
        }
        if (scan.predicate != nullptr) {
          tctx->work().rows_processed +=
              ExprChargeRows(scanned, scan.predicate_extra);
        }
        tctx->work().rows_processed +=
            ExprChargeRows(survived, project_extra);
        return out;
      },
      "vecScanProject:" + scan.table);
}

namespace {

/// Map-side shuffle dependency of the vectorized group-by. The reduce side
/// (ShuffledReduceRdd<Row, AggState>) is reused unchanged, and the groups go
/// through the same first-seen bucketing tail as CombiningShuffleDep<Row,
/// Row, AggState>, so bucket payloads (order included), byte/record
/// statistics and every virtual-time charge match the scalar chain.
class VecAggShuffleDep final : public ShuffleDependency {
 public:
  VecAggShuffleDep(
      RddPtr<TablePartitionPtr> parent, int num_buckets, VecScan scan,
      std::shared_ptr<const std::vector<CompiledExpr>> groups,
      std::shared_ptr<const std::vector<CompiledExpr>> agg_args,
      std::shared_ptr<const std::vector<AggCall>> calls)
      : ShuffleDependency(parent, num_buckets),
        scan_(std::move(scan)),
        groups_(std::move(groups)),
        agg_args_(std::move(agg_args)),
        calls_(std::move(calls)) {}

  MapOutput PartitionBlock(const BlockData& block,
                           TaskContext* tctx) const override {
    const auto& parts =
        *std::static_pointer_cast<const std::vector<TablePartitionPtr>>(block);
    VecGroupTable table;
    std::vector<AggState> states;
    std::vector<uint64_t> row_hashes;  // surviving rows, input order
    uint64_t scanned = 0;
    std::vector<ColumnVector> keycols(groups_->size());
    std::vector<const ColumnVector*> keyviews(groups_->size());
    std::vector<ColumnVector> argcols(agg_args_->size());
    std::vector<Value> args;
    for (const TablePartitionPtr& part : parts) {
      if (part == nullptr) continue;
      ScannedPart sp = ScanFilterPart(scan_, *part, tctx);
      scanned += sp.scanned;
      const size_t m = sp.batch.num_rows;
      for (size_t b = 0; b < m; b += kBatchSize) {
        const size_t e = std::min(m, b + kBatchSize);
        const size_t w = e - b;
        for (size_t k = 0; k < groups_->size(); ++k) {
          (*groups_)[k].EvalBatch(sp.batch, b, e, &keycols[k]);
          keyviews[k] = &keycols[k];
        }
        const size_t hbase = row_hashes.size();
        HashKeyColumns(keyviews, w, &row_hashes);
        for (size_t a = 0; a < agg_args_->size(); ++a) {
          (*agg_args_)[a].EvalBatch(sp.batch, b, e, &argcols[a]);
        }
        for (size_t i = 0; i < w; ++i) {
          size_t g = table.FindOrInsert(keyviews, i, row_hashes[hbase + i]);
          if (g == states.size()) states.push_back(InitAggState(*calls_));
          args.clear();
          for (const ColumnVector& ac : argcols) args.push_back(ac.ValueAt(i));
          AccumulateArgs(*calls_, &args, &states[g]);
        }
      }
    }
    // Charges of the replaced scalar stages, once per task like the
    // originals: scanFilter (ApplyPredicate) and aggKey (MapRdd). The
    // shared combine tail charges the rest exactly as CombiningShuffleDep.
    if (scan_.predicate != nullptr) {
      tctx->work().rows_processed +=
          ExprChargeRows(scanned, scan_.predicate_extra);
    }
    tctx->work().rows_processed += row_hashes.size();
    std::vector<std::pair<Row, AggState>> groups;
    groups.reserve(table.size());
    for (size_t g = 0; g < table.size(); ++g) {
      groups.emplace_back(table.group_keys()[g], std::move(states[g]));
    }
    return internal_shuffle::BucketCombinedGroups(
        std::move(groups), table.group_hashes(), row_hashes, num_buckets_,
        tctx);
  }

 private:
  VecScan scan_;
  std::shared_ptr<const std::vector<CompiledExpr>> groups_;
  std::shared_ptr<const std::vector<CompiledExpr>> agg_args_;
  std::shared_ptr<const std::vector<AggCall>> calls_;
};

}  // namespace

std::shared_ptr<ShuffleDependency> MakeVecAggDep(
    const VecScan& scan, int num_buckets,
    std::shared_ptr<const std::vector<CompiledExpr>> group_programs,
    std::shared_ptr<const std::vector<CompiledExpr>> agg_arg_programs,
    std::shared_ptr<const std::vector<AggCall>> calls) {
  // Identity pass-through so the shuffle-map stage carries a recognizable
  // label (the base may be the raw cached RDD or a prunedScan subset).
  // MapPartitionsRdd charges nothing itself; the cached base's read charges
  // flow through GetOrCompute exactly as in the scalar chain.
  auto parent = scan.base->MapPartitions(
      [](int, const std::vector<TablePartitionPtr>& parts, TaskContext*) {
        return parts;
      },
      "vecAggKey:" + scan.table);
  return std::make_shared<VecAggShuffleDep>(
      parent, num_buckets, scan, std::move(group_programs),
      std::move(agg_arg_programs), std::move(calls));
}

}  // namespace vec
}  // namespace shark
