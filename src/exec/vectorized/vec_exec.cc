#include "exec/vectorized/vec_exec.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "exec/vectorized/column_batch.h"
#include "exec/vectorized/group_table.h"
#include "exec/vectorized/join_table.h"
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

/// SortRows' order on two rows' key Values: key by key under its direction,
/// then the input index.
bool SortsBefore(const Value* ka, uint64_t ia, const Value* kb, uint64_t ib,
                 const std::vector<bool>& asc) {
  for (size_t k = 0; k < asc.size(); ++k) {
    const int c = ka[k].Compare(kb[k]);
    if (c != 0) return asc[k] ? c < 0 : c > 0;
  }
  return ia < ib;
}

/// Sum of ApproxSizeOf over the window's cells of one column.
uint64_t CellBytes(const ColumnVector& col, size_t w) {
  uint64_t bytes = 16 * w;
  if (col.storage == ColumnVector::Storage::kString) {
    for (size_t i = 0; i < w; ++i) {
      if (!col.IsNull(i)) bytes += col.strs[i].size();
    }
  } else if (col.storage == ColumnVector::Storage::kGeneric) {
    for (size_t i = 0; i < w; ++i) {
      if (col.values[i].kind() == TypeKind::kString) {
        bytes += col.values[i].str().size();
      }
    }
  }
  return bytes;
}

/// A task's bounded top-k: the `limit` first rows offered so far in
/// SortRows' order, as a max-heap whose front is the last of them. Offered
/// rows arrive in input order, so a row that ties the front on every key
/// sorts after it and is rejected without being materialized.
class TopKHeap {
  struct Entry {
    std::vector<Value> keys;
    uint64_t index = 0;
    Row row;
  };
  struct Before {
    const std::vector<bool>* asc;
    bool operator()(const Entry& a, const Entry& b) const {
      return SortsBefore(a.keys.data(), a.index, b.keys.data(), b.index, *asc);
    }
  };

 public:
  TopKHeap(const std::vector<bool>* asc, size_t limit)
      : asc_(asc), limit_(limit) {}

  /// Offers window row i of the key columns as input row `index`; calls
  /// `make_row()` only for a row the heap keeps.
  template <typename MakeRow>
  void Offer(const std::vector<ColumnVector>& keys, size_t i, uint64_t index,
             MakeRow make_row) {
    if (heap_.size() == limit_) {
      if (limit_ == 0 || !BeforeFront(keys, i)) return;
      std::pop_heap(heap_.begin(), heap_.end(), Before{asc_});
      heap_.pop_back();
    }
    Entry e;
    e.keys.reserve(keys.size());
    for (const ColumnVector& k : keys) e.keys.push_back(k.ValueAt(i));
    e.index = index;
    e.row = make_row();
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), Before{asc_});
  }

  /// The kept rows in order; leaves the heap empty.
  std::vector<Row> TakeSorted() {
    std::sort_heap(heap_.begin(), heap_.end(), Before{asc_});
    std::vector<Row> out;
    out.reserve(heap_.size());
    for (Entry& e : heap_) out.push_back(std::move(e.row));
    heap_.clear();
    return out;
  }

 private:
  /// Whether window row i sorts strictly before the heap's front.
  bool BeforeFront(const std::vector<ColumnVector>& keys, size_t i) const {
    const std::vector<Value>& front = heap_.front().keys;
    for (size_t k = 0; k < keys.size(); ++k) {
      const int c = keys[k].ValueAt(i).Compare(front[k]);
      if (c != 0) return (*asc_)[k] ? c < 0 : c > 0;
    }
    return false;
  }

  const std::vector<bool>* asc_;
  size_t limit_;
  std::vector<Entry> heap_;
};

}  // namespace

std::vector<Row> SortRows(const std::vector<Row>& in, const SortSpec& spec,
                          TaskContext* tctx) {
  // Each row's sort keys are evaluated once; the sort permutes row indices.
  // Ties break on the input index, so the order is total and equals a
  // stable sort of the rows. With a LIMIT only the first `limit` positions
  // are ordered (a partial sort), which yields the same prefix.
  const size_t k = spec.keys->size();
  std::vector<Value> key_values;
  key_values.reserve(in.size() * k);
  for (const Row& r : in) {
    for (const CompiledExpr& key : *spec.keys) key_values.push_back(key.Eval(r));
  }
  std::vector<uint32_t> order(in.size());
  std::iota(order.begin(), order.end(), 0u);
  // External sort-merge path: a partition larger than the task's memory
  // budget is sorted as budget-sized runs spilled to local disk, then k-way
  // merged (run I/O and the merge pass charged by the context).
  tctx->ReserveOrSpillSort(ApproxSizeOfRange(in), in.size());
  auto before = [&](uint32_t a, uint32_t b) {
    return SortsBefore(key_values.data() + static_cast<size_t>(a) * k, a,
                       key_values.data() + static_cast<size_t>(b) * k, b,
                       *spec.ascending);
  };
  size_t n = in.size();
  if (spec.limit >= 0 && static_cast<int64_t>(n) > spec.limit) {
    n = static_cast<size_t>(spec.limit);
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(n),
                      order.end(), before);
  } else {
    std::sort(order.begin(), order.end(), before);
  }
  std::vector<Row> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(in[order[i]]);
  tctx->work().sort_records += in.size();
  tctx->work().rows_processed += in.size();
  tctx->ReleaseAllWorkingSet();
  return out;
}

RddPtr<Row> BuildVecTopK(
    const VecScan& scan,
    std::shared_ptr<const std::vector<CompiledExpr>> projects,
    uint64_t project_extra, SortSpec spec) {
  SHARK_CHECK(spec.limit >= 0);
  return scan.base->MapPartitions(
      [scan, projects, project_extra, spec](
          int, const std::vector<TablePartitionPtr>& parts, TaskContext* tctx) {
        TopKHeap heap(spec.ascending.get(), static_cast<size_t>(spec.limit));
        uint64_t scanned = 0;
        uint64_t survived = 0;
        // ApproxSizeOfRange of the projected rows SortRows would buffer.
        uint64_t row_bytes = 0;
        ColumnBatch projected;
        projected.cols.resize(projects->size());
        std::vector<ColumnVector> keys(spec.keys->size());
        for (const TablePartitionPtr& part : parts) {
          if (part == nullptr) continue;
          ScannedPart sp = ScanFilterPart(scan, *part, tctx);
          scanned += sp.scanned;
          const size_t m = sp.batch.num_rows;
          for (size_t b = 0; b < m; b += kBatchSize) {
            const size_t e = std::min(m, b + kBatchSize);
            const size_t w = e - b;
            projected.num_rows = w;
            row_bytes += 24 * w;
            for (size_t j = 0; j < projects->size(); ++j) {
              (*projects)[j].EvalBatch(sp.batch, b, e, &projected.cols[j]);
              row_bytes += CellBytes(projected.cols[j], w);
            }
            if (spec.limit > 0) {
              for (size_t k = 0; k < keys.size(); ++k) {
                (*spec.keys)[k].EvalBatch(projected, 0, w, &keys[k]);
              }
              for (size_t i = 0; i < w; ++i) {
                heap.Offer(keys, i, survived + i, [&projected, i] {
                  return MaterializeRow(projected, i);
                });
              }
            }
            survived += w;
          }
        }
        // BuildVecScanProject's charges, then SortRows' over the rows it
        // would have built.
        if (scan.predicate != nullptr) {
          tctx->work().rows_processed +=
              ExprChargeRows(scanned, scan.predicate_extra);
        }
        tctx->work().rows_processed += ExprChargeRows(survived, project_extra);
        tctx->ReserveOrSpillSort(row_bytes, survived);
        tctx->work().sort_records += survived;
        tctx->work().rows_processed += survived;
        tctx->ReleaseAllWorkingSet();
        return heap.TakeSorted();
      },
      "sortPartial:vecScan:" + scan.table);
}

namespace {

/// Map side of the group-by over the columnar store: scan, filter,
/// column-wise key hashing and batched group-table probing, then typed
/// accumulate kernels, all in one ShuffleDependency. Rows fold in input
/// order and groups keep first-seen order, exactly as on the row path.
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
    VecGroupTable table(calls_, groups_->size());
    std::vector<uint64_t> row_hashes;  // surviving rows, input order
    uint64_t scanned = 0;
    std::vector<ColumnVector> keycols(groups_->size());
    std::vector<const ColumnVector*> keyviews(groups_->size());
    std::vector<ColumnVector> argcols(agg_args_->size());
    std::vector<uint32_t> gids(kBatchSize);
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
          gids[i] = static_cast<uint32_t>(
              table.FindOrInsert(keyviews, i, row_hashes[hbase + i]));
        }
        table.batch().FoldBatch(argcols, gids.data(), w);
      }
    }
    // Charges of the replaced scalar stages, once per task like the
    // originals: scanFilter (ApplyPredicate) and aggKey (one row of work
    // per row). The layout tail charges the combine exactly as the row path.
    if (scan_.predicate != nullptr) {
      tctx->work().rows_processed +=
          ExprChargeRows(scanned, scan_.predicate_extra);
    }
    tctx->work().rows_processed += row_hashes.size();
    return LayOutGroupBatch(table.TakeBatch(), row_hashes, num_buckets_, tctx);
  }

 private:
  VecScan scan_;
  std::shared_ptr<const std::vector<CompiledExpr>> groups_;
  std::shared_ptr<const std::vector<CompiledExpr>> agg_args_;
  std::shared_ptr<const std::vector<AggCall>> calls_;
};

/// Map side of the group-by over rows: each row's key and arguments are
/// evaluated by the compiled programs and folded into the same flat table
/// the columnar path fills.
class RowAggShuffleDep final : public ShuffleDependency {
 public:
  RowAggShuffleDep(RddPtr<Row> parent, int num_buckets,
                   std::shared_ptr<const std::vector<CompiledExpr>> groups,
                   std::shared_ptr<const std::vector<CompiledExpr>> agg_args,
                   std::shared_ptr<const std::vector<AggCall>> calls)
      : ShuffleDependency(parent, num_buckets),
        groups_(std::move(groups)),
        agg_args_(std::move(agg_args)),
        calls_(std::move(calls)) {}

  MapOutput PartitionBlock(const BlockData& block,
                           TaskContext* tctx) const override {
    const auto& in = *std::static_pointer_cast<const std::vector<Row>>(block);
    VecGroupTable table(calls_, groups_->size());
    std::vector<uint64_t> row_hashes;
    row_hashes.reserve(in.size());
    Row key;
    key.fields.resize(groups_->size());
    std::vector<Value> args(agg_args_->size());
    for (const Row& r : in) {
      for (size_t k = 0; k < key.fields.size(); ++k) {
        key.fields[k] = (*groups_)[k].Eval(r);
      }
      const uint64_t h = KeyHash(key);
      row_hashes.push_back(h);
      const size_t g = table.FindOrInsert(key, h);
      for (size_t a = 0; a < args.size(); ++a) {
        args[a] = (*agg_args_)[a].Eval(r);
      }
      table.batch().Fold(g, args.data());
    }
    return LayOutGroupBatch(table.TakeBatch(), row_hashes, num_buckets_, tctx);
  }

 private:
  std::shared_ptr<const std::vector<CompiledExpr>> groups_;
  std::shared_ptr<const std::vector<CompiledExpr>> agg_args_;
  std::shared_ptr<const std::vector<AggCall>> calls_;
};

/// Reduce side of the group-by: merges the fetched GroupBatch slices into
/// one flat table, in fetch order, and finalizes it into output rows (groups
/// in first-seen order). Charges what merging the same groups as (key Row,
/// AggState) pairs charges.
class AggReduceRdd final : public TypedRdd<Row> {
 public:
  AggReduceRdd(ClusterContext* ctx, std::shared_ptr<ShuffleDependency> dep,
               std::shared_ptr<const std::vector<AggCall>> calls,
               size_t num_keys, BucketAssignment assignment)
      : TypedRdd<Row>(ctx, "aggReduce"),
        dep_(dep),
        calls_(std::move(calls)),
        num_keys_(num_keys),
        assignment_(std::move(assignment)) {
    this->deps_.push_back(Dependency{nullptr, dep});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  Block Compute(int p, TaskContext* tctx) const override {
    double effective_records = 0.0;
    std::vector<ShuffleSlice> slices = tctx->FetchShuffleBuckets(
        dep_->shuffle_id(), assignment_[static_cast<size_t>(p)],
        &effective_records);
    // Per-record reduce charges use the cardinality-adjusted record count so
    // that the cost model's uniform scaling stays faithful.
    tctx->work().hash_records += static_cast<uint64_t>(effective_records);
    tctx->work().rows_processed += static_cast<uint64_t>(effective_records);
    VecGroupTable table(calls_, num_keys_);
    uint64_t records_in = 0;
    for (const ShuffleSlice& s : slices) {
      records_in += s.size();
      table.MergeSlice(s);
    }
    const GroupBatch& merged = table.batch();
    // The merge table and the reduce output hold one record per key —
    // cardinality-bounded, so both get the same distinct-growth adjustment
    // as the map-side combiner outputs.
    const double adjust =
        DistinctGrowthFactor(static_cast<double>(records_in),
                             static_cast<double>(merged.size()),
                             tctx->virtual_scale()) /
        std::max(tctx->virtual_scale(), 1.0);
    const auto table_bytes = static_cast<uint64_t>(
        static_cast<double>(merged.Bytes()) * adjust);
    // External hash aggregation: past the task's budget the merge table
    // degrades to grace-hash partitions on local disk merged one at a time.
    tctx->ReserveOrSpillHash(table_bytes,
                             static_cast<uint64_t>(effective_records));
    tctx->ReleaseAllWorkingSet();
    internal_shuffle::ChargeStageMaterialization(table_bytes, tctx);
    Block out;
    out.reserve(merged.size());
    for (size_t g = 0; g < merged.size(); ++g) {
      out.push_back(merged.FinalizeRow(g));
    }
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> dep_;
  std::shared_ptr<const std::vector<AggCall>> calls_;
  size_t num_keys_;
  BucketAssignment assignment_;
};

/// Map side of the shuffle join: each row's keys are evaluated once and the
/// row lands in the task's JoinBatch.
class RowJoinShuffleDep final : public ShuffleDependency {
 public:
  RowJoinShuffleDep(RddPtr<Row> parent, int num_buckets,
                    std::shared_ptr<const std::vector<CompiledExpr>> keys)
      : ShuffleDependency(parent, num_buckets), keys_(std::move(keys)) {}

  MapOutput PartitionBlock(const BlockData& block,
                           TaskContext* tctx) const override {
    const auto& in = *std::static_pointer_cast<const std::vector<Row>>(block);
    auto batch = std::make_shared<JoinBatch>(
        keys_->size(), in.empty() ? 0 : in.front().fields.size());
    batch->Reserve(in.size());
    Row key;
    key.fields.resize(keys_->size());
    for (const Row& r : in) {
      for (size_t k = 0; k < key.fields.size(); ++k) {
        key.fields[k] = (*keys_)[k].Eval(r);
      }
      batch->Append(key, r, KeyHash(key));
    }
    return LayOutJoinBatch(std::move(batch), num_buckets_, tctx);
  }

 private:
  std::shared_ptr<const std::vector<CompiledExpr>> keys_;
};

/// Reduce side of the shuffle join (see BuildJoinReduce).
class JoinReduceRdd final : public TypedRdd<Row> {
 public:
  JoinReduceRdd(ClusterContext* ctx, std::shared_ptr<ShuffleDependency> left,
                std::shared_ptr<ShuffleDependency> right, JoinType join_type,
                int left_width, int right_width, BucketAssignment assignment)
      : TypedRdd<Row>(ctx, "joinOutput"),
        left_(left),
        right_(right),
        join_type_(join_type),
        left_width_(static_cast<size_t>(left_width)),
        right_width_(static_cast<size_t>(right_width)),
        assignment_(std::move(assignment)) {
    SHARK_CHECK(left->num_buckets() == right->num_buckets());
    this->deps_.push_back(Dependency{nullptr, left});
    this->deps_.push_back(Dependency{nullptr, right});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  Block Compute(int p, TaskContext* tctx) const override {
    const auto& my_buckets = assignment_[static_cast<size_t>(p)];
    std::vector<ShuffleSlice> lbs =
        tctx->FetchShuffleBuckets(left_->shuffle_id(), my_buckets);
    std::vector<ShuffleSlice> rbs =
        tctx->FetchShuffleBuckets(right_->shuffle_id(), my_buckets);
    JoinHashTable table;
    size_t rows = 0;
    for (const auto* side : {&lbs, &rbs}) {
      for (const ShuffleSlice& s : *side) rows += s.size();
    }
    table.Reserve(rows);
    // Chains one side's slices; returns (working-set bytes, records).
    auto chain = [&](const std::vector<ShuffleSlice>& slices, int side) {
      uint64_t bytes = 0, records = 0;
      for (const ShuffleSlice& s : slices) {
        const JoinBatch& batch = s.Batch<JoinBatch>();
        tctx->work().hash_records += s.size();
        tctx->work().rows_processed += s.size();
        bytes += s.bytes;
        records += s.size();
        for (uint32_t i = s.begin; i < s.end; ++i) {
          table.Insert(batch, batch.bucket_order()[i], side);
        }
      }
      return std::make_pair(bytes, records);
    };
    // Join build table: reserve the left side, then grow by the right side;
    // whichever extension overruns the task's budget degrades to grace-hash
    // spill partitions.
    const auto [left_ws, left_records] = chain(lbs, 0);
    tctx->ReserveOrSpillHash(left_ws, left_records);
    const auto [right_ws, right_records] = chain(rbs, 1);
    tctx->GrowOrSpillHash(right_ws, right_records);
    Block out = Emit(table);
    // Flattening the co-group: one row of work per key.
    tctx->work().rows_processed += table.num_keys();
    tctx->ReleaseAllWorkingSet();
    if (tctx->profile().materialize_stages_to_dfs) {
      // The co-group a MapReduce chain materializes: every fetched Row, and
      // each key Row with its two row vectors.
      uint64_t cogroup_bytes = 0;
      for (const auto* side : {&lbs, &rbs}) {
        for (const ShuffleSlice& s : *side) {
          const JoinBatch& batch = s.Batch<JoinBatch>();
          for (uint32_t i = s.begin; i < s.end; ++i) {
            cogroup_bytes += batch.RowBytes(batch.bucket_order()[i]);
          }
        }
      }
      for (uint32_t k = 0; k < table.num_keys(); ++k) {
        const JoinRowRef& key = table.key_row(k);
        cogroup_bytes += key.batch->KeyBytes(key.row) + 2 * 24;
      }
      internal_shuffle::ChargeStageMaterialization(cogroup_bytes, tctx);
    }
    return out;
  }

 private:
  Block Emit(const JoinHashTable& t) const {
    constexpr uint32_t kEnd = JoinHashTable::kEnd;
    auto joined = [&](const JoinRowRef* l, const JoinRowRef* r) {
      Row row;
      row.fields.reserve(left_width_ + right_width_);
      if (l != nullptr) {
        l->batch->AppendFields(l->row, &row.fields);
      } else {
        row.fields.resize(left_width_);
      }
      if (r != nullptr) {
        r->batch->AppendFields(r->row, &row.fields);
      } else {
        row.fields.resize(row.fields.size() + right_width_);
      }
      return row;
    };
    Block out;
    for (uint32_t k = 0; k < t.num_keys(); ++k) {
      const uint32_t lhead = t.head(k, 0);
      const uint32_t rhead = t.head(k, 1);
      for (uint32_t l = lhead; l != kEnd; l = t.next(l)) {
        for (uint32_t r = rhead; r != kEnd; r = t.next(r)) {
          out.push_back(joined(&t.entry(l), &t.entry(r)));
        }
      }
      // Null-extend the preserved side of an outer join (§SQL).
      if (join_type_ == JoinType::kLeftOuter && rhead == kEnd) {
        for (uint32_t l = lhead; l != kEnd; l = t.next(l)) {
          out.push_back(joined(&t.entry(l), nullptr));
        }
      }
      if (join_type_ == JoinType::kRightOuter && lhead == kEnd) {
        for (uint32_t r = rhead; r != kEnd; r = t.next(r)) {
          out.push_back(joined(nullptr, &t.entry(r)));
        }
      }
    }
    return out;
  }

  std::shared_ptr<ShuffleDependency> left_;
  std::shared_ptr<ShuffleDependency> right_;
  JoinType join_type_;
  size_t left_width_;
  size_t right_width_;
  BucketAssignment assignment_;
};

/// One task reading every bucket of a join shuffle back into rows.
class JoinGatherRdd final : public TypedRdd<Row> {
 public:
  JoinGatherRdd(ClusterContext* ctx, std::shared_ptr<ShuffleDependency> dep)
      : TypedRdd<Row>(ctx, "gatherSmallSide"), dep_(dep) {
    this->deps_.push_back(Dependency{nullptr, dep});
  }

  int num_partitions() const override { return 1; }

  Block Compute(int, TaskContext* tctx) const override {
    std::vector<int> all(static_cast<size_t>(dep_->num_buckets()));
    std::iota(all.begin(), all.end(), 0);
    Block out;
    uint64_t bytes = 0;
    for (const ShuffleSlice& s :
         tctx->FetchShuffleBuckets(dep_->shuffle_id(), all)) {
      const JoinBatch& batch = s.Batch<JoinBatch>();
      bytes += s.bytes;
      for (uint32_t i = s.begin; i < s.end; ++i) {
        Row row;
        row.fields.reserve(batch.width());
        batch.AppendFields(batch.bucket_order()[i], &row.fields);
        out.push_back(std::move(row));
      }
    }
    tctx->work().rows_processed += out.size();
    internal_shuffle::ChargeStageMaterialization(bytes, tctx);
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> dep_;
};

}  // namespace

std::shared_ptr<ShuffleDependency> MakeVecAggDep(
    const VecScan& scan, int num_buckets,
    std::shared_ptr<const std::vector<CompiledExpr>> group_programs,
    std::shared_ptr<const std::vector<CompiledExpr>> agg_arg_programs,
    std::shared_ptr<const std::vector<AggCall>> calls) {
  // Identity pass-through so the shuffle-map stage carries the aggregate's
  // "aggKey" label, which EXPLAIN ANALYZE maps to the Aggregate node (the
  // base may be the raw cached RDD or a prunedScan subset). MapPartitionsRdd
  // charges nothing itself; the cached base's read charges flow through
  // GetOrCompute exactly as in the scalar chain.
  auto parent = scan.base->MapPartitions(
      [](int, const std::vector<TablePartitionPtr>& parts, TaskContext*) {
        return parts;
      },
      "aggKey:vecScan:" + scan.table);
  return std::make_shared<VecAggShuffleDep>(
      parent, num_buckets, scan, std::move(group_programs),
      std::move(agg_arg_programs), std::move(calls));
}

std::shared_ptr<ShuffleDependency> MakeRowAggDep(
    RddPtr<Row> input, int num_buckets,
    std::shared_ptr<const std::vector<CompiledExpr>> group_programs,
    std::shared_ptr<const std::vector<CompiledExpr>> agg_arg_programs,
    std::shared_ptr<const std::vector<AggCall>> calls) {
  // The key-evaluation step keeps its own label and per-row charge; the
  // dependency evaluates the keys while combining.
  auto keyed = std::make_shared<PassThroughRdd<Row>>(input, "aggKey");
  return std::make_shared<RowAggShuffleDep>(
      keyed, num_buckets, std::move(group_programs),
      std::move(agg_arg_programs), std::move(calls));
}

RddPtr<Row> BuildAggReduce(std::shared_ptr<ShuffleDependency> dep,
                           std::shared_ptr<const std::vector<AggCall>> calls,
                           size_t num_keys, BucketAssignment assignment) {
  ClusterContext* ctx = dep->parent()->context();
  auto reduced = std::make_shared<AggReduceRdd>(
      ctx, std::move(dep), std::move(calls), num_keys, std::move(assignment));
  return std::make_shared<PassThroughRdd<Row>>(reduced, "aggFinalize");
}

std::shared_ptr<ShuffleDependency> MakeJoinDep(
    RddPtr<Row> input, int num_buckets,
    std::shared_ptr<const std::vector<CompiledExpr>> keys, std::string label) {
  // The key-evaluation step keeps its own label and per-row charge; the
  // dependency evaluates the keys while filling the batch.
  auto keyed = std::make_shared<PassThroughRdd<Row>>(input, std::move(label));
  return std::make_shared<RowJoinShuffleDep>(keyed, num_buckets,
                                             std::move(keys));
}

RddPtr<Row> BuildJoinReduce(std::shared_ptr<ShuffleDependency> left,
                            std::shared_ptr<ShuffleDependency> right,
                            JoinType join_type, int left_width,
                            int right_width, BucketAssignment assignment) {
  ClusterContext* ctx = left->parent()->context();
  return std::make_shared<JoinReduceRdd>(ctx, std::move(left),
                                         std::move(right), join_type,
                                         left_width, right_width,
                                         std::move(assignment));
}

RddPtr<Row> BuildJoinGather(std::shared_ptr<ShuffleDependency> dep) {
  ClusterContext* ctx = dep->parent()->context();
  return std::make_shared<JoinGatherRdd>(ctx, std::move(dep));
}

}  // namespace vec
}  // namespace shark
