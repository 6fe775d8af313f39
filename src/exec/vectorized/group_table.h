#ifndef SHARK_EXEC_VECTORIZED_GROUP_TABLE_H_
#define SHARK_EXEC_VECTORIZED_GROUP_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/vectorized/column_batch.h"
#include "exec/vectorized/key_cell.h"
#include "rdd/shuffle.h"
#include "rdd/task_context.h"
#include "relation/row.h"
#include "relation/value.h"
#include "sql/aggregates.h"
#include "sql/logical_plan.h"

namespace shark {
namespace vec {

/// One aggregate call's state for every group of a GroupBatch, one typed
/// column per field the call uses (see BasicAggCellRef): `count` and
/// `inited` always; `int_sum`, `double_sum`, `extreme` or `distinct` as the
/// call needs. MIN/MAX and COUNT(DISTINCT) keep per-group objects there.
struct AggColumn {
  std::vector<int64_t> count;
  std::vector<uint8_t> inited;
  std::vector<int64_t> int_sum;
  std::vector<double> double_sum;
  std::vector<Value> extreme;
  std::vector<DistinctSet> distinct;

  AggCellRef At(size_t g);
  ConstAggCellRef At(size_t g) const;
};

/// A flat table of partial aggregates: typed key columns, typed per-call
/// state columns and each group's key hash, groups in first-seen order. A
/// map task fills one and ships it whole as its shuffle output; a reduce
/// task merges the fetched slices into another and finalizes it into rows.
/// Its bytes are defined as the ApproxSizeOf the same groups would have as
/// (key Row, AggState) pairs, cell by cell, so every charge that reads them
/// matches the reference layout.
class GroupBatch {
 public:
  GroupBatch(std::shared_ptr<const std::vector<AggCall>> calls,
             size_t num_keys);

  size_t size() const { return hashes_.size(); }
  uint64_t hash(size_t g) const { return hashes_[g]; }
  const KeyColumn& key(size_t k) const { return keys_[k]; }
  size_t num_keys() const { return keys_.size(); }

  /// Appends a group with the key cells produced by `cell(k)` and an empty
  /// state; returns its index.
  template <typename CellFn>
  size_t AddGroup(uint64_t hash, CellFn cell) {
    for (size_t k = 0; k < keys_.size(); ++k) keys_[k].Append(cell(k));
    hashes_.push_back(hash);
    GrowStates();
    return hashes_.size() - 1;
  }

  /// Folds one row's arguments (flattened call by call; may be moved from)
  /// into group g.
  void Fold(size_t g, Value* args);

  /// Folds rows [0, n) of a batch window into their groups: gids[i] is row
  /// i's group, `args` the argument columns flattened call by call. Typed
  /// kernels for COUNT/SUM/AVG over typed columns; every other case folds
  /// through the per-Value path. Rows fold in order, call by call.
  void FoldBatch(const std::vector<ColumnVector>& args, const uint32_t* gids,
                 size_t n);

  /// Merges group `sg` of `src` into group g. Into a fresh group's empty
  /// state this is a copy (the first value is copied, never added to zero).
  void Merge(size_t g, const GroupBatch& src, size_t sg);

  /// Charged bytes of group g: ApproxSizeOf(pair<Row, AggState>).
  uint64_t GroupBytes(size_t g) const;
  /// Sum of GroupBytes over every group.
  uint64_t Bytes() const;

  /// Group g's output row: key values, then each call's finalized value.
  Row FinalizeRow(size_t g) const;

  /// The shuffle layout set by LayOutGroupBatch: group indices in bucket
  /// order.
  const std::vector<uint32_t>& bucket_order() const { return order_; }

 private:
  friend MapOutput LayOutGroupBatch(std::shared_ptr<GroupBatch> batch,
                                    const std::vector<uint64_t>& record_hashes,
                                    int num_buckets, TaskContext* tctx);

  void GrowStates();

  std::shared_ptr<const std::vector<AggCall>> calls_;
  std::vector<size_t> arg_offset_;  // first argument of each call
  std::vector<KeyColumn> keys_;
  std::vector<AggColumn> aggs_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> order_;
};

/// Open-addressing hash index over a GroupBatch: maps group-key tuples to
/// dense group indices in first-seen order. The map side inserts from
/// column batches or key rows; the reduce side merges fetched slices.
class VecGroupTable {
 public:
  VecGroupTable(std::shared_ptr<const std::vector<AggCall>> calls,
                size_t num_keys);

  /// The group of row `row` of the key columns, inserted on first sight.
  /// `hash` must be the HashKeyColumns value for that row.
  size_t FindOrInsert(const std::vector<const ColumnVector*>& keys, size_t row,
                      uint64_t hash);
  /// The group of a key row, inserted on first sight; `hash` is
  /// KeyHash(key).
  size_t FindOrInsert(const Row& key, uint64_t hash);
  /// Merges every group of a fetched slice of a GroupBatch, in bucket
  /// order: a group seen for the first time is copied, a later one merged
  /// into it.
  void MergeSlice(const ShuffleSlice& slice);

  size_t size() const { return batch_->size(); }
  GroupBatch& batch() { return *batch_; }
  const GroupBatch& batch() const { return *batch_; }
  /// Hands the filled batch over (the table is spent afterwards).
  std::shared_ptr<GroupBatch> TakeBatch() { return std::move(batch_); }

 private:
  template <typename Eq, typename CellFn>
  size_t FindOrInsertImpl(uint64_t hash, Eq eq, CellFn cell);
  void Rehash(size_t new_capacity);

  std::shared_ptr<GroupBatch> batch_;
  std::vector<uint32_t> slots_;  // group index + 1; 0 = empty
};

/// The map-side tail of the SQL group-by. `record_hashes` holds the key hash
/// of every input row in input order. Charges the combine's hashing, lays
/// the batch out by bucket with a stable counting sort (each bucket keeps
/// first-seen order), pre-adjusts bucket bytes for cardinality-bounded
/// output, reserves the combine table's working set and charges the
/// map-output write — the same charges, bucket bytes, records and cost
/// scale as combining the same groups as (key Row, AggState) pairs. The
/// result's batch is `batch`; its buckets are ranges of bucket_order().
MapOutput LayOutGroupBatch(std::shared_ptr<GroupBatch> batch,
                           const std::vector<uint64_t>& record_hashes,
                           int num_buckets, TaskContext* tctx);

}  // namespace vec
}  // namespace shark

#endif  // SHARK_EXEC_VECTORIZED_GROUP_TABLE_H_
