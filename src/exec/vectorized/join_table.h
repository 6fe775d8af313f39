#ifndef SHARK_EXEC_VECTORIZED_JOIN_TABLE_H_
#define SHARK_EXEC_VECTORIZED_JOIN_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/vectorized/key_cell.h"
#include "rdd/shuffle.h"
#include "rdd/task_context.h"
#include "relation/row.h"
#include "relation/value.h"
#include "sql/expr_compiler.h"

namespace shark {
namespace vec {

/// The input rows of one join map task, flat: each row's join-key cells,
/// then every input field, as typed cells whose strings share one buffer the
/// batch owns, plus each row's KeyHash(key). Cells are stored row by row: a
/// reducer visits rows in bucket order, scattered over the batch, and reads
/// every cell of each row it emits. Rows keep input order; LayOutJoinBatch
/// adds the bucket order. A row's bytes are defined as the ApproxSizeOf its
/// (key Row, Row) pair would have, cell by cell, so every charge that reads
/// them matches the reference row layout.
class JoinBatch {
 public:
  JoinBatch(size_t num_keys, size_t width);

  size_t size() const { return hashes_.size(); }
  size_t num_keys() const { return num_keys_; }
  /// Fields per row.
  size_t width() const { return stride_ - num_keys_; }
  uint64_t hash(size_t r) const { return hashes_[r]; }
  KeyCell key(size_t k, size_t r) const {
    return cells_.At(r * stride_ + k, chars_);
  }

  void Reserve(size_t rows);
  /// Appends a row: its key values, its fields and `hash` = KeyHash(key).
  void Append(const Row& key, const Row& row, uint64_t hash);

  /// ApproxSizeOf(key Row) of row r.
  uint64_t KeyBytes(size_t r) const;
  /// ApproxSizeOf(Row) of row r's fields.
  uint64_t RowBytes(size_t r) const;
  /// Appends row r's fields to `out` as Values.
  void AppendFields(size_t r, std::vector<Value>* out) const;

  /// The shuffle layout set by LayOutJoinBatch: row indices in bucket
  /// order, each bucket keeping input order.
  const std::vector<uint32_t>& bucket_order() const { return order_; }

 private:
  friend MapOutput LayOutJoinBatch(std::shared_ptr<JoinBatch> batch,
                                   int num_buckets, TaskContext* tctx);

  uint64_t CellsBytes(size_t begin, size_t end, size_t r) const;

  size_t num_keys_;
  size_t stride_;     // cells per row: keys, then fields
  CellColumn cells_;  // row r's cells start at r * stride_
  std::string chars_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> order_;
};

/// The map-side tail of the shuffle join: lays the batch out by bucket with
/// a stable counting sort and makes the charges, bucket bytes and records of
/// hash-partitioning the same rows as (key Row, Row) pairs. The result's
/// batch is `batch`; its buckets are ranges of bucket_order().
MapOutput LayOutJoinBatch(std::shared_ptr<JoinBatch> batch, int num_buckets,
                          TaskContext* tctx);

/// A row of some JoinBatch.
struct JoinRowRef {
  const JoinBatch* batch = nullptr;
  uint32_t row = 0;
};

/// The one hash-join kernel: an open-addressing index over join keys held
/// in JoinBatch key columns, each key's rows chained in insertion order on
/// one side (a build table) or on two (the shuffle join's co-group). Keys
/// are numbered in first-seen order and compare as Value::operator== does.
class JoinHashTable {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  JoinHashTable() : slots_(16, 0) {}

  /// Sizes the table for `rows` insertions.
  void Reserve(size_t rows);
  /// Chains row r of `batch` under its key on `side` (0 or 1), inserting
  /// the key on first sight. The batch must outlive the table.
  void Insert(const JoinBatch& batch, uint32_t r, int side = 0);
  /// The key equal to `key` (whose KeyHash is `hash`), or kEnd.
  uint32_t Find(const Row& key, uint64_t hash) const;

  size_t num_keys() const { return keys_.size(); }
  /// The row that first brought key k.
  const JoinRowRef& key_row(uint32_t k) const { return keys_[k].first; }
  /// The first row chained under key k on `side` (kEnd when none); next()
  /// walks the chain.
  uint32_t head(uint32_t k, int side = 0) const { return keys_[k].head[side]; }
  uint32_t next(uint32_t e) const { return entries_[e].next; }
  const JoinRowRef& entry(uint32_t e) const { return entries_[e].row; }

 private:
  struct Key {
    uint64_t hash;
    JoinRowRef first;
    uint32_t head[2] = {kEnd, kEnd};
    uint32_t tail[2] = {kEnd, kEnd};
  };
  struct Entry {
    JoinRowRef row;
    uint32_t next = kEnd;
  };

  template <typename Eq>
  uint32_t Probe(uint64_t hash, Eq eq, size_t* slot) const;
  void Rehash(size_t capacity);

  std::vector<Key> keys_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;  // key index + 1; 0 = empty
};

/// A hash-join build side: its rows in one JoinBatch with their keys
/// evaluated once, indexed by a one-sided JoinHashTable. The map join
/// broadcasts one; the co-partitioned join builds one per task.
class JoinBuild {
 public:
  JoinBuild(const std::vector<CompiledExpr>& keys,
            const std::vector<Row>& rows);

  /// Appends every (build, probe) match to `out`: probe rows in order, each
  /// with its build rows in build order, columns in (left, right) order.
  /// Charges stay with the callers.
  void Probe(const std::vector<CompiledExpr>& probe_keys,
             const std::vector<Row>& probe, bool build_is_left,
             std::vector<Row>* out) const;

  /// ApproxSizeOf the same rows grouped as a key Row -> build Rows hash map:
  /// 64, plus each key's Row and 16, plus each build Row.
  uint64_t Bytes() const;

 private:
  std::unique_ptr<JoinBatch> batch_;  // stable address for the table's refs
  JoinHashTable table_;
};

/// The size a broadcast JoinBuild registers.
inline uint64_t ApproxSizeOf(const JoinBuild& build) { return build.Bytes(); }

}  // namespace vec
}  // namespace shark

#endif  // SHARK_EXEC_VECTORIZED_JOIN_TABLE_H_
