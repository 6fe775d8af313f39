#include "exec/vectorized/group_table.h"

#include <utility>

#include "common/logging.h"
#include "rdd/pair_rdd.h"

namespace shark {
namespace vec {

// ---------------------------------------------------------------------------
// State columns
// ---------------------------------------------------------------------------

namespace {

template <typename T>
auto CellPtr(T& column, size_t g) {
  return column.empty() ? nullptr : &column[g];
}

}  // namespace

AggCellRef AggColumn::At(size_t g) {
  return {&inited[g],           &count[g],           CellPtr(int_sum, g),
          CellPtr(double_sum, g), CellPtr(extreme, g), CellPtr(distinct, g)};
}

ConstAggCellRef AggColumn::At(size_t g) const {
  return {&inited[g],           &count[g],           CellPtr(int_sum, g),
          CellPtr(double_sum, g), CellPtr(extreme, g), CellPtr(distinct, g)};
}

// ---------------------------------------------------------------------------
// GroupBatch
// ---------------------------------------------------------------------------

GroupBatch::GroupBatch(std::shared_ptr<const std::vector<AggCall>> calls,
                       size_t num_keys)
    : calls_(std::move(calls)), keys_(num_keys), aggs_(calls_->size()) {
  size_t next = 0;
  for (const AggCall& call : *calls_) {
    arg_offset_.push_back(next);
    next += call.args.size();
  }
}

void GroupBatch::GrowStates() {
  for (size_t c = 0; c < aggs_.size(); ++c) {
    const AggCall& call = (*calls_)[c];
    AggColumn& col = aggs_[c];
    col.count.push_back(0);
    col.inited.push_back(0);
    switch (call.fn) {
      case AggCall::Fn::kSum:
      case AggCall::Fn::kAvg:
        if (IntSumCall(call)) {
          col.int_sum.push_back(0);
        } else {
          col.double_sum.push_back(0.0);
        }
        break;
      case AggCall::Fn::kMin:
      case AggCall::Fn::kMax:
        col.extreme.emplace_back();
        break;
      case AggCall::Fn::kCountDistinct:
        col.distinct.emplace_back();
        break;
      case AggCall::Fn::kCountStar:
      case AggCall::Fn::kCount:
        break;
    }
  }
}

void GroupBatch::Fold(size_t g, Value* args) {
  for (size_t c = 0; c < aggs_.size(); ++c) {
    FoldArgs((*calls_)[c], args + arg_offset_[c], aggs_[c].At(g));
  }
}

namespace {

/// Typed SUM/AVG kernel: folds every non-NULL cell of `arg`, read through
/// `get` and already coerced to the accumulator type, into its group.
template <typename T, typename Get>
void SumKernel(const ColumnVector& arg, const uint32_t* gids, size_t n,
               AggColumn* col, std::vector<T>* acc, Get get) {
  const uint8_t* nulls = arg.nulls.empty() ? nullptr : arg.nulls.data();
  for (size_t i = 0; i < n; ++i) {
    if (nulls != nullptr && nulls[i] != 0) continue;
    const uint32_t g = gids[i];
    SumFold(get(i), &col->inited[g], &(*acc)[g], &col->count[g]);
  }
}

/// Runs the typed SUM/AVG kernel when `arg` has typed storage; returns false
/// for the storages only the per-Value path reads exactly.
bool FoldSumTyped(const AggCall& call, const ColumnVector& arg,
                  const uint32_t* gids, size_t n, AggColumn* col) {
  using S = ColumnVector::Storage;
  if (arg.storage == S::kAllNull) return true;
  const bool ints = arg.storage == S::kInt64;
  if (!ints && arg.storage != S::kDouble) return false;
  // The coercions of Value::AsInt64 and Value::AsDouble.
  if (IntSumCall(call)) {
    if (ints) {
      SumKernel(arg, gids, n, col, &col->int_sum,
                [&](size_t i) { return arg.ints[i]; });
    } else {
      SumKernel(arg, gids, n, col, &col->int_sum, [&](size_t i) {
        return SaturatingDoubleToInt64(arg.doubles[i]);
      });
    }
  } else if (ints) {
    SumKernel(arg, gids, n, col, &col->double_sum,
              [&](size_t i) { return static_cast<double>(arg.ints[i]); });
  } else {
    SumKernel(arg, gids, n, col, &col->double_sum,
              [&](size_t i) { return arg.doubles[i]; });
  }
  return true;
}

}  // namespace

void GroupBatch::FoldBatch(const std::vector<ColumnVector>& args,
                           const uint32_t* gids, size_t n) {
  std::vector<Value> tuple;
  for (size_t c = 0; c < aggs_.size(); ++c) {
    const AggCall& call = (*calls_)[c];
    AggColumn& col = aggs_[c];
    const size_t off = arg_offset_[c];
    switch (call.fn) {
      case AggCall::Fn::kCountStar:
        for (size_t i = 0; i < n; ++i) col.count[gids[i]] += 1;
        continue;
      case AggCall::Fn::kCount:
        for (size_t i = 0; i < n; ++i) {
          if (!args[off].IsNull(i)) col.count[gids[i]] += 1;
        }
        continue;
      case AggCall::Fn::kSum:
      case AggCall::Fn::kAvg:
        if (FoldSumTyped(call, args[off], gids, n, &col)) continue;
        break;
      default:
        break;
    }
    // Per-Value path: MIN/MAX, COUNT(DISTINCT) and untyped arguments.
    tuple.resize(call.args.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t a = 0; a < tuple.size(); ++a) {
        tuple[a] = args[off + a].ValueAt(i);
      }
      FoldArgs(call, tuple.data(), col.At(gids[i]));
    }
  }
}

void GroupBatch::Merge(size_t g, const GroupBatch& src, size_t sg) {
  for (size_t c = 0; c < aggs_.size(); ++c) {
    MergeCell((*calls_)[c], src.aggs_[c].At(sg), aggs_[c].At(g));
  }
}

uint64_t GroupBatch::GroupBytes(size_t g) const {
  static const uint64_t kRowBytes = ApproxSizeOf(Row());
  uint64_t total = kRowBytes + kAggStateBytes;
  for (const KeyColumn& key : keys_) total += key.CellBytes(g);
  for (const AggColumn& col : aggs_) total += CellBytes(col.At(g));
  return total;
}

uint64_t GroupBatch::Bytes() const {
  uint64_t total = 0;
  for (size_t g = 0; g < size(); ++g) total += GroupBytes(g);
  return total;
}

Row GroupBatch::FinalizeRow(size_t g) const {
  Row out;
  out.fields.reserve(keys_.size() + aggs_.size());
  for (const KeyColumn& key : keys_) out.fields.push_back(key.At(g).ToValue());
  for (size_t c = 0; c < aggs_.size(); ++c) {
    out.fields.push_back(CellResult((*calls_)[c], aggs_[c].At(g)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// VecGroupTable
// ---------------------------------------------------------------------------

VecGroupTable::VecGroupTable(std::shared_ptr<const std::vector<AggCall>> calls,
                             size_t num_keys)
    : batch_(std::make_shared<GroupBatch>(std::move(calls), num_keys)),
      slots_(16, 0) {}

void VecGroupTable::Rehash(size_t new_capacity) {
  slots_.assign(new_capacity, 0);
  const size_t mask = new_capacity - 1;
  for (size_t g = 0; g < batch_->size(); ++g) {
    size_t pos = batch_->hash(g) & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = static_cast<uint32_t>(g + 1);
  }
}

template <typename Eq, typename CellFn>
size_t VecGroupTable::FindOrInsertImpl(uint64_t hash, Eq eq, CellFn cell) {
  const size_t mask = slots_.size() - 1;
  size_t pos = hash & mask;
  while (slots_[pos] != 0) {
    const size_t g = slots_[pos] - 1;
    if (batch_->hash(g) == hash && eq(g)) return g;
    pos = (pos + 1) & mask;
  }
  const size_t g = batch_->AddGroup(hash, cell);
  slots_[pos] = static_cast<uint32_t>(g + 1);
  if ((batch_->size() + 1) * 10 >= slots_.size() * 7) {
    Rehash(slots_.size() * 2);
  }
  return g;
}

size_t VecGroupTable::FindOrInsert(const std::vector<const ColumnVector*>& keys,
                                   size_t row, uint64_t hash) {
  const GroupBatch& b = *batch_;
  return FindOrInsertImpl(
      hash,
      [&](size_t g) {
        for (size_t k = 0; k < keys.size(); ++k) {
          if (!(KeyCell::Of(*keys[k], row) == b.key(k).At(g))) return false;
        }
        return true;
      },
      [&](size_t k) { return KeyCell::Of(*keys[k], row); });
}

size_t VecGroupTable::FindOrInsert(const Row& key, uint64_t hash) {
  const GroupBatch& b = *batch_;
  return FindOrInsertImpl(
      hash,
      [&](size_t g) {
        for (size_t k = 0; k < key.fields.size(); ++k) {
          if (!(KeyCell::Of(key.fields[k]) == b.key(k).At(g))) return false;
        }
        return true;
      },
      [&](size_t k) { return KeyCell::Of(key.fields[k]); });
}

void VecGroupTable::MergeSlice(const ShuffleSlice& slice) {
  const GroupBatch& src = slice.Batch<GroupBatch>();
  const GroupBatch& b = *batch_;
  const std::vector<uint32_t>& order = src.bucket_order();
  for (uint32_t i = slice.begin; i < slice.end; ++i) {
    const size_t sg = order[i];
    const size_t g = FindOrInsertImpl(
        src.hash(sg),
        [&](size_t dg) {
          for (size_t k = 0; k < src.num_keys(); ++k) {
            if (!(src.key(k).At(sg) == b.key(k).At(dg))) return false;
          }
          return true;
        },
        [&](size_t k) { return src.key(k).At(sg); });
    // Merging into a fresh (empty) state copies the partial.
    batch_->Merge(g, src, sg);
  }
}

// ---------------------------------------------------------------------------
// Map-side layout
// ---------------------------------------------------------------------------

MapOutput LayOutGroupBatch(std::shared_ptr<GroupBatch> batch,
                           const std::vector<uint64_t>& record_hashes,
                           int num_buckets, TaskContext* tctx) {
  const size_t groups = batch->size();
  const double byte_adjust =
      internal_shuffle::ChargeCombine(record_hashes, groups, tctx);
  const auto nb = static_cast<uint64_t>(num_buckets);
  std::vector<uint32_t> bucket_of(groups);
  std::vector<uint64_t> group_bytes(groups);  // read in order, summed by run
  for (size_t g = 0; g < groups; ++g) {
    bucket_of[g] = static_cast<uint32_t>(batch->hash(g) % nb);
    group_bytes[g] = batch->GroupBytes(g);
  }
  MapOutput out;
  out.buckets = OrderByBucket(bucket_of, static_cast<uint32_t>(num_buckets),
                              &batch->order_);
  out.on_disk = tctx->profile().shuffle_through_disk;
  out.cost_scale = byte_adjust;
  uint64_t raw_bytes = 0;  // resident combine-table size, unadjusted
  uint64_t out_bytes = 0;
  for (MapBucket& run : out.buckets) {
    uint64_t bytes = 0;
    for (uint32_t i = run.begin; i < run.end; ++i) {
      bytes += group_bytes[batch->order_[i]];
    }
    raw_bytes += bytes;
    run.SetBytes(
        static_cast<uint64_t>(static_cast<double>(bytes) * byte_adjust));
    out_bytes += run.bytes;
  }
  out.batch = std::move(batch);
  internal_shuffle::ChargeCombineOutput(raw_bytes, out_bytes, groups,
                                        record_hashes.size(), tctx);
  return out;
}

}  // namespace vec
}  // namespace shark
