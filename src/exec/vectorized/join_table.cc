#include "exec/vectorized/join_table.h"

#include <utility>

#include "common/logging.h"
#include "rdd/pair_rdd.h"

namespace shark {
namespace vec {

// ---------------------------------------------------------------------------
// JoinBatch
// ---------------------------------------------------------------------------

JoinBatch::JoinBatch(size_t num_keys, size_t width)
    : num_keys_(num_keys), stride_(num_keys + width) {}

void JoinBatch::Reserve(size_t rows) {
  cells_.Reserve(rows * stride_);
  hashes_.reserve(rows);
}

void JoinBatch::Append(const Row& key, const Row& row, uint64_t hash) {
  SHARK_CHECK(key.fields.size() == num_keys_ && row.fields.size() == width());
  for (const Value& v : key.fields) cells_.Append(KeyCell::Of(v), &chars_);
  for (const Value& v : row.fields) cells_.Append(KeyCell::Of(v), &chars_);
  hashes_.push_back(hash);
}

uint64_t JoinBatch::CellsBytes(size_t begin, size_t end, size_t r) const {
  static const uint64_t kRowBytes = ApproxSizeOf(Row());
  uint64_t total = kRowBytes;
  for (size_t c = begin; c < end; ++c) {
    total += cells_.CellBytes(r * stride_ + c);
  }
  return total;
}

uint64_t JoinBatch::KeyBytes(size_t r) const {
  return CellsBytes(0, num_keys_, r);
}

uint64_t JoinBatch::RowBytes(size_t r) const {
  return CellsBytes(num_keys_, stride_, r);
}

void JoinBatch::AppendFields(size_t r, std::vector<Value>* out) const {
  for (size_t c = r * stride_ + num_keys_; c < (r + 1) * stride_; ++c) {
    out->push_back(cells_.At(c, chars_).ToValue());
  }
}

MapOutput LayOutJoinBatch(std::shared_ptr<JoinBatch> batch, int num_buckets,
                          TaskContext* tctx) {
  const size_t n = batch->size();
  const auto nb = static_cast<uint64_t>(num_buckets);
  std::vector<uint32_t> bucket_of(n);
  std::vector<uint64_t> row_bytes(n);  // read in order, summed by run
  for (size_t r = 0; r < n; ++r) {
    bucket_of[r] = static_cast<uint32_t>(batch->hash(r) % nb);
    row_bytes[r] = batch->KeyBytes(r) + batch->RowBytes(r);
  }
  // Plain repartitioning scales linearly with the input: exact bytes, no
  // cost scale.
  MapOutput out;
  out.buckets = OrderByBucket(bucket_of, static_cast<uint32_t>(num_buckets),
                              &batch->order_);
  out.on_disk = tctx->profile().shuffle_through_disk;
  uint64_t total_bytes = 0;
  for (MapBucket& run : out.buckets) {
    uint64_t bytes = 0;
    for (uint32_t i = run.begin; i < run.end; ++i) {
      bytes += row_bytes[batch->order_[i]];
    }
    run.SetBytes(bytes);
    total_bytes += bytes;
  }
  out.batch = std::move(batch);
  tctx->work().rows_processed += n;
  internal_shuffle::ChargeMapOutputWrite(total_bytes, n, n, tctx);
  return out;
}

// ---------------------------------------------------------------------------
// JoinHashTable
// ---------------------------------------------------------------------------

namespace {

/// Open-addressing capacity for `keys` keys at most 70% full.
size_t SlotsFor(size_t keys) {
  size_t capacity = 16;
  while ((keys + 1) * 10 >= capacity * 7) capacity *= 2;
  return capacity;
}

}  // namespace

void JoinHashTable::Reserve(size_t rows) {
  if (SlotsFor(rows) > slots_.size()) Rehash(SlotsFor(rows));
  keys_.reserve(rows);
  entries_.reserve(rows);
}

void JoinHashTable::Rehash(size_t capacity) {
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t k = 0; k < keys_.size(); ++k) {
    size_t pos = keys_[k].hash & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = static_cast<uint32_t>(k + 1);
  }
}

template <typename Eq>
uint32_t JoinHashTable::Probe(uint64_t hash, Eq eq, size_t* slot) const {
  const size_t mask = slots_.size() - 1;
  size_t pos = hash & mask;
  while (slots_[pos] != 0) {
    const uint32_t k = slots_[pos] - 1;
    if (keys_[k].hash == hash && eq(keys_[k].first)) return k;
    pos = (pos + 1) & mask;
  }
  *slot = pos;
  return kEnd;
}

void JoinHashTable::Insert(const JoinBatch& batch, uint32_t r, int side) {
  const uint64_t hash = batch.hash(r);
  size_t slot = 0;
  uint32_t k = Probe(
      hash,
      [&](const JoinRowRef& ref) {
        for (size_t c = 0; c < batch.num_keys(); ++c) {
          if (!(batch.key(c, r) == ref.batch->key(c, ref.row))) return false;
        }
        return true;
      },
      &slot);
  if (k == kEnd) {
    k = static_cast<uint32_t>(keys_.size());
    slots_[slot] = k + 1;
    keys_.push_back(Key{hash, JoinRowRef{&batch, r}});
    if (SlotsFor(keys_.size()) > slots_.size()) Rehash(slots_.size() * 2);
  }
  const auto e = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{JoinRowRef{&batch, r}});
  Key& key = keys_[k];
  if (key.head[side] == kEnd) {
    key.head[side] = e;
  } else {
    entries_[key.tail[side]].next = e;
  }
  key.tail[side] = e;
}

uint32_t JoinHashTable::Find(const Row& key, uint64_t hash) const {
  size_t slot = 0;
  return Probe(
      hash,
      [&](const JoinRowRef& ref) {
        for (size_t c = 0; c < key.fields.size(); ++c) {
          if (!(KeyCell::Of(key.fields[c]) == ref.batch->key(c, ref.row))) {
            return false;
          }
        }
        return true;
      },
      &slot);
}

// ---------------------------------------------------------------------------
// JoinBuild
// ---------------------------------------------------------------------------

JoinBuild::JoinBuild(const std::vector<CompiledExpr>& keys,
                     const std::vector<Row>& rows)
    : batch_(std::make_unique<JoinBatch>(
          keys.size(), rows.empty() ? 0 : rows.front().fields.size())) {
  batch_->Reserve(rows.size());
  Row key;
  key.fields.resize(keys.size());
  for (const Row& r : rows) {
    for (size_t k = 0; k < keys.size(); ++k) key.fields[k] = keys[k].Eval(r);
    batch_->Append(key, r, KeyHash(key));
  }
  table_.Reserve(batch_->size());
  for (size_t r = 0; r < batch_->size(); ++r) {
    table_.Insert(*batch_, static_cast<uint32_t>(r));
  }
}

void JoinBuild::Probe(const std::vector<CompiledExpr>& probe_keys,
                      const std::vector<Row>& probe, bool build_is_left,
                      std::vector<Row>* out) const {
  Row key;
  key.fields.resize(probe_keys.size());
  for (const Row& r : probe) {
    for (size_t k = 0; k < probe_keys.size(); ++k) {
      key.fields[k] = probe_keys[k].Eval(r);
    }
    const uint32_t k = table_.Find(key, KeyHash(key));
    if (k == JoinHashTable::kEnd) continue;
    for (uint32_t e = table_.head(k); e != JoinHashTable::kEnd;
         e = table_.next(e)) {
      Row joined;
      joined.fields.reserve(batch_->width() + r.fields.size());
      if (!build_is_left) {
        joined.fields.insert(joined.fields.end(), r.fields.begin(),
                             r.fields.end());
      }
      batch_->AppendFields(table_.entry(e).row, &joined.fields);
      if (build_is_left) {
        joined.fields.insert(joined.fields.end(), r.fields.begin(),
                             r.fields.end());
      }
      out->push_back(std::move(joined));
    }
  }
}

uint64_t JoinBuild::Bytes() const {
  uint64_t total = 64;
  for (uint32_t k = 0; k < table_.num_keys(); ++k) {
    total += batch_->KeyBytes(table_.key_row(k).row) + 16;
  }
  for (size_t r = 0; r < batch_->size(); ++r) total += batch_->RowBytes(r);
  return total;
}

}  // namespace vec
}  // namespace shark
