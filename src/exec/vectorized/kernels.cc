#include "exec/vectorized/kernels.h"

#include <cmath>

#include "common/hash.h"
#include "common/logging.h"

namespace shark {
namespace vec {

namespace {

// Sentinel from Value::Hash — NULL hashes to a fixed value so NULL keys
// (NULL==NULL under grouping semantics) land in one group.
constexpr uint64_t kNullHash = 0x9ae16a3b2f90404fULL;
constexpr uint64_t kRowHashSeed = 0x9e3779b97f4a7c15ULL;

/// Cell-vs-Value equality matching Value::operator== on the typed paths
/// (same logical type on both sides by construction: the stored key Row was
/// materialized from the same column).
inline bool CellEqualsValue(const ColumnVector& col, size_t i, const Value& v) {
  if (col.IsNull(i)) return v.is_null();
  if (v.is_null()) return false;
  switch (col.storage) {
    case ColumnVector::Storage::kInt64:
      return v.int64_v() == col.ints[i];
    case ColumnVector::Storage::kDouble: {
      double a = col.doubles[i];
      double b = v.double_v();
      if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
      return a == b;
    }
    case ColumnVector::Storage::kString:
      return v.str() == col.strs[i];
    default:
      return col.values[i] == v;
  }
}

}  // namespace

uint64_t HashCell(const ColumnVector& col, size_t i) {
  if (col.IsNull(i)) return kNullHash;
  switch (col.storage) {
    case ColumnVector::Storage::kInt64:
      return HashInt64(col.ints[i]);
    case ColumnVector::Storage::kDouble:
      return HashDoubleKey(col.doubles[i]);
    case ColumnVector::Storage::kString:
      return HashBytes(col.strs[i]);
    default:
      return col.values[i].Hash();
  }
}

void HashKeyColumns(const std::vector<const ColumnVector*>& keys, size_t n,
                    std::vector<uint64_t>* out) {
  size_t base = out->size();
  out->resize(base + n, kRowHashSeed);
  uint64_t* h = out->data() + base;
  for (const ColumnVector* col : keys) {
    for (size_t i = 0; i < n; ++i) h[i] = HashCombine(h[i], HashCell(*col, i));
  }
}

VecGroupTable::VecGroupTable() : slots_(64, 0) {}

void VecGroupTable::Rehash(size_t new_capacity) {
  slots_.assign(new_capacity, 0);
  size_t mask = new_capacity - 1;
  for (size_t g = 0; g < keys_.size(); ++g) {
    size_t pos = hashes_[g] & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = static_cast<uint32_t>(g + 1);
  }
}

size_t VecGroupTable::FindOrInsert(const std::vector<const ColumnVector*>& keys,
                                   size_t row, uint64_t hash) {
  size_t mask = slots_.size() - 1;
  size_t pos = hash & mask;
  while (slots_[pos] != 0) {
    size_t g = slots_[pos] - 1;
    if (hashes_[g] == hash) {
      const Row& key = keys_[g];
      bool eq = true;
      for (size_t c = 0; c < keys.size() && eq; ++c) {
        eq = CellEqualsValue(*keys[c], row, key.fields[c]);
      }
      if (eq) return g;
    }
    pos = (pos + 1) & mask;
  }
  Row key;
  key.fields.reserve(keys.size());
  for (const ColumnVector* col : keys) key.fields.push_back(col->ValueAt(row));
  size_t g = keys_.size();
  keys_.push_back(std::move(key));
  hashes_.push_back(hash);
  slots_[pos] = static_cast<uint32_t>(g + 1);
  if ((keys_.size() + 1) * 10 >= slots_.size() * 7) Rehash(slots_.size() * 2);
  return g;
}

}  // namespace vec
}  // namespace shark
