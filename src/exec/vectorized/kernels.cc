#include "exec/vectorized/kernels.h"

#include "common/hash.h"
#include "common/logging.h"

namespace shark {
namespace vec {

namespace {

// Sentinel from Value::Hash — NULL hashes to a fixed value so NULL keys
// (NULL==NULL under grouping semantics) land in one group.
constexpr uint64_t kNullHash = 0x9ae16a3b2f90404fULL;
constexpr uint64_t kRowHashSeed = 0x9e3779b97f4a7c15ULL;

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

}  // namespace vec
}  // namespace shark
