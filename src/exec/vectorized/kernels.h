#ifndef SHARK_EXEC_VECTORIZED_KERNELS_H_
#define SHARK_EXEC_VECTORIZED_KERNELS_H_

#include <cstdint>
#include <vector>

#include "exec/vectorized/column_batch.h"
#include "relation/row.h"
#include "relation/value.h"

namespace shark {
namespace vec {

/// Hash of cell i of `col`, replicating Value::Hash bit for bit (NULL
/// sentinel, NaN sentinel, exact-int64 doubles hashing as their integer,
/// FNV over string bytes) without constructing a Value on the typed paths.
uint64_t HashCell(const ColumnVector& col, size_t i);

/// Column-wise group-key hashing: out[i] = KeyHash(Row{keys[*][i]}), i.e. the
/// seed-and-HashCombine fold the shuffle layer applies to key Rows. Appends n
/// hashes to `out`.
void HashKeyColumns(const std::vector<const ColumnVector*>& keys, size_t n,
                    std::vector<uint64_t>* out);

}  // namespace vec
}  // namespace shark

#endif  // SHARK_EXEC_VECTORIZED_KERNELS_H_
