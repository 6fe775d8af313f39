#ifndef SHARK_EXEC_VECTORIZED_KEY_CELL_H_
#define SHARK_EXEC_VECTORIZED_KEY_CELL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/vectorized/column_batch.h"
#include "relation/types.h"
#include "relation/value.h"

namespace shark {
namespace vec {

/// One cell, borrowed from wherever it lives (a ColumnVector, a Value or a
/// CellColumn). `bits` holds the BOOLEAN/BIGINT/DATE payload or the
/// DOUBLE's bit pattern; `str` views a STRING's bytes.
struct KeyCell {
  TypeKind kind = TypeKind::kNull;
  uint64_t bits = 0;
  std::string_view str;

  static KeyCell Of(const Value& v);
  static KeyCell Of(const ColumnVector& col, size_t i);
  /// Value::operator== (NULL == NULL, NaN == NaN, exact BIGINT/DOUBLE
  /// cross-type equality).
  bool operator==(const KeyCell& other) const;
  Value ToValue() const;
};

/// A sequence of cells — one column, or a batch's rows one after another: a
/// kind and an 8-byte payload per cell. A STRING's payload is
/// (offset << 32 | length) into a character buffer the owner keeps, so
/// several sequences can share one buffer. Appending a cell never allocates
/// per cell.
class CellColumn {
 public:
  size_t size() const { return kinds_.size(); }
  void Reserve(size_t n) {
    kinds_.reserve(n);
    payload_.reserve(n);
  }
  void Append(const KeyCell& cell, std::string* chars);
  KeyCell At(size_t i, std::string_view chars) const;
  /// ApproxSizeOf of the cell's Value, without building it.
  uint64_t CellBytes(size_t i) const {
    return 16 + (kinds_[i] == TypeKind::kString ? payload_[i] & UINT32_MAX : 0);
  }

 private:
  std::vector<TypeKind> kinds_;
  // BOOLEAN/BIGINT/DATE payload, DOUBLE bits, or a STRING's
  // (offset << 32 | length) into the owner's buffer.
  std::vector<uint64_t> payload_;
};

/// A CellColumn that owns its string bytes: one group-key column of a
/// GroupBatch.
class KeyColumn {
 public:
  size_t size() const { return cells_.size(); }
  void Append(const KeyCell& cell) { cells_.Append(cell, &chars_); }
  KeyCell At(size_t i) const { return cells_.At(i, chars_); }
  uint64_t CellBytes(size_t i) const { return cells_.CellBytes(i); }

 private:
  CellColumn cells_;
  std::string chars_;
};

}  // namespace vec
}  // namespace shark

#endif  // SHARK_EXEC_VECTORIZED_KEY_CELL_H_
