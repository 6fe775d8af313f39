#include "exec/vectorized/key_cell.h"

#include <bit>
#include <cmath>

#include "common/logging.h"

namespace shark {
namespace vec {

// ---------------------------------------------------------------------------
// Key cells
// ---------------------------------------------------------------------------

KeyCell KeyCell::Of(const Value& v) {
  KeyCell c;
  c.kind = v.kind();
  switch (v.kind()) {
    case TypeKind::kNull:
      break;
    case TypeKind::kDouble:
      c.bits = std::bit_cast<uint64_t>(v.double_v());
      break;
    case TypeKind::kString:
      c.str = v.str();
      break;
    default:
      c.bits = static_cast<uint64_t>(v.int64_v());
      break;
  }
  return c;
}

KeyCell KeyCell::Of(const ColumnVector& col, size_t i) {
  KeyCell c;
  if (col.IsNull(i)) return c;
  switch (col.storage) {
    case ColumnVector::Storage::kInt64:
      // The kinds ColumnVector::ValueAt rebuilds from an int64 payload.
      c.kind = col.type == TypeKind::kBool || col.type == TypeKind::kDate
                   ? col.type
                   : TypeKind::kInt64;
      c.bits = static_cast<uint64_t>(col.ints[i]);
      break;
    case ColumnVector::Storage::kDouble:
      c.kind = TypeKind::kDouble;
      c.bits = std::bit_cast<uint64_t>(col.doubles[i]);
      break;
    case ColumnVector::Storage::kString:
      c.kind = TypeKind::kString;
      c.str = col.strs[i];
      break;
    case ColumnVector::Storage::kGeneric:
      return Of(col.values[i]);
    case ColumnVector::Storage::kAllNull:
      break;
  }
  return c;
}

bool KeyCell::operator==(const KeyCell& other) const {
  if (kind != other.kind) {
    // Mixed kinds in one key column: only numeric cross-type equality can
    // hold; Value decides it exactly.
    return ToValue() == other.ToValue();
  }
  switch (kind) {
    case TypeKind::kNull:
      return true;
    case TypeKind::kDouble: {
      const double a = std::bit_cast<double>(bits);
      const double b = std::bit_cast<double>(other.bits);
      if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
      return a == b;
    }
    case TypeKind::kString:
      return str == other.str;
    default:
      return bits == other.bits;
  }
}

Value KeyCell::ToValue() const {
  switch (kind) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kBool:
      return Value::Bool(bits != 0);
    case TypeKind::kInt64:
      return Value::Int64(static_cast<int64_t>(bits));
    case TypeKind::kDate:
      return Value::Date(static_cast<int64_t>(bits));
    case TypeKind::kDouble:
      return Value::Double(std::bit_cast<double>(bits));
    case TypeKind::kString:
      return Value::String(std::string(str));
  }
  return Value::Null();
}

// ---------------------------------------------------------------------------
// Cell columns
// ---------------------------------------------------------------------------

void CellColumn::Append(const KeyCell& cell, std::string* chars) {
  kinds_.push_back(cell.kind);
  if (cell.kind != TypeKind::kString) {
    payload_.push_back(cell.bits);
    return;
  }
  const uint64_t offset = chars->size();
  SHARK_CHECK(offset <= UINT32_MAX && cell.str.size() <= UINT32_MAX);
  chars->append(cell.str);
  payload_.push_back(offset << 32 | cell.str.size());
}

KeyCell CellColumn::At(size_t i, std::string_view chars) const {
  KeyCell c;
  c.kind = kinds_[i];
  if (c.kind == TypeKind::kString) {
    c.str = chars.substr(payload_[i] >> 32, payload_[i] & UINT32_MAX);
  } else {
    c.bits = payload_[i];
  }
  return c;
}

}  // namespace vec
}  // namespace shark
