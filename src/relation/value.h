#ifndef SHARK_RELATION_VALUE_H_
#define SHARK_RELATION_VALUE_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "common/hash.h"
#include "common/status.h"
#include "relation/types.h"

namespace shark {

/// Wrapping (two's-complement) BIGINT arithmetic. SQL integer overflow in
/// this engine wraps modulo 2^64 instead of being undefined behaviour, so
/// Shark, Hive and the reference evaluator agree bit-for-bit on overflow.
inline int64_t WrapAddInt64(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSubInt64(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMulInt64(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
inline int64_t WrapNegInt64(int64_t a) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(a));
}

/// DOUBLE -> BIGINT cast with defined semantics: NaN maps to 0 and
/// out-of-range values saturate to INT64_MIN/MAX. Plain static_cast is UB
/// for those inputs.
inline int64_t SaturatingDoubleToInt64(double d) {
  if (std::isnan(d)) return 0;
  // 2^63 is exactly representable; anything >= it (or < -2^63) saturates.
  if (d >= 9223372036854775808.0) return INT64_MAX;
  if (d < -9223372036854775808.0) return INT64_MIN;
  return static_cast<int64_t>(d);
}

/// True iff `d` is an integer exactly representable as int64_t; writes the
/// integer to `*out`. NaN, infinities, fractional and out-of-range doubles
/// all return false.
inline bool DoubleIsExactInt64(double d, int64_t* out) {
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    return false;  // NaN, +/-Inf, out of range
  }
  if (std::trunc(d) != d) return false;
  *out = static_cast<int64_t>(d);
  return true;
}

/// Key hash of a DOUBLE, consistent with Value::operator==: a double equal
/// to an integer hashes like that BIGINT, so cross-type key equality agrees
/// with hashing. Doubles outside int64 range (and +/-Inf) can't equal any
/// integer and hash as raw doubles; NaNs are canonicalized because
/// operator== treats all NaNs as equal.
inline uint64_t HashDoubleKey(double d) {
  if (std::isnan(d)) return 0xfff8dececa5eba11ULL;
  int64_t as_int = 0;
  if (DoubleIsExactInt64(d, &as_int)) return HashInt64(as_int);
  return HashDouble(d);
}

/// Exact BIGINT-vs-DOUBLE ordering without rounding either side. `d` must
/// not be NaN. Returns the sign of (i <=> d). This is the comparison
/// Value::Compare uses for mixed numeric kinds; vectorized kernels call it
/// directly so batch and row paths share one definition.
int CompareInt64Double(int64_t i, double d);

/// A single SQL value: NULL, BOOLEAN, BIGINT, DOUBLE, STRING or DATE.
/// Comparison and arithmetic coerce BIGINT<->DOUBLE; NULL compares with SQL
/// three-valued logic at the expression layer (here NULL simply sorts first
/// and equals only NULL).
class Value {
 public:
  Value() : kind_(TypeKind::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) {
    Value x;
    x.kind_ = TypeKind::kBool;
    x.i_ = v ? 1 : 0;
    return x;
  }
  static Value Int64(int64_t v) {
    Value x;
    x.kind_ = TypeKind::kInt64;
    x.i_ = v;
    return x;
  }
  static Value Double(double v) {
    Value x;
    x.kind_ = TypeKind::kDouble;
    x.d_ = v;
    return x;
  }
  static Value String(std::string v) {
    Value x;
    x.kind_ = TypeKind::kString;
    x.s_ = std::move(v);
    return x;
  }
  static Value Date(int64_t days) {
    Value x;
    x.kind_ = TypeKind::kDate;
    x.i_ = days;
    return x;
  }

  /// Parses "YYYY-MM-DD" into a DATE value.
  static Result<Value> ParseDate(const std::string& text);

  TypeKind kind() const { return kind_; }
  bool is_null() const { return kind_ == TypeKind::kNull; }

  bool bool_v() const { return i_ != 0; }
  int64_t int64_v() const { return i_; }  // BIGINT, BOOLEAN and DATE payload
  double double_v() const { return d_; }
  const std::string& str() const { return s_; }

  /// Numeric coercion (BOOL/INT64/DATE -> double); 0.0 for NULL/STRING.
  double AsDouble() const;
  /// Integer coercion (DOUBLE truncates).
  int64_t AsInt64() const;

  /// SQL equality: NULL == NULL and NaN == NaN here (used for grouping and
  /// join keys, not predicates). BIGINT/DOUBLE cross-type equality is exact:
  /// a double equals an int64 iff it represents that integer exactly — no
  /// lossy coercion through double above 2^53.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order for sorting: NULL < numerics (coerced) < strings.
  /// NaN orders after every other numeric and compares equal only to itself.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// Consistent with operator==: equal values (including int64/double
  /// cross-type equals and all NaNs) hash identically.
  uint64_t Hash() const;

  /// SQL-style text rendering (also used for CSV serialization sizing).
  std::string ToString() const;

  /// Days since epoch rendered as "YYYY-MM-DD".
  static std::string FormatDate(int64_t days);

 private:
  TypeKind kind_;
  int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
};

inline uint64_t KeyHash(const Value& v) { return v.Hash(); }

/// Approximate in-memory footprint (cache accounting).
inline uint64_t ApproxSizeOf(const Value& v) {
  return 16 + (v.kind() == TypeKind::kString ? v.str().size() : 0);
}

}  // namespace shark

#endif  // SHARK_RELATION_VALUE_H_
