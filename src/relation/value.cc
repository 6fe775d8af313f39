#include "relation/value.h"

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace shark {

namespace {

bool IsLeapYear(int64_t y) {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

const int kDaysInMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

int64_t DaysFromCivil(int64_t y, int m, int d) {
  // Howard Hinnant's days_from_civil algorithm.
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int64_t* y, int* m, int* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *y = yy + (*m <= 2);
}

}  // namespace

Result<Value> Value::ParseDate(const std::string& text) {
  int64_t y = 0;
  int m = 0, d = 0;
  if (std::sscanf(text.c_str(), "%ld-%d-%d", &y, &m, &d) != 3) {
    return Status::ParseError("invalid date literal: " + text);
  }
  if (m < 1 || m > 12 || d < 1) {
    return Status::ParseError("invalid date literal: " + text);
  }
  int max_day = kDaysInMonth[m - 1] + (m == 2 && IsLeapYear(y) ? 1 : 0);
  if (d > max_day) return Status::ParseError("invalid date literal: " + text);
  return Value::Date(DaysFromCivil(y, m, d));
}

std::string Value::FormatDate(int64_t days) {
  int64_t y;
  int m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04ld-%02d-%02d", y, m, d);
  return buf;
}

double Value::AsDouble() const {
  switch (kind_) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return static_cast<double>(i_);
    case TypeKind::kDouble:
      return d_;
    case TypeKind::kNull:
    case TypeKind::kString:
      return 0.0;
  }
  return 0.0;
}

int64_t Value::AsInt64() const {
  switch (kind_) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return i_;
    case TypeKind::kDouble:
      return SaturatingDoubleToInt64(d_);
    case TypeKind::kNull:
    case TypeKind::kString:
      return 0;
  }
  return 0;
}

int CompareInt64Double(int64_t i, double d) {
  if (d >= 9223372036854775808.0) return -1;  // every int64 < d
  if (d < -9223372036854775808.0) return 1;
  // trunc(d) now lies in [-2^63, 2^63) and casts safely.
  const double t = std::trunc(d);
  const int64_t it = static_cast<int64_t>(t);
  if (i < it) return -1;
  if (i > it) return 1;
  const double frac = d - t;
  if (frac > 0) return -1;  // i == trunc(d) < d
  if (frac < 0) return 1;
  return 0;
}

bool Value::operator==(const Value& other) const {
  if (kind_ == other.kind_) {
    switch (kind_) {
      case TypeKind::kNull:
        return true;
      case TypeKind::kBool:
      case TypeKind::kInt64:
      case TypeKind::kDate:
        return i_ == other.i_;
      case TypeKind::kDouble:
        // Grouping/join-key equality: NaN matches NaN (IEEE == would make
        // NaN keys never group, diverging from Compare's total order).
        if (std::isnan(d_) || std::isnan(other.d_)) {
          return std::isnan(d_) && std::isnan(other.d_);
        }
        return d_ == other.d_;
      case TypeKind::kString:
        return s_ == other.s_;
    }
  }
  // Numeric cross-type equality (BIGINT vs DOUBLE): exact, not via a lossy
  // AsDouble() round-trip — 2^53+1 as int64 must not equal 2^53 as double.
  if (IsNumericLike(kind_) && IsNumericLike(other.kind_)) {
    if (kind_ != TypeKind::kDouble && other.kind_ != TypeKind::kDouble) {
      return i_ == other.i_;
    }
    const double d = kind_ == TypeKind::kDouble ? d_ : other.d_;
    const int64_t i = kind_ == TypeKind::kDouble ? other.i_ : i_;
    int64_t as_int = 0;
    return DoubleIsExactInt64(d, &as_int) && as_int == i;
  }
  return false;
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (kind_ == TypeKind::kString && other.kind_ == TypeKind::kString) {
    return s_.compare(other.s_);
  }
  if (IsNumericLike(kind_) && IsNumericLike(other.kind_)) {
    // Compare exactly when both are integral to avoid double rounding.
    if (kind_ != TypeKind::kDouble && other.kind_ != TypeKind::kDouble) {
      return i_ < other.i_ ? -1 : (i_ > other.i_ ? 1 : 0);
    }
    // NaN sorts after every other numeric and ties only with NaN; without
    // this, NaN "equal to everything" breaks std::sort's strict weak
    // ordering and MIN/MAX.
    const bool a_nan = kind_ == TypeKind::kDouble && std::isnan(d_);
    const bool b_nan = other.kind_ == TypeKind::kDouble && std::isnan(other.d_);
    if (a_nan || b_nan) {
      if (a_nan && b_nan) return 0;
      return a_nan ? 1 : -1;
    }
    if (kind_ == TypeKind::kDouble && other.kind_ == TypeKind::kDouble) {
      return d_ < other.d_ ? -1 : (d_ > other.d_ ? 1 : 0);
    }
    // Mixed BIGINT/DOUBLE: exact comparison, consistent with operator==.
    if (kind_ == TypeKind::kDouble) return -CompareInt64Double(other.i_, d_);
    return CompareInt64Double(i_, other.d_);
  }
  // Mixed string/numeric: numerics sort before strings.
  return kind_ == TypeKind::kString ? 1 : -1;
}

uint64_t Value::Hash() const {
  switch (kind_) {
    case TypeKind::kNull:
      return 0x9ae16a3b2f90404fULL;
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return HashInt64(i_);
    case TypeKind::kDouble:
      return HashDoubleKey(d_);
    case TypeKind::kString:
      return HashBytes(s_);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind_) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return i_ != 0 ? "true" : "false";
    case TypeKind::kInt64:
      return std::to_string(i_);
    case TypeKind::kDouble:
      return FormatDouble(d_, 4);
    case TypeKind::kString:
      return s_;
    case TypeKind::kDate:
      return FormatDate(i_);
  }
  return "?";
}

}  // namespace shark
