#include "sql/stats/table_stats.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "columnar/table_partition.h"
#include "common/logging.h"

namespace shark {

bool ValueAsNumeric(const Value& v, double* out) {
  switch (v.kind()) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      *out = static_cast<double>(v.int64_v());
      return true;
    case TypeKind::kDouble:
      // NaN has no place on a number line; keep it out of range stats.
      if (std::isnan(v.double_v())) return false;
      *out = v.double_v();
      return true;
    default:
      return false;
  }
}

double ColumnStatistics::EqualitySelectivity(const Value& v) const {
  if (row_count <= 0) return 1.0;
  if (v.is_null()) return 0.0;  // col = NULL never matches
  uint64_t lb = heavy.LowerBound(KeyHash(v));
  if (lb > 0) {
    return std::min(1.0, static_cast<double>(lb) / row_count);
  }
  double nonnull = NonNullCount();
  if (nonnull <= 0) return 0.0;
  if (heavy_exact) {
    // The sketch never evicted: every key that occurred is tracked, so an
    // absent key truly never occurred in the analyzed data. Don't claim an
    // outright zero — the data may have drifted since ANALYZE ran.
    return std::min(1.0, 0.5 / row_count);
  }
  // Skew-corrected uniform assumption over the non-heavy remainder.
  double rest_mass = std::max(nonnull - heavy_mass, 1.0);
  double rest_ndv =
      std::max(ndv - static_cast<double>(heavy.size()), 1.0);
  return std::clamp(rest_mass / rest_ndv / row_count, 0.0, 1.0);
}

double ColumnStatistics::RangeSelectivity(bool has_lo, double lo, bool has_hi,
                                          double hi) const {
  if (row_count <= 0) return 1.0;
  double nonnull = NonNullCount();
  if (nonnull <= 0) return 0.0;
  if (histogram.total_count() > 0) {
    double effective_lo = has_lo ? lo : histogram.min();
    double effective_hi = has_hi ? hi : histogram.max();
    double matched = histogram.EstimateRangeCount(effective_lo, effective_hi);
    double frac = matched / static_cast<double>(histogram.total_count());
    return std::clamp(frac * (nonnull / row_count), 0.0, 1.0);
  }
  if (has_range && has_lo && has_hi && max_value > min_value) {
    // Linear interpolation over the known domain (no histogram yet).
    double overlap = std::max(
        0.0, std::min(hi, max_value) - std::max(lo, min_value));
    return std::clamp(overlap / (max_value - min_value) *
                          (nonnull / row_count),
                      0.0, 1.0);
  }
  // One-sided or unknown domain: the textbook 1/3 default.
  return 1.0 / 3.0;
}

void ColumnStatistics::Finalize() {
  heavy_mass = 0;
  for (const HeavyHitters::Entry& e : heavy.TopK(heavy.capacity())) {
    heavy_mass += static_cast<double>(e.count);
  }
  // If the tracked entries' mass accounts for every non-null value and the
  // sketch is not full, nothing was ever evicted: counts are exact.
  heavy_exact = heavy.size() < heavy.capacity();
}

namespace {

/// The per-value update of one column's sketches: row count, NULLs, KMV,
/// heavy hitters over the key hash, histogram and range for numbers, width
/// for strings. Hashes and numeric projections match Value::Hash and
/// ValueAsNumeric, so a typed payload and its Value update alike.
class ColumnSketcher {
 public:
  ColumnSketcher(ColumnStatistics* st, DistinctSketch* ndv)
      : st_(*st), ndv_(*ndv) {}

  void AddValue(const Value& v) {
    switch (v.kind()) {
      case TypeKind::kNull:
        st_.row_count += 1;
        st_.null_count += 1;
        return;
      case TypeKind::kBool:
      case TypeKind::kInt64:
      case TypeKind::kDate:
        AddInt64(v.int64_v());
        return;
      case TypeKind::kDouble:
        AddDouble(v.double_v());
        return;
      case TypeKind::kString:
        AddString(v.str());
        return;
    }
  }

  void AddInt64(int64_t v) {
    AddKey(HashInt64(v));
    AddNumber(static_cast<double>(v));
  }

  void AddDouble(double v) {
    AddKey(HashDoubleKey(v));
    // NaN has no place on a number line; keep it out of range stats.
    if (!std::isnan(v)) AddNumber(v);
  }

  void AddString(std::string_view s) {
    AddKey(HashBytes(s));
    st_.avg_width =
        (st_.avg_width + static_cast<double>(s.size()) + 16.0) / 2.0;
  }

 private:
  void AddKey(uint64_t hash) {
    st_.row_count += 1;
    ndv_.AddHash(hash);
    st_.heavy.Add(hash);
  }

  void AddNumber(double num) {
    st_.histogram.Add(num);
    if (!st_.has_range || num < st_.min_value) st_.min_value = num;
    if (!st_.has_range || num > st_.max_value) st_.max_value = num;
    st_.has_range = true;
  }

  ColumnStatistics& st_;
  DistinctSketch& ndv_;
};

}  // namespace

PartitionSketch::PartitionSketch(const Schema& schema) { Prepare(schema); }

void PartitionSketch::Prepare(const Schema& schema) {
  size_t ncols = static_cast<size_t>(schema.num_fields());
  if (columns.size() == ncols) return;
  columns.assign(ncols, ColumnStatistics{});
  ndv.assign(ncols, DistinctSketch(1024));
  for (size_t c = 0; c < ncols; ++c) {
    columns[c].type = schema.field(static_cast<int>(c)).type;
  }
}

void PartitionSketch::AddRows(const Schema& schema,
                              const std::vector<Row>& rows) {
  Prepare(schema);
  for (const Row& row : rows) {
    row_count += 1;
    total_bytes += static_cast<double>(ApproxSizeOf(row));
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    ColumnSketcher sketcher(&columns[c], &ndv[c]);
    for (const Row& row : rows) {
      if (c < row.fields.size()) sketcher.AddValue(row.fields[c]);
    }
    ndv[c].Seal();
  }
}

void PartitionSketch::AddPartition(const Schema& schema,
                                   const TablePartition& part) {
  Prepare(schema);
  SHARK_CHECK(static_cast<size_t>(part.num_columns()) == columns.size());
  const size_t n = part.num_rows();
  row_count += static_cast<double>(n);
  // ApproxSizeOf(Row) per row, summed exactly in integers: 24 bytes of row
  // header plus ApproxSizeOf(Value) per cell.
  uint64_t bytes = 24 * n;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string_view> strs;
  std::vector<Value> values;
  for (size_t c = 0; c < columns.size(); ++c) {
    const ColumnChunk& chunk = part.column(static_cast<int>(c));
    ColumnSketcher sketcher(&columns[c], &ndv[c]);
    ints.clear();
    doubles.clear();
    strs.clear();
    values.clear();
    if (chunk.DecodeInt64s(&ints)) {
      for (int64_t v : ints) sketcher.AddInt64(v);
      bytes += 16 * n;
    } else if (chunk.DecodeDoubles(&doubles)) {
      for (double v : doubles) sketcher.AddDouble(v);
      bytes += 16 * n;
    } else if (chunk.DecodeStringViews(&strs)) {
      for (std::string_view v : strs) {
        sketcher.AddString(v);
        bytes += 16 + v.size();
      }
    } else {
      chunk.Decode(&values);
      for (const Value& v : values) {
        sketcher.AddValue(v);
        bytes += ApproxSizeOf(v);
      }
    }
    ndv[c].Seal();
  }
  total_bytes += static_cast<double>(bytes);
}

void PartitionSketch::Merge(const PartitionSketch& other) {
  if (columns.empty()) {
    *this = other;
    return;
  }
  row_count += other.row_count;
  total_bytes += other.total_bytes;
  for (size_t c = 0; c < columns.size() && c < other.columns.size(); ++c) {
    ColumnStatistics& st = columns[c];
    const ColumnStatistics& os = other.columns[c];
    st.row_count += os.row_count;
    st.null_count += os.null_count;
    st.histogram.Merge(os.histogram);
    st.heavy.Merge(os.heavy);
    ndv[c].Merge(other.ndv[c]);
    if (os.has_range) {
      if (!st.has_range || os.min_value < st.min_value) {
        st.min_value = os.min_value;
      }
      if (!st.has_range || os.max_value > st.max_value) {
        st.max_value = os.max_value;
      }
      st.has_range = true;
    }
    st.avg_width = std::max(st.avg_width, os.avg_width);
  }
}

TableStatistics PartitionSketch::Finish() const {
  TableStatistics out;
  out.row_count = row_count;
  out.total_bytes = total_bytes;
  out.columns = columns;
  for (size_t c = 0; c < out.columns.size(); ++c) {
    out.columns[c].ndv = ndv[c].Estimate();
    out.columns[c].Finalize();
  }
  return out;
}

TableStatistics BuildStatisticsFromRows(const Schema& schema,
                                        const std::vector<Row>& rows) {
  PartitionSketch sketch;
  sketch.AddRows(schema, rows);
  return sketch.Finish();
}

}  // namespace shark
