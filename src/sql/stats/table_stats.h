#ifndef SHARK_SQL_STATS_TABLE_STATS_H_
#define SHARK_SQL_STATS_TABLE_STATS_H_

#include <memory>
#include <vector>

#include "common/cardinality.h"
#include "common/heavy_hitters.h"
#include "common/histogram.h"
#include "relation/row.h"
#include "relation/types.h"
#include "relation/value.h"

namespace shark {

/// Per-column statistics collected by ANALYZE TABLE: row/null counts, an NDV
/// sketch, a numeric range, an approximate histogram (equi-depth bounds are
/// derived from it via quantiles) and a heavy-hitter sketch over key hashes.
/// All sketches are mergeable, so per-partition collection composes at the
/// master exactly like PDE's per-task statistics do.
struct ColumnStatistics {
  TypeKind type = TypeKind::kNull;
  double row_count = 0;   // values seen, including NULLs
  double null_count = 0;
  double ndv = 0;         // estimated distinct non-null values

  // Numeric domain (BIGINT/DOUBLE/DATE/BOOLEAN as doubles); strings have no
  // range and fall back to default range selectivities.
  bool has_range = false;
  double min_value = 0;
  double max_value = 0;

  ApproxHistogram histogram{64};   // non-null numeric values
  HeavyHitters heavy{64};          // KeyHash(value) frequencies

  // Cached from `heavy` by Finalize(): total mass of tracked entries and
  // whether the sketch never evicted (counts are exact, absences are real).
  double heavy_mass = 0;
  bool heavy_exact = true;

  double avg_width = 8;   // bytes per value (row layout, not encoded)

  double NullFraction() const {
    return row_count > 0 ? null_count / row_count : 0.0;
  }
  double NonNullCount() const { return row_count - null_count; }

  /// Selectivity of `col = v` among all rows (NULLs never match).
  double EqualitySelectivity(const Value& v) const;

  /// Selectivity of `lo <= col <= hi` (open ends via has_lo/has_hi) among
  /// all rows, from the histogram when available.
  double RangeSelectivity(bool has_lo, double lo, bool has_hi,
                          double hi) const;

  /// Recomputes the cached heavy-hitter summary; call after merges.
  void Finalize();
};

/// Table-level statistics persisted in the catalog by ANALYZE TABLE.
struct TableStatistics {
  double row_count = 0;
  double total_bytes = 0;   // in-row-layout bytes (real, unscaled)
  std::vector<ColumnStatistics> columns;

  double AvgRowBytes() const {
    return row_count > 0 ? total_bytes / row_count : 0.0;
  }
};

class TablePartition;

/// Mergeable per-partition sketch state: what each ANALYZE task computes
/// over its partition and ships to the master. Every column's sketches are
/// independent, so feeding values column by column gives each column the
/// same update sequence that row order gives; both Add paths run one
/// per-value kernel. The KMV sketches are sealed when an Add or Merge
/// returns, so a sketch is always ready to ship or Finish.
struct PartitionSketch {
  double row_count = 0;
  double total_bytes = 0;
  std::vector<ColumnStatistics> columns;
  std::vector<DistinctSketch> ndv;   // parallel to columns

  PartitionSketch() = default;
  /// An empty sketch with typed columns (what zero rows analyze to).
  explicit PartitionSketch(const Schema& schema);

  /// Folds `rows` into the sketch (first call sizes the column vectors).
  void AddRows(const Schema& schema, const std::vector<Row>& rows);
  /// Folds a columnar partition into the sketch, reading each ColumnChunk
  /// once through its typed decode (Values for kGeneric chunks). Same
  /// result as AddRows over `part.ToRows(nullptr)`.
  void AddPartition(const Schema& schema, const TablePartition& part);
  /// Merges another partition's sketch into this one.
  void Merge(const PartitionSketch& other);
  /// Resolves NDV estimates and heavy-hitter caches into a TableStatistics.
  TableStatistics Finish() const;

 private:
  /// Sizes and types the column vectors unless they already fit `schema`.
  void Prepare(const Schema& schema);
};

inline uint64_t ApproxSizeOf(const std::shared_ptr<PartitionSketch>&) {
  // Fixed sketch budget: 64-bucket histogram + 64-entry heavy hitters +
  // 1024-hash KMV per column; call it ~20KB per column, dwarfed by data.
  return 20 * 1024;
}

/// Builds complete statistics from in-memory rows in one pass — the seam the
/// estimator tests and the stale-statistics benchmark use (the distributed
/// ANALYZE path produces the same result via per-partition merges).
TableStatistics BuildStatisticsFromRows(const Schema& schema,
                                        const std::vector<Row>& rows);

/// Numeric projection of a value for histogram/range purposes. Returns false
/// for NULLs and strings (no numeric domain).
bool ValueAsNumeric(const Value& v, double* out);

}  // namespace shark

#endif  // SHARK_SQL_STATS_TABLE_STATS_H_
