#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "columnar/table_partition.h"
#include "common/cardinality.h"
#include "sql/session.h"
#include "sql/stats/cardinality_estimator.h"
#include "sql/stats/table_stats.h"

namespace shark {
namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// KMV distinct sketch
// ---------------------------------------------------------------------------

TEST(DistinctSketchTest, ExactBelowK) {
  DistinctSketch s(1024);
  for (uint64_t i = 0; i < 800; ++i) s.AddHash(Mix64(i));
  s.Seal();
  EXPECT_TRUE(s.exact());
  EXPECT_DOUBLE_EQ(s.Estimate(), 800.0);
}

TEST(DistinctSketchTest, ErrorBoundAboveK) {
  // KMV with k=1024 has relative standard error ~ 1/sqrt(k-2) ~ 3.1%; allow
  // four sigma.
  for (uint64_t n : {10000ULL, 100000ULL}) {
    DistinctSketch s(1024);
    for (uint64_t i = 0; i < n; ++i) s.AddHash(Mix64(i));
    s.Seal();
    EXPECT_FALSE(s.exact());
    double est = s.Estimate();
    EXPECT_NEAR(est, static_cast<double>(n), 0.125 * static_cast<double>(n))
        << "n=" << n;
  }
}

TEST(DistinctSketchTest, DuplicatesDoNotInflate) {
  DistinctSketch s(256);
  for (uint64_t pass = 0; pass < 5; ++pass) {
    for (uint64_t i = 0; i < 100; ++i) s.AddHash(Mix64(i));
  }
  s.Seal();
  EXPECT_DOUBLE_EQ(s.Estimate(), 100.0);
}

TEST(DistinctSketchTest, MergeMatchesUnion) {
  DistinctSketch a(1024), b(1024), whole(1024);
  for (uint64_t i = 0; i < 30000; ++i) {
    uint64_t h = Mix64(i);
    whole.AddHash(h);
    (i % 2 == 0 ? a : b).AddHash(h);
  }
  a.Merge(b);
  whole.Seal();
  EXPECT_DOUBLE_EQ(a.Estimate(), whole.Estimate());
}

/// Reference KMV: a std::set holding the k smallest distinct hashes.
class ShadowKmv {
 public:
  explicit ShadowKmv(size_t k) : k_(k) {}

  void Add(uint64_t h) {
    mins_.insert(h);
    if (mins_.size() > k_) mins_.erase(std::prev(mins_.end()));
  }

  bool exact() const { return mins_.size() < k_; }
  double Estimate() const {
    if (exact()) return static_cast<double>(mins_.size());
    double r = (static_cast<double>(*mins_.rbegin()) + 1.0) /
               18446744073709551616.0;
    return (static_cast<double>(k_) - 1.0) / r;
  }

 private:
  size_t k_;
  std::set<uint64_t> mins_;
};

void ExpectSameKmv(const DistinctSketch& s, const ShadowKmv& shadow,
                   const std::string& where) {
  EXPECT_EQ(s.exact(), shadow.exact()) << where;
  EXPECT_EQ(s.Estimate(), shadow.Estimate()) << where;
}

TEST(DistinctSketchTest, MatchesShadowSetAroundK) {
  const size_t k = 16;
  // Distinct counts just below, at and just above k, each stream full of
  // duplicates and holding the extreme hashes 0 and UINT64_MAX.
  for (size_t distinct : {k - 1, k, k + 1, 5 * k}) {
    for (uint32_t seed = 1; seed <= 5; ++seed) {
      std::mt19937_64 rng(seed);
      std::vector<uint64_t> pool{0, UINT64_MAX};
      while (pool.size() < distinct) pool.push_back(Mix64(rng()));
      std::vector<uint64_t> stream;
      for (int i = 0; i < 400; ++i) stream.push_back(pool[rng() % pool.size()]);
      stream.insert(stream.end(), pool.begin(), pool.end());
      std::shuffle(stream.begin(), stream.end(), rng);

      DistinctSketch whole(k), a(k), b(k);
      ShadowKmv shadow(k);
      for (size_t i = 0; i < stream.size(); ++i) {
        whole.AddHash(stream[i]);
        shadow.Add(stream[i]);
        (i % 3 == 0 ? a : b).AddHash(stream[i]);
      }
      std::string where = "distinct " + std::to_string(distinct) + " seed " +
                          std::to_string(seed);
      whole.Seal();
      ExpectSameKmv(whole, shadow, where + " whole");
      EXPECT_EQ(whole.exact(), distinct < k) << where;
      if (distinct < k) {
        EXPECT_EQ(whole.Estimate(), static_cast<double>(distinct)) << where;
      }

      // Merge in both orders, from sealed and unsealed inputs.
      DistinctSketch ab = a;
      ab.Merge(b);
      ExpectSameKmv(ab, shadow, where + " a+b");
      DistinctSketch ba = b;
      ba.Merge(a);
      ExpectSameKmv(ba, shadow, where + " b+a");
      a.Seal();
      b.Seal();
      DistinctSketch sealed_ab = a;
      sealed_ab.Merge(b);
      ExpectSameKmv(sealed_ab, shadow, where + " sealed a+b");
    }
  }
}

TEST(DistinctSketchTest, LargeStreamMatchesShadowSet) {
  // Past 2k hashes the buffer compacts repeatedly; the k-th minimum only
  // tightens, so every checkpoint still equals the reference.
  DistinctSketch s(1024);
  ShadowKmv shadow(1024);
  std::mt19937_64 rng(9);
  for (int i = 1; i <= 50000; ++i) {
    uint64_t h = Mix64(rng() % 20000);
    s.AddHash(h);
    shadow.Add(h);
    if (i % 12500 == 0) {
      s.Seal();
      ExpectSameKmv(s, shadow, "after " + std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Column statistics built from rows
// ---------------------------------------------------------------------------

std::vector<Row> UniformRows(int n, int domain, std::mt19937* rng) {
  std::uniform_int_distribution<int> d(0, domain - 1);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({Value::Int64(d(*rng))}));
  }
  return rows;
}

TEST(TableStatisticsTest, HistogramRangeSelectivityTracksExactCounts) {
  std::mt19937 rng(7);
  Schema schema({{"v", TypeKind::kInt64}});
  std::vector<Row> rows = UniformRows(20000, 1000, &rng);
  TableStatistics stats = BuildStatisticsFromRows(schema, rows);
  ASSERT_EQ(stats.columns.size(), 1u);
  const ColumnStatistics& col = stats.columns[0];
  EXPECT_DOUBLE_EQ(stats.row_count, 20000.0);
  EXPECT_TRUE(col.has_range);

  struct Range {
    double lo, hi;
  };
  for (const Range& r : {Range{0, 99}, Range{250, 749}, Range{900, 999}}) {
    double exact = 0;
    for (const Row& row : rows) {
      double v = static_cast<double>(row.fields[0].AsInt64());
      if (v >= r.lo && v <= r.hi) exact += 1;
    }
    double est =
        col.RangeSelectivity(true, r.lo, true, r.hi) * stats.row_count;
    // Equi-depth histogram over a uniform domain: within 20% + a small
    // absolute slack for bucket-boundary rounding.
    EXPECT_NEAR(est, exact, 0.2 * exact + 200.0)
        << "range [" << r.lo << "," << r.hi << "]";
  }
}

TEST(TableStatisticsTest, EqualityUsesHeavyHittersForSkew) {
  // 5000 rows of value 1, one row each of 2..1001: a heavy hitter must not
  // be estimated at the average frequency.
  Schema schema({{"v", TypeKind::kInt64}});
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back(Row({Value::Int64(1)}));
  for (int i = 2; i <= 1001; ++i) rows.push_back(Row({Value::Int64(i)}));
  TableStatistics stats = BuildStatisticsFromRows(schema, rows);
  const ColumnStatistics& col = stats.columns[0];

  double hot = col.EqualitySelectivity(Value::Int64(1)) * stats.row_count;
  EXPECT_NEAR(hot, 5000.0, 500.0);
  double cold = col.EqualitySelectivity(Value::Int64(500)) * stats.row_count;
  EXPECT_LT(cold, 50.0);
}

TEST(TableStatisticsTest, NullFractionAndRange) {
  Schema schema({{"v", TypeKind::kDouble}});
  std::vector<Row> rows;
  for (int i = 0; i < 60; ++i) rows.push_back(Row({Value::Double(i * 0.5)}));
  for (int i = 0; i < 40; ++i) rows.push_back(Row({Value::Null()}));
  TableStatistics stats = BuildStatisticsFromRows(schema, rows);
  const ColumnStatistics& col = stats.columns[0];
  EXPECT_DOUBLE_EQ(col.NullFraction(), 0.4);
  EXPECT_TRUE(col.has_range);
  EXPECT_DOUBLE_EQ(col.min_value, 0.0);
  EXPECT_DOUBLE_EQ(col.max_value, 29.5);
  // NULLs never match an equality or range predicate.
  EXPECT_LE(col.EqualitySelectivity(Value::Double(1.0)), 0.6);
  EXPECT_LE(col.RangeSelectivity(true, 0.0, true, 1000.0), 0.6 + 1e-9);
}

TEST(TableStatisticsTest, PartitionSketchMergeMatchesSinglePass) {
  std::mt19937 rng(11);
  Schema schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kDouble}});
  std::vector<Row> rows;
  std::uniform_int_distribution<int> d(0, 499);
  for (int i = 0; i < 8000; ++i) {
    rows.push_back(Row({Value::Int64(d(rng)), Value::Double(d(rng) * 0.25)}));
  }

  PartitionSketch whole;
  whole.AddRows(schema, rows);

  // Same rows in four partitions, merged pairwise like the ANALYZE master.
  std::vector<PartitionSketch> parts(4);
  for (size_t p = 0; p < 4; ++p) {
    std::vector<Row> chunk(rows.begin() + static_cast<long>(p) * 2000,
                           rows.begin() + static_cast<long>(p + 1) * 2000);
    parts[p].AddRows(schema, chunk);
  }
  PartitionSketch merged = parts[0];
  for (size_t p = 1; p < 4; ++p) merged.Merge(parts[p]);

  TableStatistics sw = whole.Finish();
  TableStatistics sm = merged.Finish();
  EXPECT_DOUBLE_EQ(sm.row_count, sw.row_count);
  EXPECT_DOUBLE_EQ(sm.total_bytes, sw.total_bytes);
  ASSERT_EQ(sm.columns.size(), sw.columns.size());
  for (size_t c = 0; c < sm.columns.size(); ++c) {
    EXPECT_NEAR(sm.columns[c].ndv, sw.columns[c].ndv,
                0.05 * sw.columns[c].ndv + 1.0);
    EXPECT_DOUBLE_EQ(sm.columns[c].min_value, sw.columns[c].min_value);
    EXPECT_DOUBLE_EQ(sm.columns[c].max_value, sw.columns[c].max_value);
    // Range estimates from the merged histogram stay close to single-pass.
    double lo = sw.columns[c].min_value;
    double hi = (sw.columns[c].min_value + sw.columns[c].max_value) / 2;
    EXPECT_NEAR(sm.columns[c].RangeSelectivity(true, lo, true, hi),
                sw.columns[c].RangeSelectivity(true, lo, true, hi), 0.1);
  }
}

// ---------------------------------------------------------------------------
// Column path == row path
// ---------------------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void ExpectSameStatistics(const TableStatistics& got,
                          const TableStatistics& want) {
  EXPECT_TRUE(SameBits(got.row_count, want.row_count));
  EXPECT_TRUE(SameBits(got.total_bytes, want.total_bytes))
      << got.total_bytes << " vs " << want.total_bytes;
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t c = 0; c < got.columns.size(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const ColumnStatistics& g = got.columns[c];
    const ColumnStatistics& w = want.columns[c];
    EXPECT_EQ(g.type, w.type);
    EXPECT_TRUE(SameBits(g.row_count, w.row_count));
    EXPECT_TRUE(SameBits(g.null_count, w.null_count));
    EXPECT_TRUE(SameBits(g.ndv, w.ndv)) << g.ndv << " vs " << w.ndv;
    EXPECT_EQ(g.has_range, w.has_range);
    EXPECT_TRUE(SameBits(g.min_value, w.min_value));
    EXPECT_TRUE(SameBits(g.max_value, w.max_value));
    EXPECT_TRUE(SameBits(g.avg_width, w.avg_width));
    EXPECT_TRUE(SameBits(g.heavy_mass, w.heavy_mass));
    EXPECT_EQ(g.heavy_exact, w.heavy_exact);
    EXPECT_EQ(g.histogram.total_count(), w.histogram.total_count());
    for (int q = 0; q <= 20; ++q) {
      double p = q / 20.0;
      EXPECT_TRUE(SameBits(g.histogram.EstimateQuantile(p),
                           w.histogram.EstimateQuantile(p)))
          << "quantile " << p;
    }
    EXPECT_EQ(g.heavy.total_count(), w.heavy.total_count());
    std::vector<HeavyHitters::Entry> gh = g.heavy.TopK(g.heavy.capacity());
    std::vector<HeavyHitters::Entry> wh = w.heavy.TopK(w.heavy.capacity());
    ASSERT_EQ(gh.size(), wh.size());
    for (size_t i = 0; i < gh.size(); ++i) {
      EXPECT_EQ(gh[i].key, wh[i].key) << "heavy entry " << i;
      EXPECT_EQ(gh[i].count, wh[i].count) << "heavy entry " << i;
      EXPECT_EQ(gh[i].error, wh[i].error) << "heavy entry " << i;
    }
  }
}

/// One column per encoding the memstore picks, over the fuzzer's nasty
/// values (NaN, +/-0.0, +/-Inf, BIGINTs past 2^53, empty strings), plus
/// NULL-bearing columns that fall back to kGeneric.
TEST(PartitionSketchTest, ColumnPathMatchesRowPathOnEveryEncoding) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const int64_t kTwo53 = int64_t{1} << 53;
  const double kNastyDoubles[] = {0.0,  -0.0, 1.0,   -1.0,  2.5,     kNan,
                                  kInf, -kInf, 9007199254740992.0,
                                  9007199254740994.0, 1e308, -1e308, 42.0};
  const int64_t kNastyInts[] = {0,
                                -1,
                                42,
                                kTwo53,
                                kTwo53 + 1,
                                -(kTwo53 + 1),
                                std::numeric_limits<int64_t>::max(),
                                std::numeric_limits<int64_t>::min()};
  const char* kStrings[] = {"", "a", "b", "ab", "it's", "42", "zzz"};

  Schema schema({{"i_plain", TypeKind::kInt64},
                 {"i_rle", TypeKind::kInt64},
                 {"i_bits", TypeKind::kInt64},
                 {"flag", TypeKind::kBool},
                 {"day", TypeKind::kDate},
                 {"d", TypeKind::kDouble},
                 {"s_plain", TypeKind::kString},
                 {"s_dict", TypeKind::kString},
                 {"g_double", TypeKind::kDouble},
                 {"g_int", TypeKind::kInt64},
                 {"g_string", TypeKind::kString}});
  const Encoding kExpected[] = {
      Encoding::kPlain,      Encoding::kRunLength, Encoding::kBitPacked,
      Encoding::kBitPacked,  Encoding::kBitPacked, Encoding::kPlain,
      Encoding::kPlain,      Encoding::kDictionary, Encoding::kGeneric,
      Encoding::kGeneric,    Encoding::kGeneric};

  std::mt19937_64 rng(17);
  auto pick = [&](const auto& pool) {
    return pool[rng() % (sizeof(pool) / sizeof(pool[0]))];
  };
  auto maybe_null = [&](Value v) {
    return rng() % 5 == 0 ? Value::Null() : std::move(v);
  };
  std::vector<Row> rows;
  const int kRows = 3000;
  for (int i = 0; i < kRows; ++i) {
    int64_t wide = rng() % 3 == 0 ? pick(kNastyInts)
                                  : static_cast<int64_t>(rng());
    double d = rng() % 3 == 0 ? pick(kNastyDoubles)
                              : static_cast<double>(rng() % 100000) / 8.0;
    std::string distinct_str =
        rng() % 10 == 0 ? std::string() : "s" + std::to_string(rng() % 100000);
    rows.push_back(Row({
        Value::Int64(wide),
        Value::Int64(i / 8),
        Value::Int64(static_cast<int64_t>(rng() % 2000) - 1000),
        Value::Bool(rng() % 3 == 0),
        Value::Date(18000 + static_cast<int64_t>(rng() % 400)),
        Value::Double(d),
        Value::String(distinct_str),
        Value::String(pick(kStrings)),
        maybe_null(Value::Double(pick(kNastyDoubles))),
        maybe_null(Value::Int64(pick(kNastyInts))),
        maybe_null(Value::String(pick(kStrings))),
    }));
  }

  // Three partitions of uneven size, all folded into one task's sketch.
  std::vector<TablePartitionPtr> parts;
  const size_t bounds[] = {0, 1100, 1600, static_cast<size_t>(kRows)};
  for (size_t p = 0; p + 1 < 4; ++p) {
    std::vector<Row> slice(rows.begin() + static_cast<long>(bounds[p]),
                           rows.begin() + static_cast<long>(bounds[p + 1]));
    parts.push_back(TablePartition::FromRows(schema, slice));
    for (int c = 0; c < schema.num_fields(); ++c) {
      EXPECT_EQ(parts.back()->column(c).encoding(),
                kExpected[static_cast<size_t>(c)])
          << "partition " << p << " column " << schema.field(c).name;
    }
  }
  PartitionSketch columnar(schema);
  for (const TablePartitionPtr& part : parts) {
    columnar.AddPartition(schema, *part);
  }
  ExpectSameStatistics(columnar.Finish(),
                       BuildStatisticsFromRows(schema, rows));

  // One partition per task, merged at the master like ANALYZE does.
  PartitionSketch merged_columnar;
  PartitionSketch merged_rows;
  for (size_t p = 0; p < parts.size(); ++p) {
    PartitionSketch from_part(schema);
    from_part.AddPartition(schema, *parts[p]);
    merged_columnar.Merge(from_part);
    PartitionSketch from_rows(schema);
    from_rows.AddRows(schema, parts[p]->ToRows(nullptr));
    merged_rows.Merge(from_rows);
  }
  ExpectSameStatistics(merged_columnar.Finish(), merged_rows.Finish());
}

// ---------------------------------------------------------------------------
// Estimator math
// ---------------------------------------------------------------------------

TEST(CardinalityEstimatorTest, ConjunctionBackoff) {
  // Sorted ascending: s0 * s1^(1/2) * s2^(1/4).
  double s = CardinalityEstimator::ConjunctionSelectivity({0.5, 0.1, 0.25});
  EXPECT_NEAR(s, 0.1 * std::sqrt(0.25) * std::pow(0.5, 0.25), 1e-12);
  EXPECT_DOUBLE_EQ(CardinalityEstimator::ConjunctionSelectivity({}), 1.0);
}

TEST(CardinalityEstimatorTest, GroupOutputSaturates) {
  EXPECT_NEAR(CardinalityEstimator::GroupOutputRows(1e9, 100.0), 100.0, 1e-3);
  // Few draws over a huge domain: roughly one group per row.
  EXPECT_NEAR(CardinalityEstimator::GroupOutputRows(10.0, 1e9), 10.0, 0.1);
}

TEST(CardinalityEstimatorTest, JoinCardinalityOnForeignKey) {
  // fact(k FK -> dim.k): 50000 fact rows, 1000 dim rows with unique keys.
  // Containment gives |fact| * |dim| / max(ndv) = |fact| matches.
  Schema dim_schema({{"k", TypeKind::kInt64}});
  std::vector<Row> dim_rows;
  for (int i = 0; i < 1000; ++i) dim_rows.push_back(Row({Value::Int64(i)}));
  TableStatistics dim = BuildStatisticsFromRows(dim_schema, dim_rows);

  std::mt19937 rng(3);
  Schema fact_schema({{"k", TypeKind::kInt64}});
  std::vector<Row> fact_rows = UniformRows(50000, 1000, &rng);
  TableStatistics fact = BuildStatisticsFromRows(fact_schema, fact_rows);

  SlotStats fs{&fact.columns[0], fact.row_count};
  SlotStats ds{&dim.columns[0], dim.row_count};
  double sel =
      CardinalityEstimator::JoinKeySelectivity(fs, ds, 50000.0, 1000.0);
  double est = 50000.0 * 1000.0 * sel;
  // Every fact row matches exactly one dim row: 50000 output rows.
  EXPECT_NEAR(est, 50000.0, 0.15 * 50000.0);
}

// ---------------------------------------------------------------------------
// ANALYZE TABLE end to end
// ---------------------------------------------------------------------------

class AnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig cfg;
    cfg.num_nodes = 4;
    session_ =
        std::make_unique<SharkSession>(std::make_shared<ClusterContext>(cfg));
    Schema schema({{"k", TypeKind::kInt64}, {"v", TypeKind::kDouble}});
    std::vector<Row> rows;
    for (int i = 0; i < 3000; ++i) {
      rows.push_back(Row({Value::Int64(i % 300), Value::Double(i * 1.5)}));
    }
    ASSERT_TRUE(session_->CreateDfsTable("t", schema, rows, 4).ok());
  }

  std::unique_ptr<SharkSession> session_;
};

TEST_F(AnalyzeTest, AnalyzePopulatesCatalogStatistics) {
  auto r = session_->Sql("ANALYZE TABLE t COMPUTE STATISTICS");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].fields[0].str(), "t");
  EXPECT_EQ(r->rows[0].fields[1].AsInt64(), 3000);
  EXPECT_GT(r->metrics.virtual_seconds, 0.0);  // charged like a query

  auto info = session_->catalog().Get("t");
  ASSERT_TRUE(info.ok());
  ASSERT_NE((*info)->column_statistics, nullptr);
  const TableStatistics& stats = *(*info)->column_statistics;
  EXPECT_DOUBLE_EQ(stats.row_count, 3000.0);
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_NEAR(stats.columns[0].ndv, 300.0, 15.0);
  EXPECT_NEAR(stats.columns[1].ndv, 3000.0, 150.0);
}

TEST_F(AnalyzeTest, AnalyzeWorksOnCachedTables) {
  ASSERT_TRUE(session_->CacheTable("t").ok());
  auto r = session_->Sql("ANALYZE TABLE t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto info = session_->catalog().Get("t");
  ASSERT_TRUE(info.ok());
  ASSERT_NE((*info)->column_statistics, nullptr);
  EXPECT_DOUBLE_EQ((*info)->column_statistics->row_count, 3000.0);
}

TEST_F(AnalyzeTest, AnalyzeUnknownTableFails) {
  EXPECT_FALSE(session_->Sql("ANALYZE TABLE nope").ok());
}

}  // namespace
}  // namespace shark
