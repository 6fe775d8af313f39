// The columnar top-k map task (vec::BuildVecTopK) against the row path it
// replaces: BuildVecScanProject building every projected Row, then SortRows
// ordering them and keeping the first `limit`. For randomized cached
// partitions under the Shark and Hadoop profiles, the emitted rows (in
// order, bit for bit), every charge, the memory-operation log and the
// spills under a small budget must be equal.

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/table_partition.h"
#include "exec/vectorized/vec_exec.h"
#include "rdd/context.h"
#include "sql/expr_compiler.h"
#include "sql/parser.h"

namespace shark {
namespace {

using Programs = std::shared_ptr<const std::vector<CompiledExpr>>;

Schema InputSchema() {
  return Schema({{"c0", TypeKind::kInt64},
                 {"c1", TypeKind::kDouble},
                 {"c2", TypeKind::kString},
                 {"c3", TypeKind::kInt64},
                 {"c4", TypeKind::kDate}});
}

/// One partition's rows. Partition `p % 3` picks the string column's chunk:
/// 0 repeats a few values (dictionary), 1 makes every value unique (plain),
/// 2 adds NULLs everywhere (generic chunks). Doubles mix NULL, NaN, +0.0,
/// -0.0 and integral values that tie BIGINT keys.
std::vector<Row> PartitionRows(uint64_t seed, int p, int n) {
  std::mt19937_64 rng(seed * 131 + static_cast<uint64_t>(p));
  auto pick = [&](int m) {
    return static_cast<int>(rng() % static_cast<uint64_t>(m));
  };
  const bool nulls = p % 3 == 2;
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row r;
    r.fields.push_back(nulls && pick(6) == 0 ? Value::Null()
                                             : Value::Int64(pick(9) - 3));
    const int d = pick(10);
    r.fields.push_back(nulls && d == 0   ? Value::Null()
                       : d == 1          ? Value::Double(std::nan(""))
                       : d == 2          ? Value::Double(-0.0)
                       : d == 3          ? Value::Double(0.0)
                       : d < 7           ? Value::Double(pick(5) - 2)
                                         : Value::Double(pick(40) / 8.0));
    std::string s;
    if (p % 3 == 0) {
      s = pick(2) == 0 ? "b" : "a-long-string-beyond-the-small-buffer";
      s += std::to_string(pick(3));
    } else {
      s = "s" + std::to_string(pick(4)) + "-" + std::to_string(i);
    }
    r.fields.push_back(nulls && pick(5) == 0 ? Value::Null()
                                             : Value::String(std::move(s)));
    r.fields.push_back(Value::Int64(pick(5) - 2));
    r.fields.push_back(Value::Date(10000 + pick(30)));
    rows.push_back(std::move(r));
  }
  return rows;
}

/// Parses `text` and binds `prefix`<k> column references to slot k.
CompiledExpr CompileOver(const std::string& text, char prefix,
                         const std::vector<Field>& fields) {
  auto parsed = ParseExpression(text);
  EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
  std::function<void(Expr*)> bind = [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      EXPECT_EQ(e->name[0], prefix) << text;
      const int slot = std::stoi(e->name.substr(1));
      e->kind = ExprKind::kSlot;
      e->slot = slot;
      e->type = fields[static_cast<size_t>(slot)].type;
    }
    for (auto& ch : e->children) bind(ch.get());
  };
  bind(parsed->get());
  ExprCompiler compiler(nullptr);
  auto compiled = compiler.Compile(**parsed);
  EXPECT_TRUE(compiled.ok()) << text;
  return std::move(*compiled);
}

/// Bitwise cell equality: -0.0 differs from +0.0, NaN equals NaN, so a row
/// picked differently among ties shows up.
bool SameCell(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case TypeKind::kNull:
      return true;
    case TypeKind::kDouble:
      return std::bit_cast<uint64_t>(a.double_v()) ==
             std::bit_cast<uint64_t>(b.double_v());
    case TypeKind::kString:
      return a.str() == b.str();
    default:
      return a.int64_v() == b.int64_v();
  }
}

struct Case {
  const char* name;
  std::vector<std::string> projects;  // over the table's c<k> columns
  std::vector<std::string> keys;      // over the projection's p<k> slots
  std::vector<bool> ascending;
  int64_t limit;
  const char* predicate;  // over c<k>; nullptr: unfiltered
  int partitions;         // in the one task
  int rows;               // per partition
  uint64_t budget;
};

// Printed as its name, which becomes the case's name in ctest.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class TopKChargeTest : public ::testing::TestWithParam<Case> {};

TEST_P(TopKChargeTest, MatchesScanProjectThenSort) {
  const Case& c = GetParam();
  const Schema schema = InputSchema();
  std::vector<TablePartitionPtr> parts;
  for (int p = 0; p < c.partitions; ++p) {
    parts.push_back(TablePartition::FromRows(schema, PartitionRows(7, p, c.rows)));
  }
  std::vector<CompiledExpr> projects;
  std::vector<Field> projected;
  for (const std::string& e : c.projects) {
    projects.push_back(CompileOver(e, 'c', schema.fields()));
    // Key slots take their type from the select item they name; a computed
    // item's type only matters to the binder, not to evaluation.
    const bool column = e.size() == 2 && e[0] == 'c';
    projected.push_back(
        {e, column ? schema.fields()[static_cast<size_t>(e[1] - '0')].type
                   : TypeKind::kNull});
  }
  std::vector<CompiledExpr> keys;
  for (const std::string& e : c.keys) {
    keys.push_back(CompileOver(e, 'p', projected));
  }
  const Programs project_programs =
      std::make_shared<const std::vector<CompiledExpr>>(std::move(projects));
  const vec::SortSpec spec{
      std::make_shared<const std::vector<CompiledExpr>>(std::move(keys)),
      std::make_shared<const std::vector<bool>>(c.ascending), c.limit};
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  for (const EngineProfile& profile :
       {EngineProfile::Shark(), EngineProfile::Hadoop()}) {
    cfg.profile = profile;
    ClusterContext ctx(cfg);
    vec::VecScan scan;
    scan.base = ctx.Parallelize(parts, 1);
    scan.schema = std::make_shared<const Schema>(schema);
    scan.needed = std::make_shared<const std::vector<int>>(
        std::vector<int>{0, 1, 2, 3, 4});
    scan.table = "t";
    if (c.predicate != nullptr) {
      scan.predicate = std::make_shared<const CompiledExpr>(
          CompileOver(c.predicate, 'c', schema.fields()));
    }
    const uint64_t extra = 1;  // as if one select item called a UDF
    TaskContext ref_task(0, &ctx.profile(), nullptr, nullptr, nullptr, 1.0, 0,
                         c.budget);
    TaskContext new_task(0, &ctx.profile(), nullptr, nullptr, nullptr, 1.0, 0,
                         c.budget);
    const auto projected_rows =
        vec::BuildVecScanProject(scan, project_programs, extra)
            ->Compute(0, &ref_task);
    const std::vector<Row> want = vec::SortRows(projected_rows, spec, &ref_task);
    const std::vector<Row> got =
        vec::BuildVecTopK(scan, project_programs, extra, spec)
            ->Compute(0, &new_task);

    const TaskWork& x = ref_task.work();
    const TaskWork& y = new_task.work();
    EXPECT_EQ(x.rows_processed, y.rows_processed);
    EXPECT_EQ(x.mem_read_bytes, y.mem_read_bytes);
    EXPECT_EQ(x.net_read_bytes, y.net_read_bytes);
    EXPECT_EQ(x.hash_records, y.hash_records);
    EXPECT_EQ(x.sort_records, y.sort_records);
    EXPECT_EQ(x.ser_bytes, y.ser_bytes);
    EXPECT_EQ(x.disk_write_bytes, y.disk_write_bytes);
    EXPECT_EQ(x.disk_read_bytes, y.disk_read_bytes);
    EXPECT_EQ(x.disk_seeks, y.disk_seeks);
    EXPECT_EQ(ref_task.spill_bytes(), new_task.spill_bytes());
    EXPECT_EQ(ref_task.spill_partitions(), new_task.spill_partitions());
    if (c.budget < 1'000'000 && !projected_rows.empty()) {
      EXPECT_GT(new_task.spill_partitions(), 0u);  // the case spills
    }
    const std::vector<MemOp> ref_log = ref_task.TakeMemLog();
    const std::vector<MemOp> new_log = new_task.TakeMemLog();
    ASSERT_EQ(ref_log.size(), new_log.size());
    for (size_t i = 0; i < ref_log.size(); ++i) {
      EXPECT_EQ(ref_log[i].kind, new_log[i].kind) << "mem op " << i;
      EXPECT_EQ(ref_log[i].bytes, new_log[i].bytes) << "mem op " << i;
      EXPECT_EQ(ref_log[i].granted, new_log[i].granted) << "mem op " << i;
      EXPECT_EQ(ref_log[i].spill_partitions, new_log[i].spill_partitions)
          << "mem op " << i;
    }
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].fields.size(), want[i].fields.size());
      for (size_t f = 0; f < want[i].fields.size(); ++f) {
        EXPECT_TRUE(SameCell(got[i].fields[f], want[i].fields[f]))
            << "row " << i << ": " << got[i].ToString() << " vs "
            << want[i].ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopKChargeTest,
    ::testing::Values(
        // Two keys in opposite directions, ties on both.
        Case{"MultiKeyAscDesc", {"c0", "c1", "c2"}, {"p1", "p0"},
             {false, true}, 17, nullptr, 3, 300, ~0ULL},
        // NULL, NaN, +0.0 and -0.0 double keys: ties break on input order.
        Case{"NullNanZeroKeys", {"c1", "c3"}, {"p0"}, {true}, 40, nullptr, 3,
             200, ~0ULL},
        // One key column mixing BIGINT and DOUBLE cells (exact comparison).
        Case{"BigintVsDouble",
             {"CASE WHEN c0 > 0 THEN c3 ELSE c1 END", "c2"}, {"p0", "p1"},
             {false, true}, 30, nullptr, 3, 200, ~0ULL},
        // String keys over dictionary, plain and generic chunks.
        Case{"StringKeys", {"c2", "c0", "c4"}, {"p0", "p1"}, {true, false},
             25, nullptr, 3, 250, ~0ULL},
        // Expression keys over computed select items.
        Case{"ExpressionKeys", {"c0 * 2 - c3", "SUBSTR(c2, 1, 2)", "c1"},
             {"p0 + p2", "p1"}, {false, true}, 12, nullptr, 3, 300, ~0ULL},
        Case{"LimitZero", {"c0", "c2"}, {"p0"}, {true}, 0, nullptr, 2, 100,
             ~0ULL},
        Case{"LimitAboveRows", {"c1", "c2", "c0"}, {"p0", "p2"},
             {false, false}, 100000, "c0 <> 1", 3, 150, ~0ULL},
        Case{"FilterKeepsNone", {"c0", "c2"}, {"p0"}, {true}, 5,
             "c0 > 1000", 3, 100, ~0ULL},
        // A sort buffer past a small budget spills to sorted runs.
        Case{"FilteredSpill", {"c2", "c1", "c0"}, {"p1", "p0"},
             {true, false}, 20, "c3 >= 0", 4, 400, 4096}));

}  // namespace
}  // namespace shark
