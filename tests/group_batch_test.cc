// The group-by's flat shuffle payload (exec/vectorized/group_table.h) against
// the reference layout it replaces: the same groups combined as (key Row,
// AggState) pairs by CombiningShuffleDep and merged by ShuffledReduceRdd.
// Every bucket's bytes, records and cost scale, every map-task charge, the
// reduce table's bytes and the finalized answers must be equal, for
// randomized inputs over every aggregate function and key shape.

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/table_partition.h"
#include "exec/vectorized/column_batch.h"
#include "exec/vectorized/group_table.h"
#include "exec/vectorized/kernels.h"
#include "exec/vectorized/vec_exec.h"
#include "rdd/context.h"
#include "rdd/pair_rdd.h"
#include "sql/aggregates.h"
#include "sql/expr_compiler.h"

namespace shark {
namespace {

using Programs = std::shared_ptr<const std::vector<CompiledExpr>>;
using RefGroup = std::pair<Row, AggState>;

// Input columns: three key candidates, then three argument columns.
enum Col { kKeyInt, kKeyStr, kKeyDbl, kArgInt, kArgDbl, kArgStr };

Schema InputSchema() {
  return Schema({{"ki", TypeKind::kInt64},
                 {"ks", TypeKind::kString},
                 {"kd", TypeKind::kDouble},
                 {"vi", TypeKind::kInt64},
                 {"vd", TypeKind::kDouble},
                 {"vs", TypeKind::kString}});
}

/// Rows with NULL and NaN keys, +0.0 / -0.0, short and long (heap) strings,
/// NULL arguments and int64 values that wrap a SUM. `key_range` bounds the
/// distinct keys per column.
std::vector<Row> RandomRows(uint64_t seed, int n, int key_range) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int m) {
    return static_cast<int>(rng() % static_cast<uint64_t>(m));
  };
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row r;
    const int k = pick(key_range);
    r.fields.push_back(pick(10) == 0 ? Value::Null() : Value::Int64(k % 7));
    const std::string prefix = k % 2 == 0 ? "k" : "a-long-key-beyond-sso-";
    r.fields.push_back(pick(12) == 0
                           ? Value::Null()
                           : Value::String(prefix + std::to_string(k)));
    const double d = static_cast<double>(k % 5) - 2.0;
    if (pick(11) == 0) {
      r.fields.push_back(Value::Null());
    } else if (pick(9) == 0) {
      r.fields.push_back(Value::Double(std::nan("")));
    } else {
      r.fields.push_back(Value::Double(d == 0.0 && pick(2) == 0 ? -0.0 : d));
    }
    if (pick(6) == 0) {
      r.fields.push_back(Value::Null());
    } else if (pick(3) == 0) {
      r.fields.push_back(Value::Int64(INT64_MAX - pick(5)));  // SUM wraps
    } else {
      r.fields.push_back(Value::Int64(pick(1000) - 500));
    }
    r.fields.push_back(
        pick(6) == 0 ? Value::Null()
                     : Value::Double(static_cast<double>(pick(100000)) / 7.0));
    r.fields.push_back(
        pick(5) == 0 ? Value::Null()
                     : Value::String(std::string(
                           static_cast<size_t>(1 + pick(24)),
                           static_cast<char>('a' + pick(26)))));
    rows.push_back(std::move(r));
  }
  return rows;
}

AggCall Call(AggCall::Fn fn, std::vector<int> slots, TypeKind out) {
  Schema schema = InputSchema();
  AggCall call;
  call.fn = fn;
  for (int s : slots) {
    call.args.push_back(
        MakeSlot(s, schema.fields()[static_cast<size_t>(s)].type));
  }
  call.out_type = out;
  return call;
}

/// Every aggregate function, over every argument type it accepts.
std::vector<AggCall> AllCalls() {
  using F = AggCall::Fn;
  return {Call(F::kCountStar, {}, TypeKind::kInt64),
          Call(F::kCount, {kArgInt}, TypeKind::kInt64),
          Call(F::kCount, {kArgStr}, TypeKind::kInt64),
          Call(F::kCountDistinct, {kArgStr}, TypeKind::kInt64),
          Call(F::kCountDistinct, {kArgInt, kKeyStr}, TypeKind::kInt64),
          Call(F::kSum, {kArgInt}, TypeKind::kInt64),
          Call(F::kSum, {kArgDbl}, TypeKind::kDouble),
          Call(F::kAvg, {kArgInt}, TypeKind::kDouble),
          Call(F::kAvg, {kArgDbl}, TypeKind::kDouble),
          Call(F::kMin, {kArgStr}, TypeKind::kString),
          Call(F::kMax, {kArgStr}, TypeKind::kString),
          Call(F::kMin, {kArgDbl}, TypeKind::kDouble),
          Call(F::kMax, {kArgInt}, TypeKind::kInt64)};
}

/// A group-by's compiled key and argument programs plus its calls.
struct Shape {
  Programs keys;
  Programs args;
  std::shared_ptr<const std::vector<AggCall>> calls;
};

Shape MakeShape(const std::vector<int>& key_slots) {
  Schema schema = InputSchema();
  ExprCompiler compiler(nullptr);
  auto compile = [&](const ExprPtr& e) {
    auto p = compiler.Compile(*e);
    EXPECT_TRUE(p.ok());
    return *p;
  };
  std::vector<CompiledExpr> keys;
  for (int s : key_slots) {
    keys.push_back(
        compile(MakeSlot(s, schema.fields()[static_cast<size_t>(s)].type)));
  }
  auto calls = std::make_shared<const std::vector<AggCall>>(AllCalls());
  std::vector<CompiledExpr> args;
  for (const AggCall& call : *calls) {
    for (const ExprPtr& a : call.args) args.push_back(compile(a));
  }
  return {std::make_shared<const std::vector<CompiledExpr>>(std::move(keys)),
          std::make_shared<const std::vector<CompiledExpr>>(std::move(args)),
          calls};
}

Row KeyOf(const Shape& s, const Row& r) {
  Row key;
  for (const CompiledExpr& k : *s.keys) key.fields.push_back(k.Eval(r));
  return key;
}

void Accumulate(const Shape& s, const Row& r, AggState* state) {
  std::vector<Value> args;
  for (const CompiledExpr& a : *s.args) args.push_back(a.Eval(r));
  AccumulateArgs(*s.calls, &args, state);
}

/// The reference map side: CombiningShuffleDep over (key Row, row) pairs.
std::shared_ptr<CombiningShuffleDep<Row, Row, AggState>> ReferenceDep(
    ClusterContext* ctx, const Shape& s,
    const std::vector<std::pair<Row, Row>>& keyed, int buckets) {
  return std::make_shared<CombiningShuffleDep<Row, Row, AggState>>(
      ctx->Parallelize(keyed, 1), buckets,
      [s](const Row& r) {
        AggState state = InitAggState(*s.calls);
        Accumulate(s, r, &state);
        return state;
      },
      [s](AggState& state, const Row& r) { Accumulate(s, r, &state); });
}

void ExpectSameWork(const TaskContext& a, const TaskContext& b) {
  const TaskWork& x = a.work();
  const TaskWork& y = b.work();
  EXPECT_EQ(x.rows_processed, y.rows_processed);
  EXPECT_EQ(x.hash_records, y.hash_records);
  EXPECT_EQ(x.sort_records, y.sort_records);
  EXPECT_EQ(x.ser_bytes, y.ser_bytes);
  EXPECT_EQ(x.disk_write_bytes, y.disk_write_bytes);
  EXPECT_EQ(x.disk_read_bytes, y.disk_read_bytes);
  EXPECT_EQ(x.disk_seeks, y.disk_seeks);
  EXPECT_EQ(a.spill_bytes(), b.spill_bytes());
  EXPECT_EQ(a.spill_partitions(), b.spill_partitions());
}

struct Case {
  const char* name;
  std::vector<int> key_slots;
  int rows;
  int key_range;
  int buckets;
  double scale;
  uint64_t budget;
};

// Printed as its name, which becomes the case's name in ctest; the default
// print is the case's raw bytes, heap addresses that change from run to run.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class GroupBatchChargeTest : public ::testing::TestWithParam<Case> {};

TEST_P(GroupBatchChargeTest, MatchesReferenceLayout) {
  const Case& c = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  for (const EngineProfile& profile :
       {EngineProfile::Shark(), EngineProfile::Hadoop()}) {
    cfg.profile = profile;
    ClusterContext ctx(cfg);
    const Shape s = MakeShape(c.key_slots);
    const int kMaps = 3;
    std::vector<std::vector<RefGroup>> ref_buckets_by_map[kMaps];
    std::vector<MapOutput> new_outputs;
    std::vector<std::shared_ptr<ShuffleDependency>> keep_alive;
    for (int m = 0; m < kMaps; ++m) {
      // Task m sees its own rows; an empty task makes zero groups.
      const int n = m == 1 ? 0 : c.rows;
      const std::vector<Row> rows =
          RandomRows(1000 * static_cast<uint64_t>(m) + c.rows, n, c.key_range);
      std::vector<std::pair<Row, Row>> keyed;
      for (const Row& r : rows) keyed.emplace_back(KeyOf(s, r), r);
      auto ref_dep = ReferenceDep(&ctx, s, keyed, c.buckets);
      auto new_dep = vec::MakeRowAggDep(ctx.Parallelize(rows, 1), c.buckets,
                                        s.keys, s.args, s.calls);
      TaskContext ref_task(0, &ctx.profile(), nullptr, nullptr, nullptr,
                           c.scale, 0, c.budget);
      TaskContext new_task(0, &ctx.profile(), nullptr, nullptr, nullptr,
                           c.scale, 0, c.budget);
      MapOutput ref = ref_dep->PartitionBlock(
          std::make_shared<const std::vector<std::pair<Row, Row>>>(keyed),
          &ref_task);
      MapOutput got = new_dep->PartitionBlock(
          std::make_shared<const std::vector<Row>>(rows), &new_task);
      ExpectSameWork(ref_task, new_task);
      if (c.budget < 1'000'000 && n > 0) {
        EXPECT_GT(new_task.spill_partitions(), 0u);  // the case spills
      }
      EXPECT_EQ(got.on_disk, ref.on_disk);
      EXPECT_EQ(got.cost_scale, ref.cost_scale);
      // The same non-empty buckets, bytes, size codes and record counts.
      ASSERT_EQ(got.buckets.size(), ref.buckets.size());
      const auto& ref_batch =
          *static_cast<const std::vector<RefGroup>*>(ref.batch.get());
      const auto& batch = *static_cast<const vec::GroupBatch*>(got.batch.get());
      ref_buckets_by_map[m].assign(static_cast<size_t>(c.buckets), {});
      for (size_t e = 0; e < ref.buckets.size(); ++e) {
        const MapBucket& want_bucket = ref.buckets[e];
        const MapBucket& got_bucket = got.buckets[e];
        ASSERT_EQ(got_bucket.bucket, want_bucket.bucket);
        EXPECT_EQ(got_bucket.bytes, want_bucket.bytes);
        EXPECT_EQ(got_bucket.size_code, want_bucket.size_code);
        ASSERT_EQ(got_bucket.records(), want_bucket.records());
        const std::vector<RefGroup> want(ref_batch.begin() + want_bucket.begin,
                                         ref_batch.begin() + want_bucket.end);
        ref_buckets_by_map[m][want_bucket.bucket] = want;
        // Same groups, same (first-seen) order, same hashes, bytes, states.
        for (size_t i = 0; i < want.size(); ++i) {
          const size_t g = batch.bucket_order()[got_bucket.begin + i];
          EXPECT_EQ(batch.hash(g), KeyHash(want[i].first));
          EXPECT_EQ(batch.GroupBytes(g), ApproxSizeOf(want[i]));
          EXPECT_TRUE(batch.FinalizeRow(g) ==
                      FinalizeAggRow(*s.calls, want[i].first, want[i].second))
              << batch.FinalizeRow(g).ToString() << " vs "
              << FinalizeAggRow(*s.calls, want[i].first, want[i].second)
                     .ToString();
        }
      }
      new_outputs.push_back(std::move(got));
      keep_alive.push_back(new_dep);
    }
    // Reduce side: two reducers over interleaved bucket sets, fetching map
    // by map and bucket by bucket as TaskContext::FetchShuffleBuckets does.
    for (int r = 0; r < 2; ++r) {
      std::vector<RefGroup> ref_out;
      std::unordered_map<Row, size_t, KeyHasher<Row>> index;
      vec::VecGroupTable table(s.calls, s.keys->size());
      for (int m = 0; m < kMaps; ++m) {
        for (int b = r; b < c.buckets; b += 2) {
          const auto& ref_bucket =
              ref_buckets_by_map[m][static_cast<size_t>(b)];
          for (const RefGroup& kv : ref_bucket) {
            auto [it, fresh] = index.try_emplace(kv.first, ref_out.size());
            if (fresh) {
              ref_out.push_back(kv);
            } else {
              MergeAggStates(*s.calls, kv.second, &ref_out[it->second].second);
            }
          }
          const MapOutput& out = new_outputs[static_cast<size_t>(m)];
          for (const MapBucket& e : out.buckets) {
            if (e.bucket != static_cast<uint32_t>(b)) continue;
            table.MergeSlice(
                ShuffleSlice{out.batch.get(), e.begin, e.end, e.bytes});
          }
        }
      }
      ASSERT_EQ(table.size(), ref_out.size());
      EXPECT_EQ(table.batch().Bytes(), ApproxSizeOfRange(ref_out));
      for (size_t g = 0; g < ref_out.size(); ++g) {
        EXPECT_TRUE(table.batch().FinalizeRow(g) ==
                    FinalizeAggRow(*s.calls, ref_out[g].first,
                                   ref_out[g].second))
            << "reducer " << r << " group " << g;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GroupBatchChargeTest,
    ::testing::Values(
        // Global aggregate: one group per task, every one in one bucket.
        Case{"Global", {}, 60, 50, 8, 1.0, ~0ULL},
        // Single keys of each type; NULL and NaN keys among them.
        Case{"IntKey", {kKeyInt}, 300, 40, 4, 1.0, ~0ULL},
        Case{"StrKey", {kKeyStr}, 300, 40, 8, 1000.0, ~0ULL},
        Case{"DblKey", {kKeyDbl}, 300, 40, 3, 50.0, ~0ULL},
        // Multi-column keys, many groups, a budget that forces the spill.
        Case{"MultiKeySpill", {kKeyInt, kKeyStr, kKeyDbl}, 500, 200, 16,
             1000.0, 4096},
        // More buckets than groups.
        Case{"FewGroups", {kKeyInt}, 40, 3, 64, 1.0, ~0ULL}));

// The column-batch kernels and the row path fill identical tables: same
// groups in the same order, same hashes, bytes and finalized answers.
TEST(GroupBatchKernelTest, ColumnKernelsMatchRowPath) {
  const Schema schema = InputSchema();
  const std::vector<Row> rows = RandomRows(7, 2500, 300);
  auto part = TablePartition::FromRows(schema, rows);
  std::vector<int> wanted;
  for (size_t c = 0; c < schema.fields().size(); ++c) {
    wanted.push_back(static_cast<int>(c));
  }
  vec::ColumnBatch batch;
  ASSERT_TRUE(
      vec::DecodePartition(*part, schema.fields(), wanted, "t", &batch).ok());
  for (const std::vector<int>& key_slots :
       std::vector<std::vector<int>>{{}, {kKeyStr}, {kKeyInt, kKeyDbl}}) {
    const Shape s = MakeShape(key_slots);
    vec::VecGroupTable by_rows(s.calls, key_slots.size());
    for (const Row& r : rows) {
      Row key = KeyOf(s, r);
      std::vector<Value> args;
      for (const CompiledExpr& a : *s.args) args.push_back(a.Eval(r));
      by_rows.batch().Fold(by_rows.FindOrInsert(key, KeyHash(key)),
                           args.data());
    }
    vec::VecGroupTable by_cols(s.calls, key_slots.size());
    std::vector<vec::ColumnVector> keycols(s.keys->size());
    std::vector<const vec::ColumnVector*> keyviews(s.keys->size());
    std::vector<vec::ColumnVector> argcols(s.args->size());
    std::vector<uint32_t> gids(vec::kBatchSize);
    for (size_t b = 0; b < batch.num_rows; b += vec::kBatchSize) {
      const size_t e = std::min(batch.num_rows, b + vec::kBatchSize);
      for (size_t k = 0; k < keycols.size(); ++k) {
        (*s.keys)[k].EvalBatch(batch, b, e, &keycols[k]);
        keyviews[k] = &keycols[k];
      }
      std::vector<uint64_t> hashes;
      vec::HashKeyColumns(keyviews, e - b, &hashes);
      for (size_t a = 0; a < argcols.size(); ++a) {
        (*s.args)[a].EvalBatch(batch, b, e, &argcols[a]);
      }
      for (size_t i = 0; i < e - b; ++i) {
        gids[i] =
            static_cast<uint32_t>(by_cols.FindOrInsert(keyviews, i, hashes[i]));
      }
      by_cols.batch().FoldBatch(argcols, gids.data(), e - b);
    }
    ASSERT_EQ(by_cols.size(), by_rows.size());
    EXPECT_EQ(by_cols.batch().Bytes(), by_rows.batch().Bytes());
    for (size_t g = 0; g < by_rows.size(); ++g) {
      EXPECT_EQ(by_cols.batch().hash(g), by_rows.batch().hash(g));
      EXPECT_TRUE(by_cols.batch().FinalizeRow(g) ==
                  by_rows.batch().FinalizeRow(g))
          << by_cols.batch().FinalizeRow(g).ToString() << " vs "
          << by_rows.batch().FinalizeRow(g).ToString();
    }
  }
}

}  // namespace
}  // namespace shark
