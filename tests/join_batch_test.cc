// The shuffle join's flat payload (exec/vectorized/join_table.h) against the
// reference layout it replaces: the same rows hash-partitioned as (key Row,
// Row) pairs by PlainShuffleDep, co-grouped by CoGroupedRdd and flattened
// key by key. Every bucket's bytes, records and cost scale, every map-task
// charge, the reducer's and the map join gather's charges (spills included)
// and the emitted rows, in order, must be equal, for randomized inputs over
// every join type and key shape. The build/probe kernel is checked against the hash map of key Rows
// the map join and the co-partitioned join used before.

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/vectorized/join_table.h"
#include "exec/vectorized/vec_exec.h"
#include "rdd/context.h"
#include "rdd/pair_rdd.h"
#include "sql/expr_compiler.h"

namespace shark {
namespace {

using Programs = std::shared_ptr<const std::vector<CompiledExpr>>;
using RowPair = std::pair<Row, Row>;

// Columns of both inputs: key candidates, then payload.
enum Col { kKeyInt, kKeyStr, kKeyDbl, kPayload };

Schema InputSchema() {
  return Schema({{"ki", TypeKind::kInt64},
                 {"ks", TypeKind::kString},
                 {"kd", TypeKind::kDouble},
                 {"p", TypeKind::kString}});
}

/// Rows with NULL and NaN keys, +0.0 / -0.0, doubles equal to the BIGINT
/// keys, short and long (heap) strings. `key_range` bounds the distinct keys
/// per column; `tag` marks the payload so each row is identifiable.
std::vector<Row> RandomRows(uint64_t seed, int n, int key_range,
                            const std::string& tag) {
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
                           : Value::String(prefix + std::to_string(k % 9)));
    const double d = static_cast<double>(k % 7) - 2.0;
    if (pick(11) == 0) {
      r.fields.push_back(Value::Null());
    } else if (pick(9) == 0) {
      r.fields.push_back(Value::Double(std::nan("")));
    } else {
      r.fields.push_back(Value::Double(d == 0.0 && pick(2) == 0 ? -0.0 : d));
    }
    r.fields.push_back(
        pick(7) == 0 ? Value::Null()
                     : Value::String(tag + std::to_string(i) +
                                     std::string(static_cast<size_t>(pick(20)),
                                                 'x')));
    rows.push_back(std::move(r));
  }
  return rows;
}

Programs Compile(const std::vector<int>& slots) {
  const Schema schema = InputSchema();
  ExprCompiler compiler(nullptr);
  std::vector<CompiledExpr> programs;
  for (int s : slots) {
    auto p = compiler.Compile(
        *MakeSlot(s, schema.fields()[static_cast<size_t>(s)].type));
    EXPECT_TRUE(p.ok());
    programs.push_back(std::move(*p));
  }
  return std::make_shared<const std::vector<CompiledExpr>>(std::move(programs));
}

Row KeyOf(const std::vector<CompiledExpr>& keys, const Row& r) {
  Row key;
  for (const CompiledExpr& k : keys) key.fields.push_back(k.Eval(r));
  return key;
}

Row Concat(const Row& l, const Row& r) {
  Row out = l;
  out.fields.insert(out.fields.end(), r.fields.begin(), r.fields.end());
  return out;
}

/// The reference reducer's flattening: the co-group's old "joinOutput".
std::vector<Row> FlattenCoGroup(
    const std::pair<Row, std::pair<std::vector<Row>, std::vector<Row>>>& e,
    JoinType type, const Row& left_nulls, const Row& right_nulls) {
  std::vector<Row> out;
  const auto& lv = e.second.first;
  const auto& rv = e.second.second;
  for (const Row& l : lv) {
    for (const Row& r : rv) out.push_back(Concat(l, r));
  }
  if (type == JoinType::kLeftOuter && rv.empty()) {
    for (const Row& l : lv) out.push_back(Concat(l, right_nulls));
  }
  if (type == JoinType::kRightOuter && lv.empty()) {
    for (const Row& r : rv) out.push_back(Concat(left_nulls, r));
  }
  return out;
}

void ExpectSameWork(TaskContext* a, TaskContext* b) {
  const TaskWork& x = a->work();
  const TaskWork& y = b->work();
  EXPECT_EQ(x.rows_processed, y.rows_processed);
  EXPECT_EQ(x.hash_records, y.hash_records);
  EXPECT_EQ(x.sort_records, y.sort_records);
  EXPECT_EQ(x.ser_bytes, y.ser_bytes);
  EXPECT_EQ(x.disk_write_bytes, y.disk_write_bytes);
  EXPECT_EQ(x.disk_read_bytes, y.disk_read_bytes);
  EXPECT_EQ(x.disk_seeks, y.disk_seeks);
  EXPECT_EQ(x.dfs_write_bytes, y.dfs_write_bytes);
  EXPECT_EQ(x.binary_deser_bytes, y.binary_deser_bytes);
  EXPECT_EQ(a->spill_bytes(), b->spill_bytes());
  EXPECT_EQ(a->spill_partitions(), b->spill_partitions());
  const std::vector<MemOp> ma = a->TakeMemLog();
  const std::vector<MemOp> mb = b->TakeMemLog();
  ASSERT_EQ(ma.size(), mb.size());
  for (size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].kind, mb[i].kind) << "mem op " << i;
    EXPECT_EQ(ma[i].bytes, mb[i].bytes) << "mem op " << i;
    EXPECT_EQ(ma[i].granted, mb[i].granted) << "mem op " << i;
    EXPECT_EQ(ma[i].spill_partitions, mb[i].spill_partitions) << "mem op " << i;
  }
  const std::vector<DeferredCharge> da = a->TakeDeferredCharges();
  const std::vector<DeferredCharge> db = b->TakeDeferredCharges();
  ASSERT_EQ(da.size(), db.size());
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].kind, db[i].kind);
    EXPECT_EQ(da[i].bytes, db[i].bytes);
    EXPECT_EQ(da[i].home, db[i].home);
  }
}

struct Case {
  const char* name;
  JoinType type;
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  int rows;
  int key_range;
  int buckets;
  uint64_t budget;
};

// Printed as its name, which becomes the case's name in ctest; the default
// print is the case's raw bytes, heap addresses that change from run to run.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class JoinBatchChargeTest : public ::testing::TestWithParam<Case> {};

TEST_P(JoinBatchChargeTest, MatchesReferenceLayout) {
  const Case& c = GetParam();
  const Programs lkeys = Compile(c.left_keys);
  const Programs rkeys = Compile(c.right_keys);
  const int width = static_cast<int>(InputSchema().fields().size());
  constexpr int kMaps = 3;
  for (const EngineProfile& profile :
       {EngineProfile::Shark(), EngineProfile::Hadoop()}) {
    SCOPED_TRACE(profile.name);
    ClusterConfig cfg;
    cfg.num_nodes = 2;
    cfg.profile = profile;
    ClusterContext ctx(cfg);
    // Task m of each side sees its own rows; the left side's task 1 is
    // empty. The parents only size the shuffles: map tasks are fed below.
    std::vector<std::shared_ptr<ShuffleDependency>> ref_deps, new_deps;
    for (int side = 0; side < 2; ++side) {
      const Programs& keys = side == 0 ? lkeys : rkeys;
      auto parent = ctx.Parallelize(std::vector<Row>(kMaps), kMaps);
      auto keyed = ctx.Parallelize(std::vector<RowPair>(kMaps), kMaps);
      ref_deps.push_back(MakeHashPartitionDep<Row, Row>(keyed, c.buckets));
      new_deps.push_back(
          vec::MakeJoinDep(parent, c.buckets, keys, "joinKey"));
      for (int m = 0; m < kMaps; ++m) {
        const int n = side == 0 && m == 1 ? 0 : c.rows;
        const std::vector<Row> rows =
            RandomRows(100 * static_cast<uint64_t>(m) + side + c.rows, n,
                       c.key_range, side == 0 ? "L" : "R");
        std::vector<RowPair> pairs;
        for (const Row& r : rows) pairs.emplace_back(KeyOf(*keys, r), r);
        TaskContext ref_task(m, &ctx.profile(), nullptr, nullptr, nullptr);
        TaskContext new_task(m, &ctx.profile(), nullptr, nullptr, nullptr);
        MapOutput ref = ref_deps.back()->PartitionBlock(
            std::make_shared<const std::vector<RowPair>>(pairs), &ref_task);
        MapOutput got = new_deps.back()->PartitionBlock(
            std::make_shared<const std::vector<Row>>(rows), &new_task);
        ExpectSameWork(&ref_task, &new_task);
        EXPECT_EQ(got.on_disk, ref.on_disk);
        EXPECT_EQ(got.cost_scale, ref.cost_scale);
        // The same non-empty buckets, bytes, size codes and record counts.
        ASSERT_EQ(got.buckets.size(), ref.buckets.size());
        const auto& ref_batch =
            *static_cast<const std::vector<RowPair>*>(ref.batch.get());
        for (size_t e = 0; e < ref.buckets.size(); ++e) {
          const MapBucket& want_bucket = ref.buckets[e];
          const MapBucket& got_bucket = got.buckets[e];
          ASSERT_EQ(got_bucket.bucket, want_bucket.bucket);
          EXPECT_EQ(got_bucket.bytes, want_bucket.bytes);
          EXPECT_EQ(got_bucket.size_code, want_bucket.size_code);
          ASSERT_EQ(got_bucket.records(), want_bucket.records());
          // Same rows in the same order, with the same hashes and bytes.
          const auto& batch =
              *static_cast<const vec::JoinBatch*>(got.batch.get());
          uint64_t bytes = 0;
          for (size_t i = 0; i < got_bucket.records(); ++i) {
            const RowPair& want = ref_batch[want_bucket.begin + i];
            const uint32_t r = batch.bucket_order()[got_bucket.begin + i];
            EXPECT_EQ(batch.hash(r), KeyHash(want.first));
            EXPECT_EQ(batch.KeyBytes(r), ApproxSizeOf(want.first));
            EXPECT_EQ(batch.RowBytes(r), ApproxSizeOf(want.second));
            Row fields;
            batch.AppendFields(r, &fields.fields);
            EXPECT_EQ(fields, want.second);
            bytes += ApproxSizeOf(want);
          }
          EXPECT_EQ(got_bucket.bytes, bytes);
        }
        ref.node = got.node = m % cfg.num_nodes;
        ctx.shuffle_manager().PutMapOutput(ref_deps.back()->shuffle_id(), m,
                                           std::move(ref));
        ctx.shuffle_manager().PutMapOutput(new_deps.back()->shuffle_id(), m,
                                           std::move(got));
      }
    }
    // Reduce side: two reducers over interleaved bucket sets.
    BucketAssignment assignment(2);
    for (int b = 0; b < c.buckets; ++b) {
      assignment[static_cast<size_t>(b % 2)].push_back(b);
    }
    auto cogrouped = std::make_shared<CoGroupedRdd<Row, Row, Row>>(
        &ctx, ref_deps[0], ref_deps[1], assignment);
    const Row left_nulls(std::vector<Value>(static_cast<size_t>(width)));
    const Row right_nulls(std::vector<Value>(static_cast<size_t>(width)));
    using CoElem = CoGroupedRdd<Row, Row, Row>::Element;
    auto ref_join = cogrouped->FlatMap(
        [&](const CoElem& e) {
          return FlattenCoGroup(e, c.type, left_nulls, right_nulls);
        },
        "joinOutput");
    auto new_join = vec::BuildJoinReduce(new_deps[0], new_deps[1], c.type,
                                         width, width, assignment);
    // The map join's gather: every bucket of one side in one task.
    for (int side = 0; side < 2; ++side) {
      SCOPED_TRACE("gather side " + std::to_string(side));
      std::vector<int> all(static_cast<size_t>(c.buckets));
      std::iota(all.begin(), all.end(), 0);
      auto ref_gather = std::make_shared<RepartitionedRdd<RowPair>>(
          &ctx, ref_deps[static_cast<size_t>(side)], BucketAssignment{all});
      auto new_gather =
          vec::BuildJoinGather(new_deps[static_cast<size_t>(side)]);
      TaskContext ref_task(0, &ctx.profile(), &ctx.block_manager(),
                           &ctx.shuffle_manager(), &ctx.broadcasts());
      TaskContext new_task(0, &ctx.profile(), &ctx.block_manager(),
                           &ctx.shuffle_manager(), &ctx.broadcasts());
      const std::vector<RowPair> want = ref_gather->Compute(0, &ref_task);
      const std::vector<Row> got = new_gather->Compute(0, &new_task);
      ExpectSameWork(&ref_task, &new_task);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i].second) << "row " << i;
      }
    }
    for (int p = 0; p < 2; ++p) {
      SCOPED_TRACE("reducer " + std::to_string(p));
      auto task = [&] {
        return TaskContext(p, &ctx.profile(), &ctx.block_manager(),
                           &ctx.shuffle_manager(), &ctx.broadcasts(), 1.0, 0,
                           c.budget);
      };
      TaskContext ref_task = task();
      TaskContext new_task = task();
      const std::vector<Row> want = ref_join->Compute(p, &ref_task);
      const std::vector<Row> got = new_join->Compute(p, &new_task);
      if (c.budget < 1'000'000) {
        EXPECT_GT(new_task.spill_partitions(), 0u);  // the case spills
      }
      ExpectSameWork(&ref_task, &new_task);
      EXPECT_FALSE(want.empty());
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << "row " << i << ": " << got[i].ToString() << " vs "
            << want[i].ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JoinBatchChargeTest,
    ::testing::Values(
        // BIGINT keys against DOUBLE keys: cross-type equality, NULL, NaN.
        Case{"InnerIntDouble", JoinType::kInner, {kKeyInt}, {kKeyDbl}, 200,
             40, 8, ~0ULL},
        Case{"LeftOuterDouble", JoinType::kLeftOuter, {kKeyDbl}, {kKeyDbl},
             200, 40, 5, ~0ULL},
        Case{"RightOuterString", JoinType::kRightOuter, {kKeyStr}, {kKeyStr},
             200, 40, 8, ~0ULL},
        // Multi-column keys with long strings, a budget that forces the
        // grace-hash spill.
        Case{"InnerMultiColumnSpills", JoinType::kInner,
             {kKeyInt, kKeyStr, kKeyDbl}, {kKeyDbl, kKeyStr, kKeyInt}, 300, 60,
             16, 2048},
        Case{"LeftOuterMultiColumnSpills", JoinType::kLeftOuter,
             {kKeyStr, kKeyInt}, {kKeyStr, kKeyInt}, 300, 60, 16, 2048},
        // More buckets than rows.
        Case{"RightOuterSparseBuckets", JoinType::kRightOuter, {kKeyInt},
             {kKeyInt}, 12, 5, 64, ~0ULL}));

// The build/probe kernel the map join broadcasts and the co-partitioned
// join builds per task, against the hash map of key Rows both used before:
// the same rows in the same order (probe rows in order, each with its build
// rows in build order), and the broadcast registers the same bytes.
using RefJoinTable = std::unordered_map<Row, std::vector<Row>, KeyHasher<Row>>;

uint64_t RefTableBytes(const RefJoinTable& table) {
  uint64_t total = 64;
  for (const auto& [k, rows] : table) {
    total += ApproxSizeOf(k) + 16;
    for (const Row& r : rows) total += ApproxSizeOf(r);
  }
  return total;
}

TEST(JoinBuildKernelTest, MatchesKeyRowHashMap) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  ClusterContext ctx(cfg);
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> shapes = {
      {{kKeyInt}, {kKeyDbl}},
      {{kKeyStr}, {kKeyStr}},
      {{kKeyInt, kKeyStr, kKeyDbl}, {kKeyDbl, kKeyStr, kKeyInt}},
  };
  for (const auto& [build_slots, probe_slots] : shapes) {
    const Programs bkeys = Compile(build_slots);
    const Programs pkeys = Compile(probe_slots);
    for (int n : {0, 1, 400}) {
      const std::vector<Row> build = RandomRows(7 + n, n, 30, "B");
      const std::vector<Row> probe = RandomRows(11 + n, 500, 30, "P");
      RefJoinTable ref;
      for (const Row& r : build) ref[KeyOf(*bkeys, r)].push_back(r);
      const int id = ctx.Broadcast(vec::JoinBuild(*bkeys, build));
      EXPECT_EQ(ctx.broadcasts().entry(id).bytes, RefTableBytes(ref));
      const auto& table = *std::static_pointer_cast<const vec::JoinBuild>(
          ctx.broadcasts().data(id));
      for (bool build_is_left : {true, false}) {
        std::vector<Row> want;
        for (const Row& r : probe) {
          auto it = ref.find(KeyOf(*pkeys, r));
          if (it == ref.end()) continue;
          for (const Row& b : it->second) {
            want.push_back(build_is_left ? Concat(b, r) : Concat(r, b));
          }
        }
        std::vector<Row> got;
        table.Probe(*pkeys, probe, build_is_left, &got);
        EXPECT_EQ(got, want) << "build rows " << n;
        if (n == 400) {
          EXPECT_FALSE(want.empty());
        }
      }
    }
  }
}

}  // namespace
}  // namespace shark
