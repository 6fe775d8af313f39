#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rdd/context.h"
#include "rdd/pair_rdd.h"

namespace shark {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.profile = EngineProfile::Shark();
  return cfg;
}

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
  return v;
}

TEST(RddTest, ParallelizeCollectRoundTrip) {
  ClusterContext ctx(SmallConfig());
  auto rdd = ctx.Parallelize(Iota(100), 8);
  auto result = ctx.Collect(rdd);
  ASSERT_TRUE(result.ok());
  std::vector<int64_t> got = *result;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, Iota(100));
}

TEST(RddTest, MapFilterPipeline) {
  ClusterContext ctx(SmallConfig());
  auto rdd = ctx.Parallelize(Iota(1000), 8)
                 ->Map([](const int64_t& x) { return x * 2; })
                 ->Filter([](const int64_t& x) { return x % 4 == 0; });
  auto result = ctx.Collect(rdd);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 500u);
  for (int64_t v : *result) EXPECT_EQ(v % 4, 0);
}

TEST(RddTest, FlatMapExpands) {
  ClusterContext ctx(SmallConfig());
  auto rdd = ctx.Parallelize(Iota(10), 2)->FlatMap([](const int64_t& x) {
    return std::vector<int64_t>{x, x};
  });
  auto count = ctx.Count(rdd);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 20u);
}

TEST(RddTest, CountAndReduceActions) {
  ClusterContext ctx(SmallConfig());
  auto rdd = ctx.Parallelize(Iota(101), 7);
  auto count = ctx.Count(rdd);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 101u);
  auto sum = ctx.Reduce(rdd, int64_t{0},
                        [](int64_t a, int64_t b) { return a + b; });
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 5050);
}

TEST(RddTest, ReduceByKeyWordCount) {
  ClusterContext ctx(SmallConfig());
  std::vector<std::pair<std::string, int64_t>> words;
  for (int i = 0; i < 30; ++i) words.emplace_back("a", 1);
  for (int i = 0; i < 20; ++i) words.emplace_back("b", 1);
  for (int i = 0; i < 10; ++i) words.emplace_back("c", 1);
  auto rdd = ctx.Parallelize(words, 6);
  auto counts =
      ReduceByKey(rdd, [](int64_t a, int64_t b) { return a + b; }, 4);
  auto result = ctx.Collect(counts);
  ASSERT_TRUE(result.ok());
  std::map<std::string, int64_t> got(result->begin(), result->end());
  EXPECT_EQ(got["a"], 30);
  EXPECT_EQ(got["b"], 20);
  EXPECT_EQ(got["c"], 10);
}

TEST(RddTest, GroupByKeyGathersAllValues) {
  ClusterContext ctx(SmallConfig());
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 100; ++i) data.emplace_back(i % 5, i);
  auto grouped = GroupByKey(ctx.Parallelize(data, 8), 3);
  auto result = ctx.Collect(grouped);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 5u);
  for (const auto& [k, vs] : *result) {
    EXPECT_EQ(vs.size(), 20u) << "key " << k;
  }
}

TEST(RddTest, ShuffleJoinMatchesNaiveJoin) {
  ClusterContext ctx(SmallConfig());
  std::vector<std::pair<int64_t, std::string>> left;
  std::vector<std::pair<int64_t, double>> right;
  for (int64_t i = 0; i < 50; ++i) left.emplace_back(i, "L" + std::to_string(i));
  for (int64_t i = 25; i < 75; ++i) right.emplace_back(i, i * 1.5);
  auto joined =
      ShuffleJoin(ctx.Parallelize(left, 4), ctx.Parallelize(right, 4), 5);
  auto result = ctx.Collect(joined);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 25u);  // keys 25..49
  for (const auto& [k, vw] : *result) {
    EXPECT_GE(k, 25);
    EXPECT_LT(k, 50);
    EXPECT_EQ(vw.first, "L" + std::to_string(k));
    EXPECT_DOUBLE_EQ(vw.second, k * 1.5);
  }
}

TEST(RddTest, UnionConcatenates) {
  ClusterContext ctx(SmallConfig());
  auto a = ctx.Parallelize(Iota(10), 2);
  auto b = ctx.Parallelize(Iota(5), 2);
  auto u = std::make_shared<UnionRdd<int64_t>>(a, b);
  auto count = ctx.Count(RddPtr<int64_t>(u));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 15u);
}

TEST(RddTest, PartitionSubsetSkipsOthers) {
  ClusterContext ctx(SmallConfig());
  auto rdd = ctx.Parallelize(Iota(100), 10);
  auto subset =
      std::make_shared<PartitionSubsetRdd<int64_t>>(rdd, std::vector<int>{0, 1});
  auto result = ctx.Collect(RddPtr<int64_t>(subset));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 20u);  // only 2 of 10 partitions scanned
}

// --- virtual time & engine profile behaviour ------------------------------

TEST(RddTest, JobAdvancesVirtualClock) {
  ClusterContext ctx(SmallConfig());
  double t0 = ctx.now();
  auto rdd = ctx.Parallelize(Iota(1000), 8);
  ASSERT_TRUE(ctx.Collect(rdd).ok());
  EXPECT_GT(ctx.now(), t0);
}

TEST(RddTest, HadoopProfileIsSlowerThanSpark) {
  // Identical work, different engine profiles: the Hadoop profile pays task
  // launch overhead and heartbeat quantization (Fig 13's root cause).
  double spark_time = 0, hadoop_time = 0;
  {
    ClusterConfig cfg = SmallConfig();
    ClusterContext ctx(cfg);
    auto rdd = ctx.Parallelize(Iota(1000), 8)->Map([](const int64_t& x) {
      return x + 1;
    });
    ASSERT_TRUE(ctx.Collect(rdd).ok());
    spark_time = ctx.now();
  }
  {
    ClusterConfig cfg = SmallConfig();
    cfg.profile = EngineProfile::Hadoop();
    ClusterContext ctx(cfg);
    auto rdd = ctx.Parallelize(Iota(1000), 8)->Map([](const int64_t& x) {
      return x + 1;
    });
    ASSERT_TRUE(ctx.Collect(rdd).ok());
    hadoop_time = ctx.now();
  }
  EXPECT_GT(hadoop_time, 10.0 * spark_time);
}

TEST(RddTest, CachingMakesSecondScanCheaper) {
  ClusterConfig cfg = SmallConfig();
  cfg.virtual_data_scale = 1000.0;
  ClusterContext ctx(cfg);
  // Build a "file" of strings to give the scan some weight via parallelize.
  std::vector<std::string> lines;
  for (int i = 0; i < 20000; ++i) {
    lines.push_back("line-" + std::to_string(i) + "-payload-payload");
  }
  auto rdd = ctx.Parallelize(lines, 8);
  rdd->Cache();

  double t0 = ctx.now();
  ASSERT_TRUE(ctx.Count(rdd).ok());
  double first = ctx.now() - t0;

  t0 = ctx.now();
  ASSERT_TRUE(ctx.Count(rdd).ok());
  double second = ctx.now() - t0;

  EXPECT_LT(second, first);
  EXPECT_GT(ctx.block_manager().NumBlocks(), 0u);
}

TEST(RddTest, DfsScanChargesDeserialization) {
  ClusterConfig cfg = SmallConfig();
  ClusterContext ctx(cfg);
  // Create a DFS file manually.
  std::vector<DfsBlock> blocks;
  for (int b = 0; b < 4; ++b) {
    auto data = std::make_shared<std::vector<int64_t>>();
    for (int i = 0; i < 100; ++i) data->push_back(b * 100 + i);
    DfsBlock blk;
    blk.data = data;
    blk.bytes = 100 * 16;
    blk.rows = 100;
    blocks.push_back(blk);
  }
  ASSERT_TRUE(ctx.dfs().CreateFile("nums", DfsFormat::kText, blocks).ok());
  auto rdd_result = ctx.FromDfs<int64_t>("nums");
  ASSERT_TRUE(rdd_result.ok());
  auto collected = ctx.Collect(*rdd_result);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 400u);
  const TaskWork& w = ctx.scheduler().last_job().total_work;
  EXPECT_EQ(w.text_deser_bytes, 4u * 1600u);
  EXPECT_EQ(w.disk_read_bytes, 4u * 1600u);
}

TEST(RddTest, SaveToDfsThenScanBack) {
  ClusterContext ctx(SmallConfig());
  auto rdd = ctx.Parallelize(Iota(500), 5);
  auto file = ctx.SaveToDfs(rdd, "saved", DfsFormat::kBinary);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->TotalRows(), 500u);
  EXPECT_EQ((*file)->blocks.size(), 5u);
  for (const auto& b : (*file)->blocks) {
    EXPECT_EQ(b.replicas.size(), 3u);
  }
  auto back = ctx.FromDfs<int64_t>("saved");
  ASSERT_TRUE(back.ok());
  auto vals = ctx.Collect(*back);
  ASSERT_TRUE(vals.ok());
  std::sort(vals->begin(), vals->end());
  EXPECT_EQ(*vals, Iota(500));
}

TEST(RddTest, BroadcastFetchedOncePerNode) {
  ClusterContext ctx(SmallConfig());
  std::vector<int64_t> table = Iota(100);
  int bid = ctx.Broadcast(table);
  auto rdd = ctx.Parallelize(Iota(50), 8)->MapPartitions(
      [bid](int, const std::vector<int64_t>& in, TaskContext* tctx) {
        auto bc = GetBroadcast<std::vector<int64_t>>(tctx, bid);
        std::vector<int64_t> out;
        for (int64_t x : in) out.push_back((*bc)[static_cast<size_t>(x)]);
        return out;
      });
  auto result = ctx.Collect(rdd);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 50u);
}

// --- fault tolerance -------------------------------------------------------

TEST(RddFaultTest, ResultCorrectDespiteNodeFailure) {
  ClusterConfig cfg = SmallConfig();
  cfg.virtual_data_scale = 1e7;  // stretch task durations so the fault lands
  ClusterContext ctx(cfg);
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 5000; ++i) data.emplace_back(i % 17, 1);
  auto rdd = ctx.Parallelize(data, 16);
  auto counts =
      ReduceByKey(rdd, [](int64_t a, int64_t b) { return a + b; }, 8);
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kKill, 0.5, 1, 1.0});
  auto result = ctx.Collect(counts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 17u);
  for (const auto& [k, v] : *result) {
    EXPECT_NEAR(static_cast<double>(v), 5000.0 / 17.0, 1.0) << "key " << k;
  }
  EXPECT_FALSE(ctx.cluster().alive(1));
}

TEST(RddFaultTest, CachedPartitionsRecomputedViaLineage) {
  ClusterConfig cfg = SmallConfig();
  ClusterContext ctx(cfg);
  auto rdd = ctx.Parallelize(Iota(1000), 8)->Map([](const int64_t& x) {
    return x * 3;
  });
  rdd->Cache();
  ASSERT_TRUE(ctx.Count(rdd).ok());
  size_t cached_before = ctx.block_manager().NumBlocks();
  EXPECT_EQ(cached_before, 8u);
  // Kill a node immediately: its cached blocks vanish.
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kKill, ctx.now(), 2, 1.0});
  auto result = ctx.Collect(rdd);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1000u);
  std::vector<int64_t> got = *result;
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int64_t>(i) * 3);
  }
}

TEST(RddFaultTest, AllNodesDeadIsError) {
  ClusterConfig cfg = SmallConfig();
  ClusterContext ctx(cfg);
  for (int n = 0; n < cfg.num_nodes; ++n) {
    ctx.InjectFault(FaultEvent{FaultEvent::Kind::kKill, 0.0, n, 1.0});
  }
  auto rdd = ctx.Parallelize(Iota(10), 2);
  auto result = ctx.Collect(rdd);
  EXPECT_FALSE(result.ok());
}

TEST(RddFaultTest, StragglerMitigatedBySpeculation) {
  ClusterConfig cfg = SmallConfig();
  cfg.virtual_data_scale = 1e7;
  cfg.speculation = true;
  ClusterContext ctx(cfg);
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kSlowdown, 0.0, 0, 20.0});
  auto rdd = ctx.Parallelize(Iota(4000), 16)->Map([](const int64_t& x) {
    return x + 1;
  });
  ASSERT_TRUE(ctx.Collect(rdd).ok());
  double with_spec = ctx.now();
  int spec_tasks = ctx.scheduler().last_job().speculative_tasks;

  ClusterConfig cfg2 = cfg;
  cfg2.speculation = false;
  ClusterContext ctx2(cfg2);
  ctx2.InjectFault(FaultEvent{FaultEvent::Kind::kSlowdown, 0.0, 0, 20.0});
  auto rdd2 = ctx2.Parallelize(Iota(4000), 16)->Map([](const int64_t& x) {
    return x + 1;
  });
  ASSERT_TRUE(ctx2.Collect(rdd2).ok());
  double without_spec = ctx2.now();

  EXPECT_GT(spec_tasks, 0);
  EXPECT_LT(with_spec, without_spec);
}

// --- shuffle statistics (PDE raw material) ---------------------------------

TEST(ShuffleStatsTest, StatsObservedAtMapStage) {
  ClusterContext ctx(SmallConfig());
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 2000; ++i) data.emplace_back(i % 100, 1);
  auto rdd = ctx.Parallelize(data, 8);
  auto dep = MakeHashPartitionDep<int64_t, int64_t>(rdd, 4);
  auto stats = ctx.scheduler().EnsureShuffle(dep);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->total_records, 2000u);
  EXPECT_EQ(stats->bucket_bytes.size(), 4u);
  // Lossy size encoding: total within 10% of truth.
  uint64_t true_bytes = 2000 * 16;
  EXPECT_NEAR(static_cast<double>(stats->total_bytes),
              static_cast<double>(true_bytes), 0.1 * true_bytes);
}

// The map-side combiner emits each task's groups in first-seen input order:
// every bucket lists its keys in the order the task first met them, one
// record per distinct key, with the per-task combined value.
TEST(ShuffleStatsTest, CombinerBucketsKeepFirstSeenOrder) {
  ClusterContext ctx(SmallConfig());
  constexpr int kParts = 2;
  constexpr int kBuckets = 4;
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 400; ++i) data.emplace_back((i * 37) % 50, i);
  auto rdd = ctx.Parallelize(data, kParts);
  auto dep = std::make_shared<CombiningShuffleDep<int64_t, int64_t, int64_t>>(
      rdd, kBuckets, [](const int64_t& v) { return v; },
      [](int64_t& acc, const int64_t& v) { acc += v; });
  auto stats = ctx.scheduler().EnsureShuffle(dep);
  ASSERT_TRUE(stats.ok());

  auto slices = ctx.Collect(rdd->MapPartitions(
      [](int, const std::vector<std::pair<int64_t, int64_t>>& in,
         TaskContext*) {
        return std::vector<std::vector<std::pair<int64_t, int64_t>>>{in};
      },
      "slices"));
  ASSERT_TRUE(slices.ok());
  ASSERT_EQ(slices->size(), static_cast<size_t>(kParts));
  uint64_t total_records = 0;
  for (int p = 0; p < kParts; ++p) {
    // Expected: first-seen keys with their per-task sums, split by bucket.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> expect(kBuckets);
    std::map<int64_t, std::pair<size_t, size_t>> where;  // key -> (bucket, i)
    for (const auto& [k, v] : (*slices)[static_cast<size_t>(p)]) {
      auto it = where.find(k);
      if (it != where.end()) {
        expect[it->second.first][it->second.second].second += v;
        continue;
      }
      size_t b = KeyHash(k) % kBuckets;
      where[k] = {b, expect[b].size()};
      expect[b].emplace_back(k, v);
    }
    const MapOutput* out =
        ctx.shuffle_manager().GetMapOutput(dep->shuffle_id(), p);
    ASSERT_NE(out, nullptr);
    // Only the non-empty buckets are listed, in ascending order, each a
    // range of the one batch.
    const auto& batch =
        *static_cast<const std::vector<std::pair<int64_t, int64_t>>*>(
            out->batch.get());
    size_t e = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (expect[b].empty()) {
        EXPECT_TRUE(e == out->buckets.size() || out->buckets[e].bucket != b)
            << "task " << p << " bucket " << b;
        continue;
      }
      ASSERT_LT(e, out->buckets.size()) << "task " << p << " bucket " << b;
      const MapBucket& mb = out->buckets[e++];
      ASSERT_EQ(mb.bucket, b) << "task " << p;
      EXPECT_EQ(mb.records(), expect[b].size());
      const std::vector<std::pair<int64_t, int64_t>> got(
          batch.begin() + mb.begin, batch.begin() + mb.end);
      EXPECT_EQ(got, expect[b]) << "task " << p << " bucket " << b;
      total_records += mb.records();
    }
    EXPECT_EQ(e, out->buckets.size());
    EXPECT_EQ(batch.size(), out->records());
  }
  // Each task sees all 50 keys once combined.
  EXPECT_EQ(total_records, static_cast<uint64_t>(kParts * 50));
  EXPECT_EQ(stats->total_records, total_records);
}

TEST(ShuffleStatsTest, SkewVisibleInBucketSizes) {
  ClusterContext ctx(SmallConfig());
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 5000; ++i) data.emplace_back(7, 1);  // single hot key
  for (int64_t i = 0; i < 500; ++i) data.emplace_back(i + 100, 1);
  auto rdd = ctx.Parallelize(data, 8);
  auto dep = MakeHashPartitionDep<int64_t, int64_t>(rdd, 8);
  auto stats = ctx.scheduler().EnsureShuffle(dep);
  ASSERT_TRUE(stats.ok());
  uint64_t max_bucket = 0, total = 0;
  for (uint64_t b : stats->bucket_records) {
    max_bucket = std::max(max_bucket, b);
    total += b;
  }
  EXPECT_GT(max_bucket, total / 2);  // skewed bucket dominates
}

}  // namespace
}  // namespace shark
