#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/size_encoding.h"
#include "mem/memory_manager.h"
#include "rdd/block_manager.h"
#include "rdd/shuffle.h"
#include "rdd/task_context.h"
#include "sim/cost_model.h"

namespace shark {
namespace {

BlockData MakeBlock(int tag) {
  return std::make_shared<const std::vector<int>>(std::vector<int>{tag});
}

/// Bucket `bucket` over records [begin, end) of a map output, `bytes` big.
MapBucket SizedBucket(uint32_t bucket, uint32_t begin, uint32_t end,
                      uint64_t bytes) {
  MapBucket b{bucket, begin, end};
  b.SetBytes(bytes);
  return b;
}

TEST(BlockManagerTest, PutGetRoundTrip) {
  BlockManager bm(4, 1000);
  EXPECT_TRUE(bm.Put(1, 0, MakeBlock(7), 100, 2));
  const CachedBlock* b = bm.Get(1, 0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->node, 2);
  EXPECT_EQ(b->bytes, 100u);
  EXPECT_EQ(bm.Location(1, 0), 2);
  EXPECT_EQ(bm.Get(1, 1), nullptr);
  EXPECT_EQ(bm.Location(9, 9), -1);
}

TEST(BlockManagerTest, RejectsOversizedBlock) {
  BlockManager bm(2, 100);
  EXPECT_FALSE(bm.Put(1, 0, MakeBlock(1), 101, 0));
  EXPECT_EQ(bm.Get(1, 0), nullptr);
}

TEST(BlockManagerTest, LruEvictionUnderPressure) {
  BlockManager bm(1, 250);
  EXPECT_TRUE(bm.Put(1, 0, MakeBlock(0), 100, 0));
  EXPECT_TRUE(bm.Put(1, 1, MakeBlock(1), 100, 0));
  // Touch partition 0 so partition 1 is LRU.
  EXPECT_NE(bm.Get(1, 0), nullptr);
  EXPECT_TRUE(bm.Put(1, 2, MakeBlock(2), 100, 0));  // forces eviction
  EXPECT_NE(bm.Get(1, 0), nullptr);  // recently used: kept
  EXPECT_EQ(bm.Get(1, 1), nullptr);  // LRU: evicted
  EXPECT_NE(bm.Get(1, 2), nullptr);
  EXPECT_LE(bm.UsedBytes(0), 250u);
}

TEST(BlockManagerTest, ReplaceMovesBlockBetweenNodes) {
  BlockManager bm(3, 1000);
  EXPECT_TRUE(bm.Put(1, 0, MakeBlock(1), 100, 0));
  EXPECT_TRUE(bm.Put(1, 0, MakeBlock(2), 150, 2));  // recomputed elsewhere
  EXPECT_EQ(bm.Location(1, 0), 2);
  EXPECT_EQ(bm.UsedBytes(0), 0u);
  EXPECT_EQ(bm.UsedBytes(2), 150u);
}

TEST(BlockManagerTest, DropNodeRemovesOnlyItsBlocks) {
  BlockManager bm(3, 1000);
  bm.Put(1, 0, MakeBlock(0), 10, 0);
  bm.Put(1, 1, MakeBlock(1), 10, 1);
  bm.Put(2, 0, MakeBlock(2), 10, 0);
  bm.DropNode(0);
  EXPECT_EQ(bm.Get(1, 0), nullptr);
  EXPECT_EQ(bm.Get(2, 0), nullptr);
  EXPECT_NE(bm.Get(1, 1), nullptr);
  EXPECT_EQ(bm.UsedBytes(0), 0u);
}

TEST(BlockManagerTest, DropRddRemovesAllPartitions) {
  BlockManager bm(2, 1000);
  bm.Put(1, 0, MakeBlock(0), 10, 0);
  bm.Put(1, 1, MakeBlock(1), 10, 1);
  bm.Put(2, 0, MakeBlock(2), 10, 0);
  bm.DropRdd(1);
  EXPECT_TRUE(bm.CachedPartitions(1).empty());
  EXPECT_EQ(bm.CachedPartitions(2), std::vector<int>{0});
  EXPECT_EQ(bm.TotalUsedBytes(), 10u);
}

TEST(ShuffleManagerTest, RegisterPutFetchLifecycle) {
  ShuffleManager sm;
  int id = sm.RegisterShuffle(2, 3);
  EXPECT_TRUE(sm.IsRegistered(id));
  EXPECT_EQ(sm.NumBuckets(id), 3);
  EXPECT_EQ(sm.NumMapPartitions(id), 2);
  EXPECT_FALSE(sm.IsComplete(id));
  EXPECT_EQ(sm.MissingMapPartitions(id).size(), 2u);

  MapOutput out;
  out.node = 1;
  out.batch = MakeBlock(0);
  out.buckets = {SizedBucket(0, 0, 1, 10), SizedBucket(1, 1, 3, 20),
                 SizedBucket(2, 3, 6, 30)};
  sm.PutMapOutput(id, 0, out);
  EXPECT_FALSE(sm.IsComplete(id));
  sm.PutMapOutput(id, 1, out);
  EXPECT_TRUE(sm.IsComplete(id));
  EXPECT_EQ(sm.Stats(id).total_records, 12u);
}

TEST(ShuffleManagerTest, DropNodeMarksOutputsLostAndRecomputeDoesNotDoubleCount) {
  ShuffleManager sm;
  int id = sm.RegisterShuffle(1, 1);
  MapOutput out;
  out.node = 0;
  out.batch = MakeBlock(0);
  out.buckets = {SizedBucket(0, 0, 5, 100)};
  sm.PutMapOutput(id, 0, out);
  uint64_t bytes_before = sm.Stats(id).total_bytes;
  sm.DropNode(0);
  EXPECT_FALSE(sm.IsComplete(id));
  EXPECT_EQ(sm.MissingMapPartitions(id), std::vector<int>{0});
  // Recompute on another node: stats must not double count.
  out.node = 1;
  sm.PutMapOutput(id, 0, out);
  EXPECT_TRUE(sm.IsComplete(id));
  EXPECT_EQ(sm.Stats(id).total_bytes, bytes_before);
  EXPECT_EQ(sm.Stats(id).total_records, 5u);
}

// --- Compact map outputs against the dense layout --------------------------

/// One map output in the dense layout map outputs had before they became
/// compact: every bucket's bytes and records, empty buckets included. The
/// reference the compact record must agree with.
struct DenseOutput {
  int node = 0;
  bool on_disk = false;
  double cost_scale = 1.0;
  std::vector<uint64_t> bytes;    // per bucket
  std::vector<uint64_t> records;  // per bucket
};

/// A random map output of `n` records over `num_buckets` buckets, as the
/// dense reference and as the compact record a map task ships: records laid
/// out by OrderByBucket in one batch holding each record's bucket id.
/// `one_bucket` >= 0 puts every record there; `flat_bytes` gives every record
/// the same size (equal buckets tie); some records weigh 0 bytes.
std::pair<DenseOutput, MapOutput> RandomOutput(Random* rng, int num_buckets,
                                               size_t n, int one_bucket,
                                               bool flat_bytes) {
  const auto nb = static_cast<uint32_t>(num_buckets);
  DenseOutput dense;
  dense.node = static_cast<int>(rng->Uniform(3));
  dense.on_disk = rng->Uniform(4) == 0;
  dense.cost_scale = rng->Uniform(2) == 0 ? 1.0 : 0.37;
  dense.bytes.assign(nb, 0);
  dense.records.assign(nb, 0);
  std::vector<uint32_t> bucket_of(n);
  std::vector<uint64_t> record_bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bucket_of[i] = one_bucket >= 0 ? static_cast<uint32_t>(one_bucket)
                                   : static_cast<uint32_t>(rng->Uniform(nb));
    record_bytes[i] = flat_bytes ? 16 : rng->Uniform(5) * 1000 + rng->Uniform(7);
    dense.bytes[bucket_of[i]] += record_bytes[i];
    dense.records[bucket_of[i]] += 1;
  }
  std::vector<uint32_t> order;
  MapOutput out;
  out.node = dense.node;
  out.on_disk = dense.on_disk;
  out.cost_scale = dense.cost_scale;
  out.buckets = OrderByBucket(bucket_of, nb, &order);
  auto batch = std::make_shared<std::vector<uint32_t>>();
  uint64_t prev_end = 0;
  for (MapBucket& b : out.buckets) {
    EXPECT_EQ(b.begin, prev_end);  // runs tile the batch
    prev_end = b.end;
    uint64_t bytes = 0;
    for (uint32_t i = b.begin; i < b.end; ++i) bytes += record_bytes[order[i]];
    b.SetBytes(bytes);
  }
  EXPECT_EQ(prev_end, n);
  for (uint32_t i : order) batch->push_back(bucket_of[i]);
  out.batch = std::move(batch);
  return {dense, out};
}

/// What a reducer fetching `wanted` saw with the dense layout: for each map,
/// each wanted bucket with records as one slice; each bucket that is not
/// empty adds its records times the cost scale; a map with bytes adds one
/// deferred charge (plus a disk read and seek when disk-served).
struct DenseFetch {
  std::vector<std::pair<int, uint32_t>> slices;  // (map, bucket)
  std::vector<uint64_t> slice_bytes;
  double effective_records = 0.0;
  std::vector<DeferredCharge> charges;
  uint64_t disk_read_bytes = 0;
  uint64_t disk_seeks = 0;
};

DenseFetch ReferenceFetch(const std::vector<DenseOutput>& maps,
                          const std::vector<int>& wanted) {
  DenseFetch f;
  for (size_t m = 0; m < maps.size(); ++m) {
    const DenseOutput& d = maps[m];
    uint64_t bytes = 0;
    for (int b : wanted) {
      const auto bi = static_cast<size_t>(b);
      if (d.bytes[bi] == 0 && d.records[bi] == 0) continue;
      if (d.records[bi] > 0) {
        f.slices.emplace_back(static_cast<int>(m), static_cast<uint32_t>(b));
        f.slice_bytes.push_back(d.bytes[bi]);
      }
      bytes += d.bytes[bi];
      f.effective_records += static_cast<double>(d.records[bi]) * d.cost_scale;
    }
    if (bytes == 0) continue;
    if (d.on_disk) {
      f.disk_read_bytes += bytes;
      f.disk_seeks += 1;
      f.charges.push_back(
          DeferredCharge{DeferredCharge::Kind::kNetIfRemote, bytes, d.node, {}});
    } else {
      f.charges.push_back(
          DeferredCharge{DeferredCharge::Kind::kMemOrNet, bytes, d.node, {}});
    }
  }
  return f;
}

TEST(ShuffleManagerTest, CompactOutputsMatchDenseReference) {
  constexpr int kBuckets = 200;
  constexpr int kMaps = 6;
  struct Pattern {
    const char* name;
    size_t records;
    int one_bucket;
    bool flat_bytes;
  };
  const Pattern patterns[] = {
      {"all empty", 0, -1, false},
      {"single bucket", 40, 7, false},
      {"last bucket", 3, kBuckets - 1, false},
      {"sparse", 9, -1, false},
      {"dense", 3000, -1, false},
      {"dense ties", 3000, -1, true},
      {"sparse ties", 20, -1, true},
  };
  Random rng(31);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    MemoryManager mm(3, uint64_t{1} << 40, 2);
    ShuffleManager sm;
    sm.set_memory_manager(&mm);
    const int id = sm.RegisterShuffle(kMaps, kBuckets);
    std::vector<DenseOutput> dense;
    std::vector<MapOutput> compact;
    for (int m = 0; m < kMaps; ++m) {
      const Pattern& p = patterns[rng.Uniform(std::size(patterns))];
      auto [d, c] = RandomOutput(&rng, kBuckets, p.records, p.one_bucket,
                                 p.flat_bytes);
      dense.push_back(d);
      compact.push_back(c);
      sm.PutMapOutput(id, m, std::move(c));
    }
    ASSERT_TRUE(sm.IsComplete(id));

    // Statistics: the dense fold over every bucket of every output.
    auto expect_stats = [&] {
      ShuffleStats want;
      want.bucket_bytes.assign(kBuckets, 0);
      want.bucket_records.assign(kBuckets, 0);
      for (const DenseOutput& d : dense) {
        for (size_t b = 0; b < kBuckets; ++b) {
          const uint64_t approx =
              SizeEncoding::Decode(SizeEncoding::Encode(d.bytes[b]));
          want.bucket_bytes[b] += approx;
          want.total_bytes += approx;
          want.bucket_records[b] += d.records[b];
          want.total_records += d.records[b];
        }
      }
      const ShuffleStats& got = sm.Stats(id);
      EXPECT_EQ(got.bucket_bytes, want.bucket_bytes);
      EXPECT_EQ(got.bucket_records, want.bucket_records);
      EXPECT_EQ(got.total_bytes, want.total_bytes);
      EXPECT_EQ(got.total_records, want.total_records);
    };
    expect_stats();

    // Ledger: every memory-served output's bytes on its node.
    auto expect_ledger = [&] {
      for (int node = 0; node < 3; ++node) {
        uint64_t want = 0;
        for (size_t m = 0; m < dense.size(); ++m) {
          if (dense[m].on_disk || dense[m].node != node ||
              sm.GetMapOutput(id, static_cast<int>(m)) == nullptr) {
            continue;
          }
          for (uint64_t b : dense[m].bytes) want += b;
        }
        EXPECT_EQ(mm.shuffle_bytes(node), want) << "node " << node;
      }
    };
    expect_ledger();

    // Fetches: empty, single, all, and random ascending subsets.
    std::vector<std::vector<int>> wanted_sets = {{}, {7}, {kBuckets - 1}};
    std::vector<int> all(kBuckets);
    for (int b = 0; b < kBuckets; ++b) all[static_cast<size_t>(b)] = b;
    wanted_sets.push_back(all);
    for (int i = 0; i < 6; ++i) {
      std::vector<int> subset;
      const uint64_t keep = 1 + rng.Uniform(i % 2 == 0 ? 3 : 60);
      for (int b = 0; b < kBuckets; ++b) {
        if (rng.Uniform(keep) == 0) subset.push_back(b);
      }
      wanted_sets.push_back(subset);
    }
    for (const std::vector<int>& wanted : wanted_sets) {
      const DenseFetch want = ReferenceFetch(dense, wanted);
      TaskContext tctx(0, nullptr, nullptr, &sm, nullptr);
      double effective = 0.0;
      const std::vector<ShuffleSlice> got =
          tctx.FetchShuffleBuckets(id, wanted, &effective);
      ASSERT_EQ(got.size(), want.slices.size()) << wanted.size() << " wanted";
      for (size_t i = 0; i < got.size(); ++i) {
        const auto [m, b] = want.slices[i];
        EXPECT_EQ(got[i].batch, compact[static_cast<size_t>(m)].batch.get());
        EXPECT_EQ(got[i].size(), dense[static_cast<size_t>(m)].records[b]);
        EXPECT_EQ(got[i].bytes, want.slice_bytes[i]);
        for (uint32_t bucket : got[i].Records<uint32_t>()) {
          EXPECT_EQ(bucket, b);
        }
      }
      EXPECT_EQ(effective, want.effective_records);
      EXPECT_EQ(tctx.work().disk_read_bytes, want.disk_read_bytes);
      EXPECT_EQ(tctx.work().disk_seeks, want.disk_seeks);
      const std::vector<DeferredCharge> charges = tctx.TakeDeferredCharges();
      ASSERT_EQ(charges.size(), want.charges.size());
      for (size_t i = 0; i < charges.size(); ++i) {
        EXPECT_EQ(charges[i].kind, want.charges[i].kind);
        EXPECT_EQ(charges[i].bytes, want.charges[i].bytes);
        EXPECT_EQ(charges[i].home, want.charges[i].home);
      }
      EXPECT_FALSE(tctx.HasMissingInput());
    }

    // A node death: its outputs read absent and their ledger bytes return;
    // recomputing them elsewhere counts nothing twice.
    const int dead = static_cast<int>(rng.Uniform(3));
    sm.DropNode(dead);
    for (size_t m = 0; m < dense.size(); ++m) {
      EXPECT_EQ(sm.GetMapOutput(id, static_cast<int>(m)) == nullptr,
                dense[m].node == dead);
    }
    expect_ledger();
    expect_stats();
    for (size_t m = 0; m < dense.size(); ++m) {
      if (dense[m].node != dead) continue;
      dense[m].node = (dead + 1) % 3;
      MapOutput again = compact[m];
      again.node = dense[m].node;
      sm.PutMapOutput(id, static_cast<int>(m), std::move(again));
    }
    EXPECT_TRUE(sm.IsComplete(id));
    expect_stats();
    expect_ledger();
    sm.DropShuffle(id);
    for (int node = 0; node < 3; ++node) EXPECT_EQ(mm.shuffle_bytes(node), 0u);
  }
}

}  // namespace
}  // namespace shark
