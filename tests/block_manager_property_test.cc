// Property test: the BlockManager against a brute-force shadow model under
// randomized put/get/drop sequences. The shadow keeps one MRU->LRU list per
// node and replays the documented semantics literally; after every operation
// the real manager must agree exactly — which pins down that
//   * UsedBytes(node) never exceeds capacity,
//   * eviction removes blocks strictly in least-recently-touched order,
//   * replacing a block cached on another node leaks nothing (used_/lru_/
//     blocks_ stay consistent across the move).
#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "rdd/block_manager.h"

namespace shark {
namespace {

BlockData MakeBlock(int tag) {
  return std::make_shared<const std::vector<int>>(std::vector<int>{tag});
}

/// Reference implementation: the LRU contract, written as simply as
/// possible (no iterators-into-lists cleverness).
class ShadowModel {
 public:
  ShadowModel(int num_nodes, uint64_t capacity)
      : capacity_(capacity), lru_(static_cast<size_t>(num_nodes)) {}

  bool Put(BlockKey key, uint64_t bytes, int node) {
    if (bytes > capacity_) return false;
    Remove(key);
    auto& node_lru = lru_[static_cast<size_t>(node)];
    uint64_t used = UsedBytes(node);
    if (used + bytes > capacity_) {
      uint64_t needed = used + bytes - capacity_;
      uint64_t freed = 0;
      while (freed < needed && !node_lru.empty()) {
        freed += node_lru.back().second;
        node_lru.pop_back();
      }
    }
    node_lru.emplace_front(key, bytes);
    return true;
  }

  void Touch(BlockKey key) {
    for (auto& node_lru : lru_) {
      for (auto it = node_lru.begin(); it != node_lru.end(); ++it) {
        if (it->first == key) {
          node_lru.splice(node_lru.begin(), node_lru, it);
          return;
        }
      }
    }
  }

  void DropNode(int node) { lru_[static_cast<size_t>(node)].clear(); }

  void DropRdd(int rdd_id) {
    for (auto& node_lru : lru_) {
      node_lru.remove_if(
          [rdd_id](const auto& kv) { return kv.first.rdd_id == rdd_id; });
    }
  }

  void Clear() {
    for (auto& node_lru : lru_) node_lru.clear();
  }

  uint64_t UsedBytes(int node) const {
    uint64_t total = 0;
    for (const auto& kv : lru_[static_cast<size_t>(node)]) total += kv.second;
    return total;
  }

  int Location(BlockKey key) const {
    for (size_t n = 0; n < lru_.size(); ++n) {
      for (const auto& kv : lru_[n]) {
        if (kv.first == key) return static_cast<int>(n);
      }
    }
    return -1;
  }

  size_t NumBlocks() const {
    size_t total = 0;
    for (const auto& node_lru : lru_) total += node_lru.size();
    return total;
  }

  std::vector<int> CachedPartitions(int rdd_id) const {
    std::vector<int> out;
    for (const auto& node_lru : lru_) {
      for (const auto& kv : node_lru) {
        if (kv.first.rdd_id == rdd_id) out.push_back(kv.first.partition);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void Remove(BlockKey key) {
    for (auto& node_lru : lru_) {
      node_lru.remove_if([key](const auto& kv) { return kv.first == key; });
    }
  }

  uint64_t capacity_;
  // Per node, front = most recently used; (key, bytes).
  std::vector<std::list<std::pair<BlockKey, uint64_t>>> lru_;
};

struct PropertyConfig {
  int num_nodes;
  uint64_t capacity;
  int rdds;
  int partitions;
  uint64_t max_block;  // may exceed capacity to exercise rejection
};

void CheckAgreement(BlockManager* bm, const ShadowModel& shadow,
                    const PropertyConfig& cfg, int step) {
  uint64_t total = 0;
  for (int n = 0; n < cfg.num_nodes; ++n) {
    ASSERT_LE(bm->UsedBytes(n), cfg.capacity) << "step " << step;
    ASSERT_EQ(bm->UsedBytes(n), shadow.UsedBytes(n))
        << "node " << n << " step " << step;
    total += bm->UsedBytes(n);
  }
  ASSERT_EQ(bm->TotalUsedBytes(), total) << "step " << step;
  ASSERT_EQ(bm->NumBlocks(), shadow.NumBlocks()) << "step " << step;
  for (int r = 0; r < cfg.rdds; ++r) {
    ASSERT_EQ(bm->CachedPartitions(r), shadow.CachedPartitions(r))
        << "rdd " << r << " step " << step;
    for (int p = 0; p < cfg.partitions; ++p) {
      int loc = shadow.Location(BlockKey{r, p});
      ASSERT_EQ(bm->Location(r, p), loc)
          << "block (" << r << "," << p << ") step " << step;
      const CachedBlock* peeked = bm->Peek(r, p);
      ASSERT_EQ(peeked != nullptr, loc >= 0) << "step " << step;
      if (peeked != nullptr) {
        ASSERT_EQ(peeked->node, loc) << "step " << step;
      }
    }
  }
}

void RunRandomizedTrace(const PropertyConfig& cfg, uint64_t seed, int steps) {
  BlockManager bm(cfg.num_nodes, cfg.capacity);
  ShadowModel shadow(cfg.num_nodes, cfg.capacity);
  Random rng(seed);
  for (int step = 0; step < steps; ++step) {
    int rdd = static_cast<int>(rng.Uniform(static_cast<uint64_t>(cfg.rdds)));
    int part = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(cfg.partitions)));
    int node = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(cfg.num_nodes)));
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // put (the workhorse; biased high to force evictions)
        uint64_t bytes = 1 + rng.Uniform(cfg.max_block);
        bool ok = bm.Put(rdd, part, MakeBlock(step), bytes, node);
        bool shadow_ok = shadow.Put(BlockKey{rdd, part}, bytes, node);
        ASSERT_EQ(ok, shadow_ok) << "step " << step;
        break;
      }
      case 4:
      case 5:
      case 6: {  // get (touches LRU)
        const CachedBlock* b = bm.Get(rdd, part);
        ASSERT_EQ(b != nullptr, shadow.Location(BlockKey{rdd, part}) >= 0)
            << "step " << step;
        shadow.Touch(BlockKey{rdd, part});
        break;
      }
      case 7: {  // touch replay path
        bm.Touch(rdd, part);
        shadow.Touch(BlockKey{rdd, part});
        break;
      }
      case 8: {  // node failure
        bm.DropNode(node);
        shadow.DropNode(node);
        break;
      }
      case 9: {  // uncache
        bm.DropRdd(rdd);
        shadow.DropRdd(rdd);
        break;
      }
    }
    CheckAgreement(&bm, shadow, cfg, step);
  }
  bm.Clear();
  shadow.Clear();
  CheckAgreement(&bm, shadow, cfg, steps);
}

TEST(BlockManagerPropertyTest, TinyCapacityConstantChurn) {
  // Capacity fits ~2 median blocks: almost every put evicts.
  RunRandomizedTrace({/*num_nodes=*/3, /*capacity=*/100, /*rdds=*/2,
                      /*partitions=*/4, /*max_block=*/60},
                     /*seed=*/1, /*steps=*/600);
}

TEST(BlockManagerPropertyTest, CrossNodeReplacementNeverLeaks) {
  // Few keys, many nodes: the same block is repeatedly re-put on different
  // nodes, exercising the replace-in-place path across nodes.
  RunRandomizedTrace({/*num_nodes=*/6, /*capacity=*/500, /*rdds=*/2,
                      /*partitions=*/2, /*max_block=*/400},
                     /*seed=*/2, /*steps=*/600);
}

TEST(BlockManagerPropertyTest, OversizedPutsRejected) {
  // max_block is 3x capacity: a third of puts must be rejected untouched.
  RunRandomizedTrace({/*num_nodes=*/2, /*capacity=*/64, /*rdds=*/3,
                      /*partitions=*/3, /*max_block=*/192},
                     /*seed=*/3, /*steps=*/500);
}

TEST(BlockManagerPropertyTest, ManySeedsShortTraces) {
  for (uint64_t seed = 10; seed < 30; ++seed) {
    RunRandomizedTrace({/*num_nodes=*/4, /*capacity=*/200, /*rdds=*/3,
                        /*partitions=*/5, /*max_block=*/120},
                       seed, /*steps=*/120);
  }
}

}  // namespace
}  // namespace shark
