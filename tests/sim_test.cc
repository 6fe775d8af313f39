#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "sim/dfs.h"

namespace shark {
namespace {

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

TEST(ClusterTest, CoreAccounting) {
  Cluster c(2, 2);
  EXPECT_EQ(c.total_cores(), 4);
  double when;
  int node, core;
  ASSERT_TRUE(c.EarliestFreeCore(0.0, &when, &node, &core));
  EXPECT_DOUBLE_EQ(when, 0.0);
  c.OccupyCore(node, core, 10.0);
  ASSERT_TRUE(c.EarliestFreeCore(0.0, &when, &node, &core));
  EXPECT_DOUBLE_EQ(when, 0.0);  // other cores still free
  for (int n = 0; n < 2; ++n) {
    for (int k = 0; k < 2; ++k) c.OccupyCore(n, k, 5.0 + n + k);
  }
  ASSERT_TRUE(c.EarliestFreeCore(0.0, &when, &node, &core));
  EXPECT_DOUBLE_EQ(when, 5.0);
  EXPECT_EQ(node, 0);
}

TEST(ClusterTest, FaultsApplyInTimeOrder) {
  Cluster c(3, 1);
  c.InjectFault({FaultEvent::Kind::kKill, 5.0, 1, 1.0});
  c.InjectFault({FaultEvent::Kind::kKill, 2.0, 2, 1.0});
  std::vector<int> killed = c.ApplyFaultsUpTo(3.0);
  EXPECT_EQ(killed, std::vector<int>{2});
  EXPECT_TRUE(c.alive(1));
  killed = c.ApplyFaultsUpTo(10.0);
  EXPECT_EQ(killed, std::vector<int>{1});
  EXPECT_EQ(c.AliveNodes(), 1);
}

TEST(ClusterTest, SlowdownAndRecover) {
  Cluster c(2, 1);
  c.InjectFault({FaultEvent::Kind::kSlowdown, 1.0, 0, 4.0});
  c.ApplyFaultsUpTo(2.0);
  EXPECT_DOUBLE_EQ(c.slowdown(0), 4.0);
  c.InjectFault({FaultEvent::Kind::kRecover, 3.0, 0, 1.0});
  c.ApplyFaultsUpTo(4.0);
  EXPECT_DOUBLE_EQ(c.slowdown(0), 1.0);
}

TEST(ClusterTest, SameTimeFaultsApplyInInjectionOrder) {
  // Equal-time events must apply in the order they were injected, not in
  // some sort-dependent order: slowdown then recover at t=1 leaves the node
  // healthy; the reverse order leaves it slowed.
  Cluster c(2, 1);
  c.InjectFault({FaultEvent::Kind::kSlowdown, 1.0, 0, 4.0});
  c.InjectFault({FaultEvent::Kind::kRecover, 1.0, 0, 1.0});
  c.ApplyFaultsUpTo(2.0);
  EXPECT_DOUBLE_EQ(c.slowdown(0), 1.0);

  c.InjectFault({FaultEvent::Kind::kRecover, 3.0, 1, 1.0});
  c.InjectFault({FaultEvent::Kind::kSlowdown, 3.0, 1, 2.5});
  // An earlier-time event injected later still applies first.
  c.InjectFault({FaultEvent::Kind::kKill, 2.5, 1, 1.0});
  std::vector<int> killed = c.ApplyFaultsUpTo(4.0);
  EXPECT_EQ(killed, std::vector<int>{1});
  EXPECT_TRUE(c.alive(1));  // recover at t=3 resurrected it...
  EXPECT_DOUBLE_EQ(c.slowdown(1), 2.5);  // ...then the slowdown stuck
}

TEST(ClusterTest, KillingAllNodesLeavesNoFreeCore) {
  Cluster c(2, 1);
  c.InjectFault({FaultEvent::Kind::kKill, 0.0, 0, 1.0});
  c.InjectFault({FaultEvent::Kind::kKill, 0.0, 1, 1.0});
  c.ApplyFaultsUpTo(1.0);
  double when;
  int node, core;
  EXPECT_FALSE(c.EarliestFreeCore(0.0, &when, &node, &core));
}

TEST(ClusterTest, EarliestFreeCoreMatchesLinearScan) {
  // The free-core lookup against a scan of every core: earliest time not
  // before `now`, then the lowest node, then the lowest core, over alive
  // nodes only. Busy times repeat so ties are common.
  Random rng(5);
  for (int shape = 0; shape < 4; ++shape) {
    const int nodes = 1 + static_cast<int>(rng.Uniform(7));
    const int cores = 1 + static_cast<int>(rng.Uniform(5));
    Cluster c(nodes, cores);
    double clock = 0.0;
    for (int step = 0; step < 400; ++step) {
      const double now = static_cast<double>(rng.Uniform(8));
      double want_t = std::numeric_limits<double>::infinity();
      int want_node = -1, want_core = -1;
      for (int n = 0; n < nodes; ++n) {
        if (!c.alive(n)) continue;
        for (int k = 0; k < cores; ++k) {
          const double t = std::max(
              now, c.node(n).core_free_at[static_cast<size_t>(k)]);
          if (t < want_t) {
            want_t = t;
            want_node = n;
            want_core = k;
          }
        }
      }
      double t = 0.0;
      int node = -1, core = -1;
      ASSERT_EQ(c.EarliestFreeCore(now, &t, &node, &core), want_node >= 0);
      if (want_node >= 0) {
        EXPECT_EQ(t, want_t);
        EXPECT_EQ(node, want_node);
        EXPECT_EQ(core, want_core);
      }
      // Next event: occupy a core until a small integer time, or kill or
      // revive a node.
      const uint64_t what = rng.Uniform(10);
      const auto n = static_cast<int>(rng.Uniform(static_cast<uint64_t>(nodes)));
      if (what < 8) {
        const auto k = static_cast<int>(rng.Uniform(static_cast<uint64_t>(cores)));
        if (c.alive(n)) {
          c.OccupyCore(n, k, static_cast<double>(rng.Uniform(10)));
        }
      } else {
        clock += 1.0;
        c.InjectFault(FaultEvent{what == 8 ? FaultEvent::Kind::kKill
                                           : FaultEvent::Kind::kRecover,
                                 clock, n, 1.0});
        c.ApplyFaultsUpTo(clock);
      }
    }
  }
}

TEST(ClusterTest, ResetRestoresEverything) {
  Cluster c(2, 2);
  c.OccupyCore(0, 0, 99.0);
  c.InjectFault({FaultEvent::Kind::kKill, 0.0, 1, 1.0});
  c.ApplyFaultsUpTo(1.0);
  c.Reset();
  EXPECT_EQ(c.AliveNodes(), 2);
  double when;
  int node, core;
  ASSERT_TRUE(c.EarliestFreeCore(0.0, &when, &node, &core));
  EXPECT_DOUBLE_EQ(when, 0.0);
}

// ---------------------------------------------------------------------------
// DFS
// ---------------------------------------------------------------------------

DfsBlock MakeBlock(uint64_t bytes) {
  DfsBlock b;
  b.data = std::make_shared<const std::vector<int>>();
  b.bytes = bytes;
  b.rows = bytes / 10;
  return b;
}

TEST(DfsTest, ReplicationAssignsDistinctNodes) {
  Dfs dfs(10, 3);
  std::vector<DfsBlock> blocks;
  for (int i = 0; i < 20; ++i) blocks.push_back(MakeBlock(100));
  ASSERT_TRUE(dfs.CreateFile("f", DfsFormat::kText, blocks).ok());
  auto file = dfs.GetFile("f");
  ASSERT_TRUE(file.ok());
  for (const DfsBlock& b : (*file)->blocks) {
    std::set<int> replicas(b.replicas.begin(), b.replicas.end());
    EXPECT_EQ(replicas.size(), 3u);
    for (int r : replicas) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 10);
    }
  }
  EXPECT_EQ((*file)->TotalBytes(), 2000u);
  EXPECT_EQ((*file)->TotalRows(), 200u);
}

TEST(DfsTest, ReplicationClampedToClusterSize) {
  Dfs dfs(2, 3);
  ASSERT_TRUE(dfs.CreateFile("f", DfsFormat::kText, {MakeBlock(10)}).ok());
  auto file = dfs.GetFile("f");
  EXPECT_EQ((*file)->blocks[0].replicas.size(), 2u);
}

TEST(DfsTest, PresetPrimaryReplicaKept) {
  Dfs dfs(5, 3);
  DfsBlock b = MakeBlock(10);
  b.replicas.push_back(4);
  ASSERT_TRUE(dfs.CreateFile("f", DfsFormat::kText, {b}).ok());
  auto file = dfs.GetFile("f");
  EXPECT_EQ((*file)->blocks[0].replicas[0], 4);
  EXPECT_EQ((*file)->blocks[0].replicas.size(), 3u);
}

TEST(DfsTest, NamesAreUniqueAndDeletable) {
  Dfs dfs(3, 2);
  ASSERT_TRUE(dfs.CreateFile("f", DfsFormat::kText, {MakeBlock(1)}).ok());
  EXPECT_FALSE(dfs.CreateFile("f", DfsFormat::kText, {MakeBlock(1)}).ok());
  EXPECT_TRUE(dfs.Exists("f"));
  EXPECT_TRUE(dfs.DeleteFile("f").ok());
  EXPECT_FALSE(dfs.Exists("f"));
  EXPECT_FALSE(dfs.DeleteFile("f").ok());
  EXPECT_FALSE(dfs.GetFile("f").ok());
}

// ---------------------------------------------------------------------------
// Cost model details
// ---------------------------------------------------------------------------

TEST(CostModelDetailTest, DiskAndNetworkAreFairShared) {
  HardwareModel hw;
  CostModel model(hw);
  EngineProfile p = EngineProfile::Shark();
  TaskWork w;
  w.disk_read_bytes = static_cast<uint64_t>(hw.disk_bw_bytes_per_sec);
  // One node-second of disk traffic takes cores_per_node task-seconds under
  // fair sharing.
  EXPECT_NEAR(model.WorkSeconds(w, p, 1.0), hw.cores_per_node, 1e-9);
}

TEST(CostModelDetailTest, TextSlowerThanBinarySlowerThanMemory) {
  HardwareModel hw;
  CostModel model(hw);
  EngineProfile p = EngineProfile::Shark();
  TaskWork text, binary, mem;
  text.text_deser_bytes = 1 << 30;
  binary.binary_deser_bytes = 1 << 30;
  mem.mem_read_bytes = 1 << 30;
  double t = model.WorkSeconds(text, p, 1.0);
  double b = model.WorkSeconds(binary, p, 1.0);
  double m = model.WorkSeconds(mem, p, 1.0);
  EXPECT_GT(t, b);
  EXPECT_GT(b, m);
  EXPECT_GT(t / m, 9.0);  // §3.2: memory ~10x the deserialization path
}

TEST(CostModelDetailTest, SortIsSuperlinear) {
  CostModel model{HardwareModel()};
  EngineProfile p = EngineProfile::Shark();
  TaskWork small, large;
  small.sort_records = 1 << 20;
  large.sort_records = 1 << 24;
  // 16x records -> more than 16x time (n log n).
  EXPECT_GT(model.WorkSeconds(large, p, 1.0),
            16.0 * model.WorkSeconds(small, p, 1.0));
}

TEST(CostModelDetailTest, FlopsCharge) {
  HardwareModel hw;
  CostModel model(hw);
  TaskWork w;
  w.flops = 1000000000;
  EXPECT_NEAR(model.WorkSeconds(w, EngineProfile::Shark(), 1.0),
              1e9 * hw.flop_sec, 1e-9);
}

}  // namespace
}  // namespace shark
