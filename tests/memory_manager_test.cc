// Unit tests for the per-node memory arbiter: budget arithmetic across the
// three consumers (cache, shuffle buffers, task working sets), the shuffle
// fit decision, and commit-order replay of task reservation logs.
#include <gtest/gtest.h>

#include "mem/memory_manager.h"
#include "rdd/task_context.h"
#include "sql/session.h"

namespace shark {
namespace {

TEST(MemoryManagerTest, UsedBytesSumsCacheAndShuffle) {
  MemoryManager mm(2, 1000, 4);
  EXPECT_EQ(mm.UsedBytes(0), 0u);
  mm.AddShuffleBytes(0, 300);
  EXPECT_EQ(mm.UsedBytes(0), 300u);
  EXPECT_EQ(mm.UsedBytes(1), 0u);
  mm.set_cache_usage_fn([](int node) { return node == 0 ? 150u : 40u; });
  EXPECT_EQ(mm.UsedBytes(0), 450u);
  EXPECT_EQ(mm.UsedBytes(1), 40u);
  EXPECT_EQ(mm.total_shuffle_bytes(), 300u);
}

TEST(MemoryManagerTest, ReleaseClampsToLedger) {
  MemoryManager mm(1, 1000, 4);
  mm.AddShuffleBytes(0, 100);
  mm.ReleaseShuffleBytes(0, 250);  // sloppy caller: must not underflow
  EXPECT_EQ(mm.shuffle_bytes(0), 0u);
}

TEST(MemoryManagerTest, ShuffleFitsAgainstResidentBytes) {
  MemoryManager mm(2, 1000, 4);
  EXPECT_TRUE(mm.ShuffleFits(0, 1000));
  mm.AddShuffleBytes(0, 600);
  EXPECT_TRUE(mm.ShuffleFits(0, 400));
  EXPECT_FALSE(mm.ShuffleFits(0, 401));
  EXPECT_TRUE(mm.ShuffleFits(1, 1000));  // other node unaffected
}

TEST(MemoryManagerTest, TaskBudgetIsWorstNodeHeadroomPerCore) {
  MemoryManager mm(2, 1000, 4);
  EXPECT_EQ(mm.TaskWorkingSetBudget(), 250u);  // 1000 / 4 cores
  mm.AddShuffleBytes(0, 600);
  // Worst node has 400 headroom -> 100 per core.
  EXPECT_EQ(mm.TaskWorkingSetBudget(), 100u);
}

TEST(MemoryManagerTest, TaskBudgetKeepsMinimumShareUnderFullCache) {
  MemoryManager mm(1, 1600, 4);
  mm.set_cache_usage_fn([](int) { return 1600u; });  // cache ate everything
  // Execution memory never starves: floor = capacity / (4 * cores) = 100.
  EXPECT_EQ(mm.TaskWorkingSetBudget(), 100u);
}

TEST(MemoryManagerTest, CommitTracksPeaksDenialsAndSpills) {
  MemoryManager mm(2, 1000, 2);
  std::vector<MemOp> ops;
  ops.push_back({MemOp::Kind::kReserve, 200, true, 0});
  ops.push_back({MemOp::Kind::kGrow, 300, true, 0});
  ops.push_back({MemOp::Kind::kRelease, 500, true, 0});
  ops.push_back({MemOp::Kind::kGrow, 50, false, 0});
  ops.push_back({MemOp::Kind::kSpill, 4096, true, 8});
  mm.CommitTaskOps(1, ops);
  EXPECT_EQ(mm.peak_task_bytes(1), 500u);
  EXPECT_EQ(mm.peak_task_bytes(0), 0u);
  EXPECT_EQ(mm.denied_reservations(), 1u);
  EXPECT_EQ(mm.committed_spill_bytes(), 4096u);
  EXPECT_EQ(mm.committed_spill_partitions(), 8u);
}

// ---------------------------------------------------------------------------
// TaskContext reservation protocol (the side task bodies log against)
// ---------------------------------------------------------------------------

TaskContext MakeTaskContext(const EngineProfile* profile,
                            uint64_t mem_budget) {
  return TaskContext(/*partition=*/0, profile, /*block_manager=*/nullptr,
                     /*shuffle_manager=*/nullptr, /*broadcasts=*/nullptr,
                     /*virtual_scale=*/1.0, /*rng_seed=*/0, mem_budget);
}

TEST(TaskMemoryTest, GrantedReservationsLogNoSpill) {
  EngineProfile profile = EngineProfile::Shark();
  TaskContext tctx = MakeTaskContext(&profile, /*mem_budget=*/1000);
  EXPECT_TRUE(tctx.ReserveWorkingSet(600));
  EXPECT_TRUE(tctx.GrowWorkingSet(400));
  EXPECT_FALSE(tctx.GrowWorkingSet(1));  // budget exactly exhausted
  tctx.ReleaseAllWorkingSet();
  EXPECT_TRUE(tctx.ReserveWorkingSet(1000));  // headroom restored
  EXPECT_EQ(tctx.spill_bytes(), 0u);
  EXPECT_EQ(tctx.spill_partitions(), 0u);
}

TEST(TaskMemoryTest, OverBudgetHashAggregationSpills) {
  EngineProfile profile = EngineProfile::Shark();
  TaskContext tctx = MakeTaskContext(&profile, /*mem_budget=*/1000);
  tctx.ReserveOrSpillHash(/*bytes=*/5000, /*records=*/100);
  EXPECT_GT(tctx.spill_bytes(), 0u);
  EXPECT_GE(tctx.spill_partitions(), 2u);  // grace hash: at least two parts
  const TaskWork& w = tctx.work();
  EXPECT_EQ(w.disk_write_bytes, 5000u);  // working set written out...
  EXPECT_EQ(w.disk_read_bytes, 5000u);   // ...and read back per partition
  EXPECT_GT(w.hash_records, 0u);         // rebuild cost on re-read
}

TEST(TaskMemoryTest, OverBudgetSortFallsBackToSortMerge) {
  EngineProfile profile = EngineProfile::Shark();
  TaskContext tctx = MakeTaskContext(&profile, /*mem_budget=*/100);
  tctx.ReserveOrSpillSort(/*bytes=*/1000, /*records=*/50);
  EXPECT_GT(tctx.spill_bytes(), 0u);
  const TaskWork& w = tctx.work();
  EXPECT_EQ(w.disk_write_bytes, 1000u);
  EXPECT_GT(w.rows_processed, 0u);  // merge pass re-touches the rows
  EXPECT_GE(w.disk_seeks, tctx.spill_partitions());
}

TEST(TaskMemoryTest, MemLogReplaysIntoManagerTotals) {
  EngineProfile profile = EngineProfile::Shark();
  TaskContext tctx = MakeTaskContext(&profile, /*mem_budget=*/100);
  EXPECT_TRUE(tctx.ReserveWorkingSet(80));
  tctx.GrowOrSpillHash(500, 10);  // denied -> spill logged
  std::vector<MemOp> log = tctx.TakeMemLog();
  ASSERT_FALSE(log.empty());
  MemoryManager mm(1, 100, 1);
  mm.CommitTaskOps(0, log);
  EXPECT_EQ(mm.denied_reservations(), 1u);
  EXPECT_EQ(mm.committed_spill_bytes(), 500u);
  EXPECT_GT(mm.peak_task_bytes(0), 0u);
}

/// A few-group aggregate at a high virtual scale: the reduce-side merge table
/// holds one combiner per group, so like the map-side combiner output its
/// reservation grows with the distinct-growth estimate, not linearly with the
/// scale. Four COUNT(DISTINCT) groups must fit in the task budget; reserving
/// the raw table against a budget divided by the scale would spill it.
TEST(ReduceMemoryTest, FewGroupAggregateAtHighScaleDoesNotSpillInReduce) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.virtual_data_scale = 1e6;  // ~36 KB real task budget
  auto session =
      std::make_unique<SharkSession>(std::make_shared<ClusterContext>(cfg));
  Schema schema({{"g", TypeKind::kInt64}, {"id", TypeKind::kInt64}});
  std::vector<Row> rows;
  for (int i = 0; i < 8000; ++i) {
    rows.push_back(Row({Value::Int64(i % 4), Value::Int64(i)}));
  }
  ASSERT_TRUE(session->CreateDfsTable("t", schema, rows, 8).ok());
  auto r = session->Sql("SELECT g, COUNT(DISTINCT id) FROM t GROUP BY g");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 4u);
  ASSERT_NE(r->profile, nullptr);
  int reduce_stages = 0;
  for (const StageTrace& st : r->profile->stages) {
    if (st.is_map_stage) continue;
    ++reduce_stages;
    EXPECT_EQ(st.spill_bytes, 0u) << "reduce stage " << st.label;
  }
  EXPECT_GT(reduce_stages, 0);
}

}  // namespace
}  // namespace shark
