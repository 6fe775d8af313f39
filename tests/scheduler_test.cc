#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "rdd/context.h"
#include "rdd/pair_rdd.h"
#include "sim/cost_model.h"

namespace shark {
namespace {

/// Bucket `bucket` over records [begin, end) of a map output, `bytes` big.
MapBucket SizedBucket(uint32_t bucket, uint32_t begin, uint32_t end,
                      uint64_t bytes) {
  MapBucket b{bucket, begin, end};
  b.SetBytes(bytes);
  return b;
}

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
  return v;
}

TEST(CostModelTest, WorkTermsAdditive) {
  CostModel model{HardwareModel()};
  EngineProfile p = EngineProfile::Shark();
  TaskWork w;
  EXPECT_DOUBLE_EQ(model.WorkSeconds(w, p, 1.0), 0.0);
  w.rows_processed = 10000000;  // 10M rows * 100ns = 1s
  EXPECT_NEAR(model.WorkSeconds(w, p, 1.0), 1.0, 1e-9);
  EXPECT_NEAR(model.WorkSeconds(w, p, 2.0), 2.0, 1e-9);  // scale doubles it
}

TEST(CostModelTest, HadoopCpuMultiplierApplies) {
  CostModel model{HardwareModel()};
  TaskWork w;
  w.rows_processed = 10000000;
  double shark = model.WorkSeconds(w, EngineProfile::Shark(), 1.0);
  double hadoop = model.WorkSeconds(w, EngineProfile::Hadoop(), 1.0);
  EXPECT_NEAR(hadoop, 2.0 * shark, 1e-9);
}

TEST(CostModelTest, DfsWritePaysReplication) {
  CostModel model{HardwareModel()};
  EngineProfile p = EngineProfile::Shark();
  TaskWork w;
  w.dfs_write_bytes = 100 * 1000 * 1000;
  double with3 = model.WorkSeconds(w, p, 1.0);
  p.dfs_replication = 1;
  double with1 = model.WorkSeconds(w, p, 1.0);
  EXPECT_GT(with3, with1);  // extra replicas go over the network
}

TEST(SchedulerTest, HeartbeatQuantizesStarts) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.hardware.cores_per_node = 2;
  cfg.profile = EngineProfile::Shark();
  cfg.profile.heartbeat_interval_sec = 3.0;
  cfg.profile.task_launch_overhead_sec = 0.0;
  cfg.tasks_per_heartbeat = 1;
  ClusterContext ctx(cfg);
  auto rdd = ctx.Parallelize(Iota(100), 8);
  ASSERT_TRUE(ctx.Collect(rdd).ok());
  // 8 tasks, 1 task per node per 3s tick, 2 nodes: last pair starts at the
  // 4th tick (t=12 with the first at t=3... at least several ticks in).
  EXPECT_GE(ctx.now(), 9.0);
}

TEST(SchedulerTest, LocalityKeepsCachedReadsLocal) {
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.hardware.cores_per_node = 2;
  ClusterContext ctx(cfg);
  std::vector<std::string> data;
  for (int i = 0; i < 4000; ++i) data.push_back("payload-" + std::to_string(i));
  auto rdd = ctx.Parallelize(data, 16);
  rdd->Cache();
  ASSERT_TRUE(ctx.Count(rdd).ok());  // populate cache
  ASSERT_TRUE(ctx.Count(rdd).ok());  // read back
  const TaskWork& w = ctx.scheduler().last_job().total_work;
  // With locality-aware placement, cached partitions are read on their own
  // node: memory reads dominate, network reads stay zero.
  EXPECT_GT(w.mem_read_bytes, 0u);
  EXPECT_EQ(w.net_read_bytes, 0u);
}

TEST(SchedulerTest, DfsWriteKeepsFirstReplicaLocal) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  ClusterContext ctx(cfg);
  auto rdd = ctx.Parallelize(Iota(100), 4);
  auto file = ctx.SaveToDfs(rdd, "out", DfsFormat::kBinary);
  ASSERT_TRUE(file.ok());
  const std::vector<int>& nodes = ctx.scheduler().last_job().result_nodes;
  ASSERT_EQ(nodes.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*file)->blocks[i].replicas[0], nodes[i]);
  }
}

TEST(SchedulerTest, MultiLevelLineageRecovery) {
  // shuffle -> map -> shuffle chain; kill a node between materializations.
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.virtual_data_scale = 1e7;
  ClusterContext ctx(cfg);
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 4000; ++i) data.emplace_back(i % 100, 1);
  auto rdd = ctx.Parallelize(data, 8);
  auto first = ReduceByKey(rdd, [](int64_t a, int64_t b) { return a + b; }, 6);
  RddPtr<std::pair<int64_t, int64_t>> rekeyed =
      first->Map([](const std::pair<int64_t, int64_t>& kv) {
        return std::make_pair(kv.first % 10, kv.second);
      });
  auto second =
      ReduceByKey(rekeyed, [](int64_t a, int64_t b) { return a + b; }, 4);
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kKill, 0.3, 2, 1.0});
  auto result = ctx.Collect(second);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 10u);
  int64_t total = 0;
  for (const auto& [k, v] : *result) total += v;
  EXPECT_EQ(total, 4000);
}

TEST(SchedulerTest, RecoveredNodeRejoins) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.hardware.cores_per_node = 2;
  ClusterContext ctx(cfg);
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kKill, 0.0, 1, 1.0});
  auto rdd = ctx.Parallelize(Iota(100), 6);
  ASSERT_TRUE(ctx.Collect(rdd).ok());
  EXPECT_EQ(ctx.cluster().AliveNodes(), 2);
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kRecover, ctx.now(), 1, 1.0});
  auto rdd2 = ctx.Parallelize(Iota(100), 6);
  ASSERT_TRUE(ctx.Collect(rdd2).ok());
  EXPECT_EQ(ctx.cluster().AliveNodes(), 3);
}

TEST(SchedulerTest, ResetClockRestartsTime) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.hardware.cores_per_node = 1;
  ClusterContext ctx(cfg);
  auto rdd = ctx.Parallelize(Iota(100), 4);
  ASSERT_TRUE(ctx.Collect(rdd).ok());
  EXPECT_GT(ctx.now(), 0.0);
  ctx.ResetClock();
  EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
}

TEST(SchedulerTest, TaskBodyExceptionBecomesStatus) {
  // A throwing task body must surface as an ExecutionError from RunJob, not
  // crash a worker thread — and the context must stay usable afterwards.
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.hardware.cores_per_node = 2;
  for (int host_threads : {1, 4}) {
    cfg.host_threads = host_threads;
    ClusterContext ctx(cfg);
    auto rdd = ctx.Parallelize(Iota(100), 4)->Map([](int64_t v) {
      if (v == 50) throw std::runtime_error("bad record");
      return v;
    });
    auto result = ctx.Collect(rdd);
    ASSERT_FALSE(result.ok()) << "host_threads=" << host_threads;
    EXPECT_NE(result.status().ToString().find("task body threw"),
              std::string::npos)
        << result.status().ToString();
    auto ok = ctx.Collect(ctx.Parallelize(Iota(10), 2));
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->size(), 10u);
  }
}

TEST(ShuffleManagerTest, LostOutputReadsAbsent) {
  ShuffleManager sm;
  int id = sm.RegisterShuffle(/*num_map_partitions=*/2, /*num_buckets=*/2);
  MapOutput out;
  out.node = 1;
  out.buckets = {SizedBucket(0, 0, 1, 10), SizedBucket(1, 1, 3, 20)};
  sm.PutMapOutput(id, 0, std::move(out));
  ASSERT_NE(sm.GetMapOutput(id, 0), nullptr);
  EXPECT_EQ(sm.GetMapOutput(id, 0)->node, 1);
  EXPECT_EQ(sm.GetMapOutput(id, 1), nullptr);  // never computed

  MapOutput other;
  other.node = 2;
  other.buckets = {SizedBucket(0, 0, 1, 5), SizedBucket(1, 1, 2, 5)};
  sm.PutMapOutput(id, 1, std::move(other));
  EXPECT_TRUE(sm.IsComplete(id));

  sm.DropNode(1);
  // Regression: DropNode clears `present` and the buckets but leaves
  // node >= 0, and GetMapOutput used to treat only (node < 0 && !present) as
  // absent — handing reduce-side fetches a non-null pointer to the cleared
  // output, which silently read as empty instead of triggering recovery.
  EXPECT_EQ(sm.GetMapOutput(id, 0), nullptr);
  EXPECT_FALSE(sm.IsComplete(id));
  EXPECT_EQ(sm.MissingMapPartitions(id), std::vector<int>{0});
}

TEST(SchedulerTest, ReduceFetchAfterNodeDeathRecovers) {
  // End-to-end shape of the GetMapOutput regression: materialize a shuffle's
  // map outputs, kill one of the hosting nodes, then run the reduce side.
  // The reduce fetch must see the lost outputs as absent and recompute them
  // from lineage — with the old GetMapOutput condition it consumed the
  // cleared (empty) buckets and returned silently wrong totals.
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.virtual_data_scale = 1e7;
  ClusterContext ctx(cfg);
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 4000; ++i) data.emplace_back(i % 100, 1);
  auto rdd = ctx.Parallelize(data, 8);
  auto summed =
      ReduceByKey(rdd, [](int64_t a, int64_t b) { return a + b; }, 6);

  auto warm = ctx.Collect(summed);  // materializes the map outputs
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // The kill fires at the start of the re-run, after the map-side
  // completeness check already passed — only the reduce-side fetch can
  // notice the loss.
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kKill, ctx.now(), 1, 1.0});
  TraceCollector& tc = ctx.trace_collector();
  ASSERT_TRUE(tc.BeginQuery(ctx.now()));
  auto rerun = ctx.Collect(summed);
  auto profile = tc.EndQuery(ctx.now());
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();

  ASSERT_EQ(rerun->size(), 100u);
  int64_t total = 0;
  for (const auto& [k, v] : *rerun) total += v;
  EXPECT_EQ(total, 4000);
  EXPECT_GT(ctx.scheduler().last_job().map_tasks_recovered, 0);

  // The profile records the recovery: a task hit missing input and a nested
  // recovery stage re-ran map tasks.
  bool recovery_event = false;
  bool nested_stage = false;
  for (const StageTrace& st : profile->stages) {
    if (st.parent >= 0) nested_stage = true;
    for (const std::string& e : st.events) {
      if (e.find("missing shuffle input") != std::string::npos) {
        recovery_event = true;
      }
    }
  }
  EXPECT_TRUE(recovery_event);
  EXPECT_TRUE(nested_stage);
}

TEST(SchedulerTest, SpeculativeDuplicatesDontCorruptShuffleState) {
  // Speculation audit: a losing duplicate must never overwrite the winner's
  // committed map output, and re-reported statistics must not double count.
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.virtual_data_scale = 1e7;
  cfg.speculation = true;
  ClusterContext ctx(cfg);
  // One node 8x slower from the start: its tasks exceed the speculation
  // multiplier and get backup copies on healthy nodes.
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kSlowdown, 0.0, 1, 8.0});
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 4000; ++i) data.emplace_back(i % 100, 1);
  auto rdd = ctx.Parallelize(data, 8);
  auto summed =
      ReduceByKey(rdd, [](int64_t a, int64_t b) { return a + b; }, 6);

  TraceCollector& tc = ctx.trace_collector();
  ASSERT_TRUE(tc.BeginQuery(ctx.now()));
  auto result = ctx.Collect(summed);
  auto profile = tc.EndQuery(ctx.now());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result->size(), 100u);
  int64_t total = 0;
  for (const auto& [k, v] : *result) total += v;
  EXPECT_EQ(total, 4000);

  int speculative = 0;
  const StageTrace* map_stage = nullptr;
  for (const StageTrace& st : profile->stages) {
    speculative += st.speculative;
    if (st.is_map_stage) map_stage = &st;
  }
  EXPECT_GT(speculative, 0);
  ASSERT_NE(map_stage, nullptr);

  ShuffleManager& sm = ctx.shuffle_manager();
  const int shuffle_id = map_stage->shuffle_id;
  // Stats were folded exactly once per map partition even where a duplicate
  // also finished: the aggregate equals the sum over the stored outputs.
  uint64_t stored_records = 0;
  for (int m = 0; m < sm.NumMapPartitions(shuffle_id); ++m) {
    const MapOutput* mo = sm.GetMapOutput(shuffle_id, m);
    ASSERT_NE(mo, nullptr);
    stored_records += mo->records();
  }
  EXPECT_EQ(sm.Stats(shuffle_id).total_records, stored_records);

  // The stored output's node is the committed attempt's node — a superseded
  // duplicate finishing later must not have overwritten it.
  for (const TaskTrace& t : map_stage->tasks) {
    if (t.end != TaskEnd::kCommitted) continue;
    const MapOutput* mo = sm.GetMapOutput(shuffle_id, t.partition);
    ASSERT_NE(mo, nullptr);
    EXPECT_EQ(mo->node, t.node) << "map partition " << t.partition;
  }
}

TEST(SchedulerTest, SpeculativeDuplicateMatchesSerialRun) {
  // A launch takes its task's outcome out of the precomputation slot; a
  // speculative duplicate of that task then recomputes it at the same epoch.
  // The job must commit the same output, at the same virtual times, as the
  // serial run, whose every outcome is computed at launch.
  struct Run {
    std::vector<std::pair<int64_t, int64_t>> result;
    JobMetrics metrics;
    std::string profile;
    int speculative_commits = 0;
  };
  auto run = [](int host_threads) {
    ClusterConfig cfg;
    cfg.num_nodes = 4;
    cfg.hardware.cores_per_node = 2;
    cfg.virtual_data_scale = 1e7;
    cfg.speculation = true;
    cfg.host_threads = host_threads;
    ClusterContext ctx(cfg);
    // One node 8x slower from the start: its tasks get backup copies on
    // healthy nodes, which finish first and commit.
    ctx.InjectFault(FaultEvent{FaultEvent::Kind::kSlowdown, 0.0, 1, 8.0});
    std::vector<std::pair<int64_t, int64_t>> data;
    for (int64_t i = 0; i < 4000; ++i) data.emplace_back(i % 100, i);
    auto summed = ReduceByKey(ctx.Parallelize(data, 8),
                              [](int64_t a, int64_t b) { return a + b; }, 6);
    TraceCollector& tc = ctx.trace_collector();
    EXPECT_TRUE(tc.BeginQuery(ctx.now()));
    auto result = ctx.Collect(summed);
    auto profile = tc.EndQuery(ctx.now());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    Run r;
    if (result.ok()) r.result = *result;
    r.metrics = ctx.scheduler().last_job();
    r.profile = profile->ToChromeTrace();
    for (const StageTrace& st : profile->stages) {
      for (const TaskTrace& t : st.tasks) {
        if (t.speculative && t.end == TaskEnd::kCommitted) {
          r.speculative_commits += 1;
        }
      }
    }
    return r;
  };
  const Run serial = run(1);
  const Run pooled = run(4);
  EXPECT_GT(serial.speculative_commits, 0);
  EXPECT_EQ(pooled.speculative_commits, serial.speculative_commits);
  EXPECT_EQ(pooled.result, serial.result);
  EXPECT_EQ(pooled.profile, serial.profile);
  EXPECT_EQ(pooled.metrics.start_time, serial.metrics.start_time);
  EXPECT_EQ(pooled.metrics.end_time, serial.metrics.end_time);
  EXPECT_EQ(pooled.metrics.tasks_launched, serial.metrics.tasks_launched);
  EXPECT_EQ(pooled.metrics.speculative_tasks, serial.metrics.speculative_tasks);
  EXPECT_EQ(pooled.metrics.result_nodes, serial.metrics.result_nodes);
  const TaskWork& a = pooled.metrics.total_work;
  const TaskWork& b = serial.metrics.total_work;
  EXPECT_EQ(a.rows_processed, b.rows_processed);
  EXPECT_EQ(a.hash_records, b.hash_records);
  EXPECT_EQ(a.mem_read_bytes, b.mem_read_bytes);
  EXPECT_EQ(a.net_read_bytes, b.net_read_bytes);
  EXPECT_GT(serial.metrics.speculative_tasks, 0);
}

TEST(SchedulerTest, MapPruningLaunchesFewerTasks) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.hardware.cores_per_node = 2;
  ClusterContext ctx(cfg);
  auto rdd = ctx.Parallelize(Iota(1000), 10);
  auto all = ctx.scheduler().RunJob(rdd);
  ASSERT_TRUE(all.ok());
  int all_tasks = ctx.scheduler().last_job().tasks_launched;
  auto some = ctx.scheduler().RunJobOnPartitions(rdd, {0, 5});
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(ctx.scheduler().last_job().tasks_launched, 2);
  EXPECT_EQ(all_tasks, 10);
}

/// The stage record is the one source of truth: tracing only adds
/// per-attempt detail, so a run with an active profile exports the same
/// metrics as a run without, and every profiled stage's counts agree with
/// its skew report and with a walk over its own attempts.
struct RecordedRun {
  std::string exports;
  std::shared_ptr<QueryProfile> profile;
  std::vector<StageSkewReport> reports;
  JobMetrics job;
};

RecordedRun RunSpeculativeFaultyJob(bool profiled) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.virtual_data_scale = 1e7;
  cfg.speculation = true;
  ClusterContext ctx(cfg);
  // A slow node draws speculative duplicates; another dies mid-stage.
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kSlowdown, 0.0, 1, 8.0});
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kKill, 0.3, 2, 1.0});
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 4000; ++i) data.emplace_back(i % 100, 1);
  auto rdd = ctx.Parallelize(data, 8);
  auto first = ReduceByKey(rdd, [](int64_t a, int64_t b) { return a + b; }, 6);
  RddPtr<std::pair<int64_t, int64_t>> rekeyed =
      first->Map([](const std::pair<int64_t, int64_t>& kv) {
        return std::make_pair(kv.first % 10, kv.second);
      });
  auto second =
      ReduceByKey(rekeyed, [](int64_t a, int64_t b) { return a + b; }, 4);

  RecordedRun run;
  TraceCollector& tc = ctx.trace_collector();
  if (profiled) {
    EXPECT_TRUE(tc.BeginQuery(ctx.now()));
  }
  auto result = ctx.Collect(second);
  if (profiled) run.profile = tc.EndQuery(ctx.now());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  run.exports = ctx.metrics().TimelineJson() +
                ctx.metrics().PrometheusText(ctx.now(), ctx.cluster());
  run.reports = ctx.metrics().stage_reports();
  run.job = ctx.scheduler().last_job();
  return run;
}

TEST(StageRecordTest, ProfileDoesNotChangeMetricsExports) {
  RecordedRun plain = RunSpeculativeFaultyJob(/*profiled=*/false);
  RecordedRun traced = RunSpeculativeFaultyJob(/*profiled=*/true);
  EXPECT_EQ(plain.exports, traced.exports);
  EXPECT_EQ(plain.job.tasks_launched, traced.job.tasks_launched);
  EXPECT_EQ(plain.job.tasks_failed, traced.job.tasks_failed);
  EXPECT_EQ(plain.job.speculative_tasks, traced.job.speculative_tasks);
  EXPECT_EQ(plain.job.tasks_rerun_missing, traced.job.tasks_rerun_missing);
  // The run exercises what it claims to.
  EXPECT_GT(plain.job.tasks_failed, 0);
  EXPECT_GT(plain.job.speculative_tasks, 0);
}

TEST(StageRecordTest, ProfiledCountsMatchSkewReportAndAttempts) {
  RecordedRun run = RunSpeculativeFaultyJob(/*profiled=*/true);
  ASSERT_NE(run.profile, nullptr);
  ASSERT_EQ(run.profile->stages.size(), run.reports.size());
  int launched = 0, speculative = 0, node_deaths = 0, missing = 0;
  for (const StageTrace& st : run.profile->stages) {
    // Its skew report: reports are in end order, stages in start order.
    const StageSkewReport* report = nullptr;
    for (const StageSkewReport& r : run.reports) {
      if (r.label == st.label && r.start_time == st.start_time &&
          r.end_time == st.end_time) {
        EXPECT_EQ(report, nullptr) << "two reports match " << st.label;
        report = &r;
      }
    }
    ASSERT_NE(report, nullptr) << st.label;
    int walk_committed = 0, walk_speculative = 0, walk_deaths = 0,
        walk_missing = 0;
    for (const TaskTrace& t : st.tasks) {
      walk_committed += t.end == TaskEnd::kCommitted ? 1 : 0;
      walk_speculative += t.speculative ? 1 : 0;
      walk_deaths += t.end == TaskEnd::kNodeDeath ? 1 : 0;
      walk_missing += t.end == TaskEnd::kMissingInput ? 1 : 0;
    }
    EXPECT_EQ(st.committed(), report->tasks) << st.label;
    EXPECT_EQ(st.committed(), walk_committed) << st.label;
    EXPECT_EQ(st.speculative, report->speculative) << st.label;
    EXPECT_EQ(st.speculative, walk_speculative) << st.label;
    EXPECT_EQ(st.node_deaths, report->failed) << st.label;
    EXPECT_EQ(st.node_deaths, walk_deaths) << st.label;
    EXPECT_EQ(st.missing_inputs, walk_missing) << st.label;
    EXPECT_EQ(st.launched, static_cast<int>(st.tasks.size())) << st.label;
    EXPECT_EQ(st.shuffle.buckets, report->shuffle.buckets) << st.label;
    EXPECT_EQ(st.shuffle.culprit, report->shuffle.culprit) << st.label;
    EXPECT_EQ(st.is_map_stage, st.shuffle.buckets > 0) << st.label;
    launched += st.launched;
    speculative += st.speculative;
    node_deaths += st.node_deaths;
    missing += st.missing_inputs;
  }
  // JobMetrics is folded from the same records.
  EXPECT_EQ(run.job.tasks_launched, launched);
  EXPECT_EQ(run.job.speculative_tasks, speculative);
  EXPECT_EQ(run.job.tasks_failed, node_deaths);
  EXPECT_EQ(run.job.tasks_rerun_missing, missing);
  EXPECT_GT(speculative, 0);
  EXPECT_GT(node_deaths, 0);
}

}  // namespace
}  // namespace shark
