// Shuffle lifetime: a shuffle's map outputs (and their shuffle-ledger bytes)
// live exactly as long as some lineage reaches its ShuffleDependency — a
// running query's RDD graph, a cached table built through DISTRIBUTE BY, or
// a held sql2rdd handle — and are dropped at the end of the first statement
// or job after that lineage dies.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/memory_manager.h"
#include "rdd/context.h"
#include "rdd/job_manager.h"
#include "rdd/pair_rdd.h"
#include "sql/session.h"

namespace shark {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  return cfg;
}

bool RanMapStage(const QueryResult& r) {
  if (r.profile == nullptr) return false;
  for (const StageTrace& st : r.profile->stages) {
    if (st.is_map_stage) return true;
  }
  return false;
}

class ShuffleLifetimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = std::make_shared<ClusterContext>(SmallConfig());
    session_ = std::make_unique<SharkSession>(ctx_);
    ASSERT_TRUE(LoadTables(session_.get()).ok());
    // Tiny tables would otherwise map-join every join.
    session_->options().broadcast_threshold_bytes = 0;
    UdfRegistry::UdfInfo boom;
    boom.return_type = TypeKind::kInt64;
    boom.fn = [](const std::vector<Value>& args) -> Value {
      if (!args[0].is_null() && args[0].int64_v() == 13) {
        throw std::runtime_error("boom");
      }
      return args[0];
    };
    ASSERT_TRUE(session_->udfs().Register("BOOM", boom).ok());
    start_shuffles_ = LiveShuffles();
    start_ledger_ = LedgerBytes();
  }

  // Tables `t<suffix>` and `u<suffix>`; sessions on one cluster share its
  // DFS, so each session loads its own names.
  static Status LoadTables(SharkSession* session,
                           const std::string& suffix = "") {
    Schema t({{"k", TypeKind::kInt64}, {"v", TypeKind::kInt64}});
    Schema u({{"k", TypeKind::kInt64}, {"w", TypeKind::kInt64}});
    std::vector<Row> trows;
    std::vector<Row> urows;
    for (int i = 0; i < 400; ++i) {
      trows.push_back(Row({Value::Int64(i % 16), Value::Int64(i)}));
      urows.push_back(Row({Value::Int64(i % 32), Value::Int64(2 * i)}));
    }
    SHARK_RETURN_NOT_OK(session->CreateDfsTable("t" + suffix, t, trows, 8));
    return session->CreateDfsTable("u" + suffix, u, urows, 8);
  }

  size_t LiveShuffles() const { return ctx_->shuffle_manager().num_shuffles(); }
  uint64_t LedgerBytes() const {
    return ctx_->memory_manager().total_shuffle_bytes();
  }

  QueryResult MustQuery(const std::string& sql) {
    auto r = session_->Sql(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  std::shared_ptr<ClusterContext> ctx_;
  std::unique_ptr<SharkSession> session_;
  size_t start_shuffles_ = 0;
  uint64_t start_ledger_ = 0;
};

TEST_F(ShuffleLifetimeTest, MixedQueriesReturnToStartingState) {
  const std::vector<std::string> queries = {
      "SELECT k, COUNT(*) FROM t GROUP BY k",
      "SELECT t.k, SUM(u.w) FROM t JOIN u ON t.k = u.k GROUP BY t.k",
      "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s DESC",
  };
  for (int round = 0; round < 3; ++round) {
    for (const std::string& sql : queries) {
      QueryResult r = MustQuery(sql);
      EXPECT_TRUE(RanMapStage(r)) << sql;
      EXPECT_EQ(LiveShuffles(), start_shuffles_) << sql;
      EXPECT_EQ(LedgerBytes(), start_ledger_) << sql;
    }
    // A query that dies after earlier map tasks committed their outputs.
    auto failed = session_->Sql("SELECT BOOM(k), COUNT(*) FROM t GROUP BY k");
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(LiveShuffles(), start_shuffles_);
    EXPECT_EQ(LedgerBytes(), start_ledger_);
  }
  QueryResult join =
      MustQuery("SELECT COUNT(*) FROM t JOIN u ON t.k = u.k");
  EXPECT_NE(join.metrics.join_strategy.find("shuffle join"), std::string::npos)
      << join.metrics.join_strategy;
  ASSERT_EQ(join.rows.size(), 1u);
  // t holds 25 rows of each key 0-15; u holds 13 rows of each key 0-15.
  EXPECT_EQ(join.rows[0].Get(0), Value::Int64(16 * 25 * 13));
}

// GROUP BY shuffles ship one GroupBatch per map task, its buckets aliasing
// slices of it. Over both map sides (the row path over a DFS table, the
// columnar path over a cached one) and a global aggregate, every statement
// end frees them: the shuffle count and the shuffle ledger return to their
// starting values.
TEST_F(ShuffleLifetimeTest, GroupByBatchesAreFreedAtStatementEnd) {
  ASSERT_TRUE(session_->CacheTable("u").ok());
  start_shuffles_ = LiveShuffles();
  start_ledger_ = LedgerBytes();
  const std::vector<std::string> queries = {
      "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY k",
      "SELECT k, AVG(w), COUNT(DISTINCT w) FROM u GROUP BY k",
      "SELECT SUM(w), COUNT(*) FROM u WHERE w > 100",
      "SELECT k % 3, SUM(v) FROM t GROUP BY k % 3",
  };
  for (int round = 0; round < 2; ++round) {
    for (const std::string& sql : queries) {
      QueryResult r = MustQuery(sql);
      EXPECT_TRUE(RanMapStage(r)) << sql;
      EXPECT_FALSE(r.rows.empty()) << sql;
      EXPECT_EQ(LiveShuffles(), start_shuffles_) << sql;
      EXPECT_EQ(LedgerBytes(), start_ledger_) << sql;
    }
  }
}

// A node killed between the map and reduce stages of a GROUP BY loses the
// GroupBatch outputs it held. The victim also runs the reduce task, so the
// retried reduce task's fetch finds them missing and the scheduler
// recomputes them from lineage. The answer is the no-failure run's, row for
// row, on both map sides.
TEST_F(ShuffleLifetimeTest, GroupByRecomputesLostBatchesAfterNodeDeath) {
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "columnar map side" : "row map side");
    const std::string sql =
        "SELECT k, COUNT(*), SUM(w), AVG(w), MAX(w) FROM u GROUP BY k";
    // Two identical clusters: the first runs the query undisturbed and
    // times its stages; the second loses a node as the reduce stage starts.
    auto make = [&](std::shared_ptr<ClusterContext>* ctx,
                    std::unique_ptr<SharkSession>* session) {
      *ctx = std::make_shared<ClusterContext>(SmallConfig());
      *session = std::make_unique<SharkSession>(*ctx);
      ASSERT_TRUE(LoadTables(session->get()).ok());
      (*session)->options().broadcast_threshold_bytes = 0;
      if (cached) {
        ASSERT_TRUE((*session)->CacheTable("u").ok());
      }
    };
    std::shared_ptr<ClusterContext> base_ctx, fault_ctx;
    std::unique_ptr<SharkSession> base, faulty;
    make(&base_ctx, &base);
    make(&fault_ctx, &faulty);
    auto clean = base->Sql(sql);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_NE(clean->profile, nullptr);
    const StageTrace* map_stage = nullptr;
    const StageTrace* reduce_stage = nullptr;
    for (const StageTrace& st : clean->profile->stages) {
      if (st.is_map_stage && st.label.find("aggKey") != std::string::npos) {
        map_stage = &st;
      } else if (map_stage != nullptr && reduce_stage == nullptr) {
        reduce_stage = &st;
      }
    }
    ASSERT_NE(map_stage, nullptr);
    ASSERT_NE(reduce_stage, nullptr);
    ASSERT_FALSE(reduce_stage->tasks.empty());
    const int victim = reduce_stage->tasks.front().node;
    bool victim_ran_map_task = false;
    for (const TaskTrace& t : map_stage->tasks) {
      victim_ran_map_task = victim_ran_map_task || t.node == victim;
    }
    ASSERT_TRUE(victim_ran_map_task);
    fault_ctx->InjectFault(FaultEvent{FaultEvent::Kind::kKill,
                                      map_stage->end_time + 1e-9, victim, 1.0});
    const size_t start_shuffles = fault_ctx->shuffle_manager().num_shuffles();
    const uint64_t start_ledger =
        fault_ctx->memory_manager().total_shuffle_bytes();
    auto recovered = faulty->Sql(sql);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_GT(recovered->metrics.tasks_failed, 0);
    EXPECT_GT(recovered->metrics.map_tasks_recovered, 0);
    EXPECT_EQ(recovered->rows, clean->rows);
    EXPECT_EQ(fault_ctx->shuffle_manager().num_shuffles(), start_shuffles);
    EXPECT_EQ(fault_ctx->memory_manager().total_shuffle_bytes(), start_ledger);
  }
}

// Shuffle joins ship one JoinBatch per map task, its buckets aliasing slices
// of it. Static and PDE lowerings, inner and outer: every statement end frees
// them, so the shuffle count and the shuffle ledger return to their starting
// values.
TEST_F(ShuffleLifetimeTest, JoinBatchesAreFreedAtStatementEnd) {
  const std::vector<std::string> queries = {
      "SELECT t.k, v, w FROM t JOIN u ON t.k = u.k",
      "SELECT t.k, v, w FROM t LEFT OUTER JOIN u ON t.v = u.w",
      "SELECT u.k, w, v FROM t RIGHT OUTER JOIN u ON t.v = u.w",
      "SELECT t.k, SUM(w) FROM t JOIN u ON t.k = u.k GROUP BY t.k",
  };
  for (JoinOptimization mode :
       {JoinOptimization::kStatic, JoinOptimization::kAdaptive,
        JoinOptimization::kStaticAdaptive}) {
    session_->options().join_opt = mode;
    for (const std::string& sql : queries) {
      QueryResult r = MustQuery(sql);
      EXPECT_NE(r.metrics.join_strategy.find("shuffle join"),
                std::string::npos)
          << sql << ": " << r.metrics.join_strategy;
      EXPECT_FALSE(r.rows.empty()) << sql;
      EXPECT_EQ(LiveShuffles(), start_shuffles_) << sql;
      EXPECT_EQ(LedgerBytes(), start_ledger_) << sql;
    }
  }
}

// A node killed between the map and reduce stages of a shuffle join loses
// the JoinBatch outputs it held. The victim also runs a reduce task, so the
// retried task's fetch finds them missing and the scheduler recomputes them
// from lineage. The answer is the no-failure run's, row for row, under the
// static lowering (map stages in the query's job) and the PDE one (map
// stages run ahead as pre-shuffles).
TEST_F(ShuffleLifetimeTest, JoinRecomputesLostBatchesAfterNodeDeath) {
  for (JoinOptimization mode :
       {JoinOptimization::kStatic, JoinOptimization::kAdaptive}) {
    SCOPED_TRACE(mode == JoinOptimization::kStatic ? "static" : "adaptive");
    const std::string sql =
        "SELECT t.k, v, w FROM t LEFT OUTER JOIN u ON t.k = u.k";
    auto make = [&](std::shared_ptr<ClusterContext>* ctx,
                    std::unique_ptr<SharkSession>* session) {
      *ctx = std::make_shared<ClusterContext>(SmallConfig());
      *session = std::make_unique<SharkSession>(*ctx);
      ASSERT_TRUE(LoadTables(session->get()).ok());
      (*session)->options().broadcast_threshold_bytes = 0;
      (*session)->options().join_opt = mode;
    };
    std::shared_ptr<ClusterContext> base_ctx, fault_ctx;
    std::unique_ptr<SharkSession> base, faulty;
    make(&base_ctx, &base);
    make(&fault_ctx, &faulty);
    auto clean = base->Sql(sql);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_NE(clean->profile, nullptr);
    // The last join map stage, the reduce stage after it, and the nodes
    // that hold join map outputs.
    const StageTrace* map_stage = nullptr;
    const StageTrace* reduce_stage = nullptr;
    std::vector<int> map_nodes;
    for (const StageTrace& st : clean->profile->stages) {
      if (st.is_map_stage && st.label.find("joinKey") != std::string::npos) {
        map_stage = &st;
        reduce_stage = nullptr;
        for (const TaskTrace& t : st.tasks) map_nodes.push_back(t.node);
      } else if (map_stage != nullptr && reduce_stage == nullptr) {
        reduce_stage = &st;
      }
    }
    ASSERT_NE(map_stage, nullptr);
    ASSERT_NE(reduce_stage, nullptr);
    ASSERT_FALSE(reduce_stage->tasks.empty());
    const int victim = reduce_stage->tasks.front().node;
    ASSERT_NE(std::find(map_nodes.begin(), map_nodes.end(), victim),
              map_nodes.end());
    fault_ctx->InjectFault(FaultEvent{FaultEvent::Kind::kKill,
                                      map_stage->end_time + 1e-9, victim, 1.0});
    const size_t start_shuffles = fault_ctx->shuffle_manager().num_shuffles();
    const uint64_t start_ledger =
        fault_ctx->memory_manager().total_shuffle_bytes();
    auto recovered = faulty->Sql(sql);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_GT(recovered->metrics.tasks_failed, 0);
    EXPECT_GT(recovered->metrics.map_tasks_recovered, 0);
    EXPECT_EQ(recovered->rows, clean->rows);
    EXPECT_EQ(fault_ctx->shuffle_manager().num_shuffles(), start_shuffles);
    EXPECT_EQ(fault_ctx->memory_manager().total_shuffle_bytes(), start_ledger);
  }
}

// A cached DISTRIBUTE BY table keeps the shuffle its partitions were built
// from: that shuffle is the table's lineage. Killing the node that holds one
// of its cached partitions after the CTAS returned must recompute that
// partition through the shuffle and still give the right answer (§6.3.3).
TEST_F(ShuffleLifetimeTest, DistributeByCtasKeepsShuffleForRecovery) {
  MustQuery(
      "CREATE TABLE t_mem TBLPROPERTIES ('shark.cache'='true') AS "
      "SELECT * FROM t DISTRIBUTE BY k");
  const size_t kept = LiveShuffles();
  EXPECT_GT(kept, start_shuffles_);
  EXPECT_GT(LedgerBytes(), start_ledger_);

  // A filtered scan has no shuffle of its own: any map stage it runs
  // recomputes the table's shuffle.
  const std::string sql = "SELECT k, v FROM t_mem WHERE v >= 0";
  QueryResult before = MustQuery(sql);
  EXPECT_EQ(before.rows.size(), 400u);
  EXPECT_FALSE(RanMapStage(before));
  MustQuery("SELECT k, COUNT(*) FROM t_mem GROUP BY k");
  // Queries over the table come and go; the table's shuffle stays.
  EXPECT_EQ(LiveShuffles(), kept);

  auto info = session_->catalog().Get("t_mem");
  ASSERT_TRUE(info.ok());
  const int rdd_id = (*info)->cached_rdd->id();
  const int victim = ctx_->block_manager().Location(rdd_id, 0);
  ASSERT_GE(victim, 0);
  ctx_->InjectFault(
      FaultEvent{FaultEvent::Kind::kKill, ctx_->now() + 1e-3, victim, 1.0});

  QueryResult after = MustQuery(sql);
  EXPECT_EQ(after.rows, before.rows);
  EXPECT_GT(after.metrics.tasks_failed, 0);
  EXPECT_GT(after.metrics.map_tasks_recovered, 0);
  EXPECT_TRUE(RanMapStage(after));
  EXPECT_EQ(LiveShuffles(), kept);
}

TEST_F(ShuffleLifetimeTest, DropTableReleasesItsShuffle) {
  MustQuery(
      "CREATE TABLE t_mem TBLPROPERTIES ('shark.cache'='true') AS "
      "SELECT * FROM t DISTRIBUTE BY k");
  EXPECT_GT(LiveShuffles(), start_shuffles_);
  MustQuery("DROP TABLE t_mem");
  EXPECT_EQ(LiveShuffles(), start_shuffles_);
  EXPECT_EQ(LedgerBytes(), start_ledger_);
}

TEST_F(ShuffleLifetimeTest, Sql2RddHandleKeepsShufflesUntilDestroyed) {
  {
    auto handle = session_->Sql2Rdd("SELECT k, COUNT(*) FROM t GROUP BY k");
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    auto rows = ctx_->Collect(handle->rdd);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 16u);
    const size_t held = LiveShuffles();
    EXPECT_GT(held, start_shuffles_);

    // Other statements end (and sweep) while the handle is held.
    MustQuery("SELECT k, COUNT(*) FROM t GROUP BY k");
    EXPECT_EQ(LiveShuffles(), held);
    rows = ctx_->Collect(handle->rdd);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 16u);
  }
  // The handle is gone; the next statement end drops its shuffles.
  MustQuery("SELECT COUNT(*) FROM t");
  EXPECT_EQ(LiveShuffles(), start_shuffles_);
  EXPECT_EQ(LedgerBytes(), start_ledger_);
}

// Two sessions on one cluster, run as concurrent jobs: the short job's
// statement ends — and drops its shuffles — while the long job is mid-stage
// with its own shuffles live. Answers match serial runs and every shuffle is
// gone once both jobs end.
TEST_F(ShuffleLifetimeTest, DrainWhileAnotherJobIsMidStage) {
  SharkSession other(ctx_);
  ASSERT_TRUE(LoadTables(&other, "2").ok());
  other.options().broadcast_threshold_bytes = 0;
  const std::string short_sql = "SELECT k, COUNT(*) FROM t GROUP BY k";
  const std::string long_sql =
      "SELECT t2.k, SUM(u2.w) AS s FROM t2 JOIN u2 ON t2.k = u2.k "
      "GROUP BY t2.k ORDER BY s";
  QueryResult short_serial = MustQuery(short_sql);
  auto long_serial = other.Sql(long_sql);
  ASSERT_TRUE(long_serial.ok()) << long_serial.status().ToString();
  const size_t start = LiveShuffles();

  JobManager jm(ctx_.get());
  std::vector<std::vector<Row>> got(2);
  std::vector<JobSpec> specs(2);
  specs[0].label = "long";
  specs[0].body = [&]() -> Status {
    SHARK_ASSIGN_OR_RETURN(QueryResult r, other.Sql(long_sql));
    got[0] = std::move(r.rows);
    return Status::OK();
  };
  specs[1].label = "short";
  specs[1].body = [&]() -> Status {
    SHARK_ASSIGN_OR_RETURN(QueryResult r, session_->Sql(short_sql));
    got[1] = std::move(r.rows);
    return Status::OK();
  };
  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  ASSERT_TRUE(outcomes[1].status.ok()) << outcomes[1].status.ToString();
  // The short job finished while the long one was still running.
  EXPECT_LT(outcomes[1].finish_vtime, outcomes[0].finish_vtime);
  EXPECT_LT(outcomes[0].admit_vtime, outcomes[1].finish_vtime);
  EXPECT_EQ(got[0], long_serial->rows);
  EXPECT_EQ(got[1], short_serial.rows);
  EXPECT_EQ(LiveShuffles(), start);
  EXPECT_EQ(LedgerBytes(), start_ledger_);
}

// Plain RDD jobs under the JobManager: the job's RDD graph dies with its
// body, and the job end drops its shuffles.
TEST_F(ShuffleLifetimeTest, JobEndDropsRddJobShuffles) {
  JobManager jm(ctx_.get());
  std::vector<JobSpec> specs(1);
  specs[0].label = "rdd";
  specs[0].body = [&]() -> Status {
    std::vector<std::pair<int64_t, int64_t>> data;
    for (int64_t i = 0; i < 100; ++i) data.emplace_back(i % 5, 1);
    auto sums = ReduceByKey(ctx_->Parallelize(data, 4),
                            [](int64_t a, int64_t b) { return a + b; }, 3);
    SHARK_ASSIGN_OR_RETURN(auto rows, ctx_->Collect(sums));
    if (rows.size() != 5u) return Status::Internal("wrong group count");
    if (LiveShuffles() <= start_shuffles_) {
      return Status::Internal("no shuffle registered");
    }
    return Status::OK();
  };
  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_EQ(LiveShuffles(), start_shuffles_);
  EXPECT_EQ(LedgerBytes(), start_ledger_);
}

}  // namespace
}  // namespace shark
