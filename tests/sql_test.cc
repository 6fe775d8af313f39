#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "sql/session.h"

namespace shark {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig cfg;
    cfg.num_nodes = 4;
    cfg.hardware.cores_per_node = 2;
    session_ = std::make_unique<SharkSession>(
        std::make_shared<ClusterContext>(cfg));

    // rankings(pageURL STRING, pageRank BIGINT, avgDuration BIGINT)
    Schema rankings({{"pageURL", TypeKind::kString},
                     {"pageRank", TypeKind::kInt64},
                     {"avgDuration", TypeKind::kInt64}});
    std::vector<Row> rrows;
    for (int i = 0; i < 100; ++i) {
      rrows.push_back(Row({Value::String("url" + std::to_string(i)),
                           Value::Int64(i), Value::Int64(i % 10)}));
    }
    ASSERT_TRUE(session_->CreateDfsTable("rankings", rankings, rrows, 4).ok());

    // visits(destURL STRING, sourceIP STRING, adRevenue DOUBLE, visitDate DATE)
    Schema visits({{"destURL", TypeKind::kString},
                   {"sourceIP", TypeKind::kString},
                   {"adRevenue", TypeKind::kDouble},
                   {"visitDate", TypeKind::kDate}});
    std::vector<Row> vrows;
    int64_t base_date = Value::ParseDate("2000-01-10")->int64_v();
    for (int i = 0; i < 300; ++i) {
      vrows.push_back(
          Row({Value::String("url" + std::to_string(i % 50)),
               Value::String("ip" + std::to_string(i % 7)),
               Value::Double(1.0 + (i % 4)),
               Value::Date(base_date + i % 20)}));
    }
    ASSERT_TRUE(session_->CreateDfsTable("visits", visits, vrows, 4).ok());
  }

  QueryResult MustQuery(const std::string& sql) {
    auto r = session_->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << sql;
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<SharkSession> session_;
};

TEST_F(SqlTest, SimpleSelection) {
  QueryResult r = MustQuery(
      "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 90");
  EXPECT_EQ(r.rows.size(), 9u);
  EXPECT_EQ(r.schema.num_fields(), 2);
  for (const Row& row : r.rows) {
    EXPECT_GT(row.Get(1).int64_v(), 90);
  }
}

TEST_F(SqlTest, LikeOverTextsHoldingPercent) {
  // A pattern '%' stays a wildcard where the text itself holds '%', on the
  // row path (DFS) and on string views (cached columnar).
  Schema promos({{"label", TypeKind::kString}});
  std::vector<Row> rows;
  for (const char* label : {"50% off", "%x", "a%b", "a%", "ab", "100%"}) {
    rows.push_back(Row({Value::String(label)}));
  }
  ASSERT_TRUE(session_->CreateDfsTable("promos", promos, rows, 2).ok());
  auto labels = [&](const std::string& sql) {
    std::multiset<std::string> out;
    for (const Row& row : MustQuery(sql).rows) out.insert(row.Get(0).str());
    return out;
  };
  for (int cached = 0; cached < 2; ++cached) {
    if (cached == 1) {
      ASSERT_TRUE(session_->CacheTable("promos").ok());
    }
    EXPECT_EQ(labels("SELECT label FROM promos WHERE label LIKE 'a%'"),
              (std::multiset<std::string>{"a%b", "a%", "ab"}));
    EXPECT_EQ(labels("SELECT label FROM promos WHERE label LIKE '%%'").size(),
              6u);
    EXPECT_EQ(labels("SELECT label FROM promos WHERE label LIKE '%0%'"),
              (std::multiset<std::string>{"50% off", "100%"}));
    EXPECT_EQ(labels("SELECT label FROM promos WHERE label LIKE 'a%b'"),
              (std::multiset<std::string>{"a%b", "ab"}));
    EXPECT_EQ(labels("SELECT label FROM promos WHERE label NOT LIKE '%x'"),
              (std::multiset<std::string>{"50% off", "a%b", "a%", "ab",
                                          "100%"}));
  }
}

TEST_F(SqlTest, ProjectionExpressions) {
  QueryResult r = MustQuery(
      "SELECT pageRank * 2 + 1 AS x FROM rankings WHERE pageRank = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Get(0), Value::Int64(21));
  EXPECT_EQ(r.schema.field(0).name, "x");
}

TEST_F(SqlTest, SelectStar) {
  QueryResult r = MustQuery("SELECT * FROM rankings WHERE pageRank < 3");
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.schema.num_fields(), 3);
}

TEST_F(SqlTest, GlobalAggregates) {
  QueryResult r = MustQuery(
      "SELECT COUNT(*), SUM(pageRank), MIN(pageRank), MAX(pageRank), "
      "AVG(pageRank) FROM rankings");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Get(0), Value::Int64(100));
  EXPECT_EQ(r.rows[0].Get(1), Value::Int64(4950));
  EXPECT_EQ(r.rows[0].Get(2), Value::Int64(0));
  EXPECT_EQ(r.rows[0].Get(3), Value::Int64(99));
  EXPECT_DOUBLE_EQ(r.rows[0].Get(4).double_v(), 49.5);
}

TEST_F(SqlTest, GroupByAggregation) {
  QueryResult r = MustQuery(
      "SELECT sourceIP, SUM(adRevenue) FROM visits GROUP BY sourceIP");
  EXPECT_EQ(r.rows.size(), 7u);
  double total = 0;
  for (const Row& row : r.rows) total += row.Get(1).double_v();
  // Sum over all rows: revenue pattern 1..4 repeating over 300 rows.
  double expected = 0;
  for (int i = 0; i < 300; ++i) expected += 1.0 + (i % 4);
  EXPECT_DOUBLE_EQ(total, expected);
}

TEST_F(SqlTest, GroupByExpressionSubstr) {
  QueryResult r = MustQuery(
      "SELECT SUBSTR(sourceIP, 1, 3), COUNT(*) FROM visits "
      "GROUP BY SUBSTR(sourceIP, 1, 3)");
  // All IPs start with "ip0".."ip6"; SUBSTR(.,1,3) yields "ip0".."ip6".
  EXPECT_EQ(r.rows.size(), 7u);
}

TEST_F(SqlTest, CountDistinct) {
  QueryResult r = MustQuery(
      "SELECT COUNT(DISTINCT sourceIP) FROM visits");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Get(0), Value::Int64(7));
}

TEST_F(SqlTest, HavingFilter) {
  QueryResult r = MustQuery(
      "SELECT sourceIP, COUNT(*) AS c FROM visits GROUP BY sourceIP "
      "HAVING COUNT(*) > 42");
  // 300 rows over 7 IPs: ips 0..5 appear 43 times, ip6 appears 42.
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST_F(SqlTest, OrderByWithLimit) {
  QueryResult r = MustQuery(
      "SELECT pageURL, pageRank FROM rankings ORDER BY pageRank DESC LIMIT 5");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0].Get(1), Value::Int64(99));
  EXPECT_EQ(r.rows[4].Get(1), Value::Int64(95));
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LE(r.rows[i].Get(1).int64_v(), r.rows[i - 1].Get(1).int64_v());
  }
}

TEST_F(SqlTest, OrderByAscendingFullSort) {
  QueryResult r = MustQuery("SELECT pageRank FROM rankings ORDER BY pageRank");
  ASSERT_EQ(r.rows.size(), 100u);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_EQ(r.rows[i].Get(0), Value::Int64(static_cast<int64_t>(i)));
  }
}

TEST_F(SqlTest, OrderByAggregateOfSelectList) {
  // avgDuration = pageRank % 10: keys 0..4 hold 3 of the 25 rows, 5..9 hold 2.
  QueryResult r = MustQuery(
      "SELECT avgDuration, COUNT(*) FROM rankings WHERE pageRank < 25 "
      "GROUP BY avgDuration ORDER BY COUNT(*) DESC");
  ASSERT_EQ(r.rows.size(), 10u);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    const bool big = i < 5;
    EXPECT_EQ(r.rows[i].Get(1), Value::Int64(big ? 3 : 2)) << i;
    EXPECT_EQ(r.rows[i].Get(0).int64_v() < 5, big) << i;
  }
  // An aggregate sort key must name a select item: MAX(pageRank) is not one.
  auto missing = session_->Sql(
      "SELECT avgDuration FROM rankings GROUP BY avgDuration "
      "ORDER BY MAX(pageRank)");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kAnalysisError);
}

TEST_F(SqlTest, LimitWithoutOrder) {
  QueryResult r = MustQuery("SELECT * FROM rankings LIMIT 7");
  EXPECT_EQ(r.rows.size(), 7u);
}

TEST_F(SqlTest, Distinct) {
  QueryResult r = MustQuery("SELECT DISTINCT sourceIP FROM visits");
  EXPECT_EQ(r.rows.size(), 7u);
}

TEST_F(SqlTest, ExplicitJoin) {
  QueryResult r = MustQuery(
      "SELECT r.pageURL, r.pageRank, v.adRevenue FROM rankings r "
      "JOIN visits v ON r.pageURL = v.destURL WHERE r.pageRank < 5");
  // urls 0..4 each visited 6 times (300 visits over 50 urls).
  EXPECT_EQ(r.rows.size(), 30u);
  for (const Row& row : r.rows) {
    EXPECT_LT(row.Get(1).int64_v(), 5);
  }
}

TEST_F(SqlTest, CommaJoinWithDateBetween) {
  QueryResult r = MustQuery(
      "SELECT sourceIP, AVG(pageRank), SUM(adRevenue) AS totalRevenue "
      "FROM rankings AS R, visits AS UV "
      "WHERE R.pageURL = UV.destURL AND UV.visitDate BETWEEN "
      "Date('2000-01-10') AND Date('2000-01-15') GROUP BY UV.sourceIP");
  EXPECT_GT(r.rows.size(), 0u);
  EXPECT_LE(r.rows.size(), 7u);
}

TEST_F(SqlTest, JoinStrategyRecordedInMetrics) {
  QueryResult r = MustQuery(
      "SELECT COUNT(*) FROM rankings r JOIN visits v ON r.pageURL = v.destURL");
  EXPECT_FALSE(r.metrics.join_strategy.empty());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Get(0), Value::Int64(300));
}

TEST_F(SqlTest, SubqueryInFrom) {
  QueryResult r = MustQuery(
      "SELECT c FROM (SELECT sourceIP, COUNT(*) AS c FROM visits "
      "GROUP BY sourceIP) t WHERE c > 42");
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST_F(SqlTest, CaseExpression) {
  QueryResult r = MustQuery(
      "SELECT CASE WHEN pageRank > 50 THEN 'high' ELSE 'low' END AS bucket, "
      "COUNT(*) FROM rankings GROUP BY CASE WHEN pageRank > 50 THEN 'high' "
      "ELSE 'low' END");
  ASSERT_EQ(r.rows.size(), 2u);
  std::map<std::string, int64_t> got;
  for (const Row& row : r.rows) got[row.Get(0).str()] = row.Get(1).int64_v();
  EXPECT_EQ(got["high"], 49);
  EXPECT_EQ(got["low"], 51);
}

TEST_F(SqlTest, UdfInQuery) {
  ASSERT_TRUE(session_->udfs()
                  .Register("RANK_BAND",
                            {[](const std::vector<Value>& args) {
                               return Value::Int64(args[0].AsInt64() / 10);
                             },
                             TypeKind::kInt64, 4.0})
                  .ok());
  QueryResult r = MustQuery(
      "SELECT RANK_BAND(pageRank), COUNT(*) FROM rankings "
      "GROUP BY RANK_BAND(pageRank)");
  EXPECT_EQ(r.rows.size(), 10u);
}

TEST_F(SqlTest, CachedTableReturnsSameResults) {
  QueryResult disk = MustQuery(
      "SELECT sourceIP, SUM(adRevenue) FROM visits GROUP BY sourceIP");
  ASSERT_TRUE(session_->CacheTable("visits").ok());
  QueryResult mem = MustQuery(
      "SELECT sourceIP, SUM(adRevenue) FROM visits GROUP BY sourceIP");
  auto key = [](const Row& r) { return r.Get(0).str(); };
  std::map<std::string, double> a, b;
  for (const Row& r : disk.rows) a[key(r)] = r.Get(1).double_v();
  for (const Row& r : mem.rows) b[key(r)] = r.Get(1).double_v();
  EXPECT_EQ(a, b);
}

TEST_F(SqlTest, CachedScanIsFasterThanDisk) {
  QueryResult disk = MustQuery("SELECT COUNT(*) FROM visits");
  ASSERT_TRUE(session_->CacheTable("visits").ok());
  QueryResult mem = MustQuery("SELECT COUNT(*) FROM visits");
  EXPECT_LT(mem.metrics.virtual_seconds, disk.metrics.virtual_seconds);
}

TEST_F(SqlTest, UncacheTableStatementRestoresDiskScan) {
  QueryResult disk = MustQuery("SELECT COUNT(*) FROM visits");
  ASSERT_TRUE(session_->CacheTable("visits").ok());
  QueryResult mem = MustQuery("SELECT COUNT(*) FROM visits");
  EXPECT_LT(mem.metrics.virtual_seconds, disk.metrics.virtual_seconds);

  MustQuery("UNCACHE TABLE visits");
  QueryResult after = MustQuery("SELECT COUNT(*) FROM visits");
  // Back to the DFS path: same rows, disk-speed scan again.
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0].Get(0).int64_v(), disk.rows[0].Get(0).int64_v());
  EXPECT_DOUBLE_EQ(after.metrics.virtual_seconds,
                   disk.metrics.virtual_seconds);

  // Uncaching an uncached table is a no-op; a missing table is an error.
  EXPECT_TRUE(session_->Sql("UNCACHE TABLE visits").ok());
  EXPECT_FALSE(session_->Sql("UNCACHE TABLE nope").ok());
}

TEST_F(SqlTest, MapPruningSkipsPartitions) {
  // pageRank correlates with row order, so cached partitions have tight
  // ranges; an equality predicate should prune most partitions.
  ASSERT_TRUE(session_->CacheTable("rankings").ok());
  QueryResult r = MustQuery("SELECT * FROM rankings WHERE pageRank = 57");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_GT(r.metrics.partitions_pruned, 0);
  // Correctness must be unaffected with pruning disabled.
  session_->options().map_pruning = false;
  QueryResult r2 = MustQuery("SELECT * FROM rankings WHERE pageRank = 57");
  EXPECT_EQ(r2.rows.size(), 1u);
  EXPECT_EQ(r2.metrics.partitions_pruned, 0);
  session_->options().map_pruning = true;
}

TEST_F(SqlTest, CreateTableAsSelectCached) {
  QueryResult r = MustQuery(
      "CREATE TABLE top_pages TBLPROPERTIES (\"shark.cache\"=true) AS "
      "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 80");
  EXPECT_TRUE(r.rows.empty());
  QueryResult q = MustQuery("SELECT COUNT(*) FROM top_pages");
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_EQ(q.rows[0].Get(0), Value::Int64(19));
}

TEST_F(SqlTest, CreateTableAsSelectOnDisk) {
  MustQuery(
      "CREATE TABLE copies AS SELECT pageURL FROM rankings WHERE "
      "pageRank < 10");
  QueryResult q = MustQuery("SELECT COUNT(*) FROM copies");
  EXPECT_EQ(q.rows[0].Get(0), Value::Int64(10));
}

TEST_F(SqlTest, CoPartitionedJoinUsed) {
  MustQuery(
      "CREATE TABLE r_mem TBLPROPERTIES (\"shark.cache\"=true) AS "
      "SELECT * FROM rankings DISTRIBUTE BY pageURL");
  MustQuery(
      "CREATE TABLE v_mem TBLPROPERTIES (\"shark.cache\"=true, "
      "\"copartition\"=\"r_mem\") AS SELECT * FROM visits DISTRIBUTE BY "
      "destURL");
  QueryResult r = MustQuery(
      "SELECT COUNT(*) FROM r_mem r JOIN v_mem v ON r.pageURL = v.destURL");
  EXPECT_EQ(r.metrics.join_strategy, "copartition join");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Get(0), Value::Int64(300));
}

TEST_F(SqlTest, DropTable) {
  MustQuery("CREATE TABLE doomed AS SELECT * FROM rankings LIMIT 5");
  MustQuery("DROP TABLE doomed");
  EXPECT_FALSE(session_->Sql("SELECT * FROM doomed").ok());
  EXPECT_TRUE(session_->Sql("DROP TABLE IF EXISTS doomed").ok());
}

TEST_F(SqlTest, Sql2RddReturnsDistributedResult) {
  auto trdd = session_->Sql2Rdd(
      "SELECT pageRank, avgDuration FROM rankings WHERE pageRank >= 50");
  ASSERT_TRUE(trdd.ok()) << trdd.status().ToString();
  EXPECT_EQ(trdd->schema.num_fields(), 2);
  auto rows = session_->context().Collect(trdd->rdd);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 50u);
}

TEST_F(SqlTest, ExplainShowsOptimizedPlan) {
  auto plan = session_->Explain(
      "SELECT pageURL FROM rankings WHERE pageRank > 10");
  ASSERT_TRUE(plan.ok());
  // Predicate pushdown: the filter must be inside the scan.
  EXPECT_NE(plan->find("pushed="), std::string::npos);
  EXPECT_NE(plan->find("Scan rankings"), std::string::npos);
}

TEST_F(SqlTest, AnalysisErrors) {
  EXPECT_FALSE(session_->Sql("SELECT nope FROM rankings").ok());
  EXPECT_FALSE(session_->Sql("SELECT * FROM no_such_table").ok());
  EXPECT_FALSE(session_->Sql("SELECT UNKNOWN_FN(pageRank) FROM rankings").ok());
  EXPECT_FALSE(
      session_->Sql("SELECT pageURL, SUM(pageRank) FROM rankings").ok());
}

TEST_F(SqlTest, PdeChoosesReducers) {
  QueryResult r = MustQuery(
      "SELECT destURL, COUNT(*) FROM visits GROUP BY destURL");
  EXPECT_GT(r.metrics.chosen_reducers, 0);
  EXPECT_EQ(r.rows.size(), 50u);
}

TEST_F(SqlTest, StaticVsPdeSameAnswer) {
  QueryResult pde = MustQuery(
      "SELECT destURL, COUNT(*) FROM visits GROUP BY destURL");
  session_->options().pde = false;
  QueryResult fixed = MustQuery(
      "SELECT destURL, COUNT(*) FROM visits GROUP BY destURL");
  session_->options().pde = true;
  std::map<std::string, int64_t> a, b;
  for (const Row& r : pde.rows) a[r.Get(0).str()] = r.Get(1).int64_v();
  for (const Row& r : fixed.rows) b[r.Get(0).str()] = r.Get(1).int64_v();
  EXPECT_EQ(a, b);
}

TEST_F(SqlTest, QueryCorrectUnderNodeFailure) {
  ASSERT_TRUE(session_->CacheTable("visits").ok());
  MustQuery("SELECT COUNT(*) FROM visits");  // warm the cache
  session_->context().InjectFault(
      FaultEvent{FaultEvent::Kind::kKill, session_->context().now(), 1, 1.0});
  QueryResult r = MustQuery(
      "SELECT sourceIP, COUNT(*) FROM visits GROUP BY sourceIP");
  EXPECT_EQ(r.rows.size(), 7u);
  int64_t total = 0;
  for (const Row& row : r.rows) total += row.Get(1).int64_v();
  EXPECT_EQ(total, 300);
}

// ExecOptions::host_threads governs every RDD an executor builds, not only
// SELECTs: with host_threads = 1, a CTAS and a sql2rdd RDD run every task
// body on the calling thread, even when the context was parallel before.
// The UDF sleeps so that, were a pool running, its workers would claim
// tasks before the helping caller drains them all.
TEST_F(SqlTest, SerialHostThreadsCoverCtasAndSql2Rdd) {
  Schema schema({{"k", TypeKind::kInt64}, {"v", TypeKind::kInt64}});
  std::vector<Row> rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back(Row({Value::Int64(i % 16), Value::Int64(i)}));
  }
  ASSERT_TRUE(session_->CreateDfsTable("wide", schema, rows, 16).ok());
  struct Seen {
    std::mutex mu;
    std::set<std::thread::id> ids;
  };
  auto seen = std::make_shared<Seen>();
  UdfRegistry::UdfInfo tid;
  tid.return_type = TypeKind::kInt64;
  tid.fn = [seen](const std::vector<Value>& args) -> Value {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    std::lock_guard<std::mutex> lock(seen->mu);
    seen->ids.insert(std::this_thread::get_id());
    return args[0];
  };
  ASSERT_TRUE(session_->udfs().Register("TID", tid).ok());
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};

  session_->context().set_host_threads(4);
  session_->options().host_threads = 1;
  MustQuery(
      "CREATE TABLE ctas_serial TBLPROPERTIES ('shark.cache'='true') AS "
      "SELECT k, TID(v) AS v FROM wide");
  EXPECT_EQ(seen->ids, caller);
  QueryResult count = MustQuery("SELECT COUNT(*) FROM ctas_serial");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0].Get(0).int64_v(), 400);

  seen->ids.clear();
  session_->context().set_host_threads(4);
  auto table = session_->Sql2Rdd("SELECT k, TID(v) FROM wide");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto collected = session_->context().Collect(table->rdd);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 400u);
  EXPECT_EQ(seen->ids, caller);
}

}  // namespace
}  // namespace shark
