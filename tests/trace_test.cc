// Query-profile observability: the QueryProfile tree recorded by the
// scheduler, its EXPLAIN ANALYZE rendering, and the chrome://tracing export.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace.h"
#include "sql/session.h"

namespace shark {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig cfg;
    cfg.num_nodes = 4;
    cfg.hardware.cores_per_node = 2;
    session_ = std::make_unique<SharkSession>(
        std::make_shared<ClusterContext>(cfg));

    Schema rankings({{"pageURL", TypeKind::kString},
                     {"pageRank", TypeKind::kInt64},
                     {"avgDuration", TypeKind::kInt64}});
    std::vector<Row> rrows;
    for (int i = 0; i < 100; ++i) {
      rrows.push_back(Row({Value::String("url" + std::to_string(i)),
                           Value::Int64(i), Value::Int64(i % 10)}));
    }
    ASSERT_TRUE(session_->CreateDfsTable("rankings", rankings, rrows, 4).ok());

    Schema visits({{"destURL", TypeKind::kString},
                   {"sourceIP", TypeKind::kString},
                   {"adRevenue", TypeKind::kDouble}});
    std::vector<Row> vrows;
    for (int i = 0; i < 300; ++i) {
      vrows.push_back(Row({Value::String("url" + std::to_string(i % 50)),
                           Value::String("ip" + std::to_string(i % 7)),
                           Value::Double(1.0 + (i % 4))}));
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

constexpr const char kJoinAgg[] =
    "SELECT r.pageURL, COUNT(*), SUM(v.adRevenue) "
    "FROM rankings r JOIN visits v ON r.pageURL = v.destURL "
    "WHERE r.pageRank > 10 GROUP BY r.pageURL";

TEST_F(TraceTest, SelectCarriesProfile) {
  QueryResult r = MustQuery("SELECT pageURL FROM rankings WHERE pageRank > 90");
  ASSERT_NE(r.profile, nullptr);
  EXPECT_EQ(r.profile->result_rows, r.rows.size());
  EXPECT_GT(r.profile->duration(), 0.0);
  ASSERT_FALSE(r.profile->stages.empty());
  uint64_t stage_rows = 0;
  for (const StageTrace& st : r.profile->stages) {
    EXPECT_GE(st.end_time, st.start_time);
    EXPECT_GT(st.committed(), 0);
    stage_rows += st.rows_out;
    for (const TaskTrace& t : st.tasks) {
      EXPECT_LE(st.start_time, t.queue_time);
      EXPECT_LE(t.queue_time, t.launch_time);
      EXPECT_LE(t.launch_time, t.run_start);
      EXPECT_LE(t.run_start, t.finish_time);
      EXPECT_GE(t.node, 0);
      EXPECT_GE(t.core, 0);
    }
  }
  // The final stage delivers the result rows.
  EXPECT_GE(stage_rows, r.rows.size());
}

TEST_F(TraceTest, JoinAggProfileHasShuffleStages) {
  QueryResult r = MustQuery(kJoinAgg);
  ASSERT_NE(r.profile, nullptr);
  EXPECT_FALSE(r.rows.empty());
  const StageTrace* map_stage = nullptr;
  for (const StageTrace& st : r.profile->stages) {
    if (st.is_map_stage && st.shuffle.buckets > 0) map_stage = &st;
  }
  ASSERT_NE(map_stage, nullptr) << "no map stage with a shuffle summary";
  EXPECT_GE(map_stage->shuffle_id, 0);
  EXPECT_LE(map_stage->shuffle.min_bytes, map_stage->shuffle.p50_bytes);
  EXPECT_LE(map_stage->shuffle.p50_bytes, map_stage->shuffle.p95_bytes);
  EXPECT_LE(map_stage->shuffle.p95_bytes, map_stage->shuffle.max_bytes);
  EXPECT_GT(map_stage->shuffle.total_bytes, 0u);
  EXPECT_GE(map_stage->shuffle.skew, 1.0);
}

TEST_F(TraceTest, CachedScanRecordsCacheHits) {
  ASSERT_TRUE(session_->CacheTable("rankings").ok());
  QueryResult r =
      MustQuery("SELECT pageURL FROM rankings WHERE pageRank > 90");
  ASSERT_NE(r.profile, nullptr);
  auto totals = r.profile->CacheTotals();
  uint64_t hits = 0;
  for (const auto& [rdd_id, c] : totals) hits += c.hit_blocks;
  EXPECT_GT(hits, 0u);
  // The executor names the cached RDD after its table.
  bool named = false;
  for (const auto& [rdd_id, name] : r.profile->rdd_names) {
    if (name == "rankings" && totals.count(rdd_id) > 0) named = true;
  }
  EXPECT_TRUE(named);
  // Cache-local scans on a healthy cluster run on their preferred node. The
  // scan is fused into its consuming stage, so find the stage that actually
  // recorded cache traffic.
  const StageTrace* scan = nullptr;
  for (const StageTrace& st : r.profile->stages) {
    if (!st.cache_by_rdd.empty()) scan = &st;
  }
  ASSERT_NE(scan, nullptr);
  for (const TaskTrace& t : scan->tasks) {
    EXPECT_EQ(t.locality, TaskLocality::kPreferred);
  }
}

TEST_F(TraceTest, ExplainAnalyzeAnnotatesPlan) {
  QueryResult r = MustQuery(std::string("EXPLAIN ANALYZE ") + kJoinAgg);
  ASSERT_EQ(r.schema.num_fields(), 1);
  EXPECT_EQ(r.schema.field(0).name, "plan");
  ASSERT_NE(r.profile, nullptr);
  std::string text;
  for (const Row& row : r.rows) text += row.Get(0).str() + "\n";
  // Plan operators appear...
  EXPECT_NE(text.find("Aggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("Join"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan rankings"), std::string::npos) << text;
  // ...annotated with executed stages carrying rows and virtual-time spans.
  EXPECT_NE(text.find("-> stage"), std::string::npos) << text;
  EXPECT_NE(text.find("rows="), std::string::npos) << text;
  EXPECT_NE(text.find("tasks="), std::string::npos) << text;
  EXPECT_NE(text.find("total:"), std::string::npos) << text;
  // Every recorded stage is accounted for somewhere in the rendering.
  size_t annotations = 0;
  for (size_t pos = text.find("-> stage"); pos != std::string::npos;
       pos = text.find("-> stage", pos + 1)) {
    ++annotations;
  }
  EXPECT_EQ(annotations, r.profile->stages.size()) << text;
}

// The columnar group-by fuses scan, filter and key evaluation into its map
// stage; EXPLAIN ANALYZE still attributes that stage to the Aggregate.
TEST_F(TraceTest, ExplainAnalyzeAttributesVectorizedAggregate) {
  ASSERT_TRUE(session_->CacheTable("visits").ok());
  QueryResult r = MustQuery(
      "EXPLAIN ANALYZE SELECT sourceIP, SUM(adRevenue) FROM visits "
      "GROUP BY sourceIP");
  std::string text;
  for (const Row& row : r.rows) text += row.Get(0).str() + "\n";
  const size_t agg = text.find("Aggregate");
  const size_t map_stage = text.find("[shuffleMap:aggKey:vecScan:visits]");
  const size_t scan = text.find("Scan visits");
  ASSERT_NE(agg, std::string::npos) << text;
  ASSERT_NE(map_stage, std::string::npos) << text;
  EXPECT_LT(agg, map_stage) << text;
  EXPECT_LT(map_stage, scan) << text;
  EXPECT_EQ(text.find("other stages:"), std::string::npos) << text;
}

TEST_F(TraceTest, ExplainAnalyzeAttributesColumnarTopK) {
  ASSERT_TRUE(session_->CacheTable("visits").ok());
  QueryResult r = MustQuery(
      "EXPLAIN ANALYZE SELECT sourceIP, adRevenue FROM visits "
      "ORDER BY adRevenue DESC, sourceIP LIMIT 5");
  std::string text;
  for (const Row& row : r.rows) text += row.Get(0).str() + "\n";
  // The fused scan/project/top-k map task renders under the Sort, and its
  // label names the scanned table; the merge stage follows it. The Scan
  // points to the fused stage.
  const size_t sort = text.find("Sort");
  const size_t map_stage =
      text.find("[shuffleMap:sortPartial:vecScan:visits]");
  const size_t final_stage = text.find("sortFinal");
  const size_t scan = text.find("Scan visits");
  ASSERT_NE(sort, std::string::npos) << text;
  ASSERT_NE(map_stage, std::string::npos) << text;
  ASSERT_NE(final_stage, std::string::npos) << text;
  ASSERT_NE(scan, std::string::npos) << text;
  EXPECT_LT(sort, map_stage) << text;
  EXPECT_LT(map_stage, final_stage) << text;
  EXPECT_LT(final_stage, scan) << text;
  const size_t scan_ref = text.find("-> fused into stage", scan);
  ASSERT_NE(scan_ref, std::string::npos) << text;
  EXPECT_EQ(text.find("[shuffleMap:sortPartial:vecScan:visits]", scan),
            text.find('[', scan_ref))
      << text;
  EXPECT_EQ(text.find("vecScanProject"), std::string::npos) << text;
  EXPECT_EQ(text.find("other stages:"), std::string::npos) << text;
}

TEST_F(TraceTest, PlainExplainDoesNotExecute) {
  QueryResult r = MustQuery(std::string("EXPLAIN ") + kJoinAgg);
  ASSERT_EQ(r.schema.num_fields(), 1);
  EXPECT_EQ(r.profile, nullptr);       // nothing ran
  EXPECT_EQ(r.metrics.tasks, 0);       // no tasks launched
  std::string text;
  for (const Row& row : r.rows) text += row.Get(0).str() + "\n";
  EXPECT_NE(text.find("Join"), std::string::npos) << text;
  EXPECT_EQ(text.find("-> stage"), std::string::npos) << text;
}

TEST_F(TraceTest, ChromeTraceIsWellFormed) {
  QueryResult r = MustQuery(kJoinAgg);
  ASSERT_NE(r.profile, nullptr);
  std::string json = r.profile->ToChromeTrace();
  EXPECT_EQ(json.rfind("{\"traceEvents\":", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Balanced braces/brackets outside strings — cheap structural sanity that
  // catches an unterminated event or a stray comma-producing bug.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at offset " << i;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  // One metadata record per simulated entity, one X event per task attempt.
  size_t tasks = 0;  // only placed tasks get an X event
  for (const StageTrace& st : r.profile->stages) {
    for (const TaskTrace& t : st.tasks) tasks += t.node >= 0 ? 1 : 0;
  }
  size_t x_events = 0;
  for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++x_events;
  }
  EXPECT_EQ(x_events, tasks + r.profile->stages.size());
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("driver"), std::string::npos);
}

TEST_F(TraceTest, NestedQueriesShareOneProfile) {
  // The join query's subquery runs through a nested Executor::Execute; its
  // stages must land in the single outer profile, not a second one.
  QueryResult r = MustQuery(
      "SELECT r.pageURL FROM rankings r "
      "JOIN (SELECT destURL, COUNT(*) AS c FROM visits GROUP BY destURL) v "
      "ON r.pageURL = v.destURL WHERE v.c > 3");
  ASSERT_NE(r.profile, nullptr);
  EXPECT_FALSE(r.rows.empty());
  // Stages from both the subquery's aggregation and the outer join appear.
  bool has_agg = false;
  bool has_join = false;
  for (const StageTrace& st : r.profile->stages) {
    if (st.label.find("agg") != std::string::npos) has_agg = true;
    if (st.label.find("join") != std::string::npos ||
        st.label.find("Join") != std::string::npos) {
      has_join = true;
    }
  }
  EXPECT_TRUE(has_agg);
  EXPECT_TRUE(has_join);
}

TEST(TraceCollectorTest, NestedBeginSharesOuterProfile) {
  TraceCollector tc;
  EXPECT_FALSE(tc.active());
  EXPECT_TRUE(tc.BeginQuery(1.0));
  EXPECT_TRUE(tc.active());
  EXPECT_FALSE(tc.BeginQuery(2.0));  // nested: same profile, not owner
  StageRecord outer_rec{.label = "outer", .start_time = 2.0};
  StageRecord inner_rec{
      .label = "inner", .is_map_stage = true, .shuffle_id = 0,
      .start_time = 2.5};
  int outer = tc.BeginStage(outer_rec);
  int inner = tc.BeginStage(inner_rec);
  EXPECT_EQ(tc.stage(inner)->parent, outer);
  EXPECT_EQ(tc.stage(inner)->shuffle_id, 0);
  inner_rec.end_time = 3.0;
  inner_rec.commits.push_back(StageCommit{0.5, 0, 1});
  tc.EndStage(inner, inner_rec);
  // Ending copies the final record in; the nesting stays the trace's own.
  EXPECT_EQ(tc.stage(inner)->end_time, 3.0);
  EXPECT_EQ(tc.stage(inner)->committed(), 1);
  EXPECT_EQ(tc.stage(inner)->parent, outer);
  outer_rec.end_time = 3.5;
  tc.EndStage(outer, outer_rec);
  auto profile = tc.EndQuery(4.0);
  ASSERT_NE(profile, nullptr);
  EXPECT_FALSE(tc.active());
  EXPECT_EQ(profile->stages.size(), 2u);
  EXPECT_DOUBLE_EQ(profile->start_time, 1.0);
  EXPECT_DOUBLE_EQ(profile->end_time, 4.0);
}

TEST(TraceUtilTest, WorkSummaryRendersNonzeroCounters) {
  TaskWork w;
  EXPECT_EQ(WorkSummary(w), "none");
  w.rows_processed = 42;
  w.disk_read_bytes = 2048;
  std::string s = WorkSummary(w);
  EXPECT_NE(s.find("rows=42"), std::string::npos) << s;
  EXPECT_NE(s.find("disk_read"), std::string::npos) << s;
  EXPECT_EQ(s.find("net_read"), std::string::npos) << s;
}

TEST(TraceUtilTest, SummarizeBucketBytes) {
  BucketSummary s = SummarizeBuckets({40, 10, 30, 20});
  EXPECT_EQ(s.buckets, 4);
  EXPECT_EQ(s.min_bytes, 10u);
  EXPECT_EQ(s.p50_bytes, 30u);  // nearest rank: sorted[4 / 2]
  EXPECT_EQ(s.p95_bytes, 40u);
  EXPECT_EQ(s.max_bytes, 40u);
  EXPECT_EQ(s.total_bytes, 100u);
  EXPECT_DOUBLE_EQ(s.skew, 40.0 / 25.0);
  EXPECT_EQ(s.culprit, 0);
  // Ties name the first fattest bucket.
  EXPECT_EQ(SummarizeBuckets({5, 9, 9}).culprit, 1);
  BucketSummary empty = SummarizeBuckets({});
  EXPECT_EQ(empty.buckets, 0);
  EXPECT_DOUBLE_EQ(empty.skew, 0.0);
  EXPECT_EQ(empty.culprit, -1);
}

}  // namespace
}  // namespace shark
