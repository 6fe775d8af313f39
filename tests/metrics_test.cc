#include "common/metrics.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "sim/cluster_metrics.h"

namespace shark {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterSnapshotFollowsRegistrationOrder) {
  MetricsRegistry reg;
  Counter* b = reg.RegisterCounter("shark_b_total", "second alphabetically");
  Counter* a = reg.RegisterCounter("shark_a_total", "first alphabetically");
  Counter* lab = reg.RegisterCounter("shark_c_total", "labeled", "node=\"3\"");
  b->Increment(2);
  a->Increment();
  lab->Increment(7);

  auto snap = reg.CounterSnapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "shark_b_total");
  EXPECT_EQ(snap[0].second, 2u);
  EXPECT_EQ(snap[1].first, "shark_a_total");
  EXPECT_EQ(snap[1].second, 1u);
  EXPECT_EQ(snap[2].first, "shark_c_total{node=\"3\"}");
  EXPECT_EQ(snap[2].second, 7u);
}

TEST(MetricsRegistryTest, SnapshotSkipsGaugesAndHistograms) {
  MetricsRegistry reg;
  reg.RegisterGauge("shark_g", "a gauge")->Set(5.0);
  reg.RegisterHistogram("shark_h", "a histogram");
  reg.RegisterCounter("shark_c_total", "a counter")->Increment(3);
  auto snap = reg.CounterSnapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, "shark_c_total");
}

TEST(MetricsRegistryTest, TextExpositionHeadersOncePerFamily) {
  MetricsRegistry reg;
  reg.RegisterCounter("shark_locality_total", "Launches by class",
                      "class=\"preferred\"")
      ->Increment(4);
  reg.RegisterCounter("shark_locality_total", "", "class=\"remote\"")
      ->Increment(1);
  std::string text = reg.TextExposition();

  // One HELP and one TYPE line for the family, one sample per child.
  EXPECT_EQ(text.find("# HELP shark_locality_total Launches by class\n"),
            text.rfind("# HELP shark_locality_total"));
  EXPECT_EQ(text.find("# TYPE shark_locality_total counter\n"),
            text.rfind("# TYPE shark_locality_total"));
  EXPECT_NE(text.find("shark_locality_total{class=\"preferred\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("shark_locality_total{class=\"remote\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, TextExpositionGaugeAndCallbackGauge) {
  MetricsRegistry reg;
  reg.RegisterGauge("shark_plain", "set directly")->Set(12);
  double source = 0.0;
  reg.RegisterCallbackGauge("shark_pulled", "read at exposition time",
                            [&source] { return source; });
  source = 99.5;
  std::string text = reg.TextExposition();
  EXPECT_NE(text.find("# TYPE shark_plain gauge\n"), std::string::npos);
  EXPECT_NE(text.find("shark_plain 12\n"), std::string::npos);
  // The callback gauge reflects the value at exposition time, not at
  // registration time.
  EXPECT_NE(text.find("shark_pulled 99.5\n"), std::string::npos);
}

TEST(MetricsRegistryTest, TextExpositionHistogramSummary) {
  MetricsRegistry reg;
  HistogramMetric* h = reg.RegisterHistogram("shark_dur_seconds", "durations");
  {
    // Empty histogram: quantiles render as 0, count as 0.
    std::string text = reg.TextExposition();
    EXPECT_NE(text.find("# TYPE shark_dur_seconds summary\n"),
              std::string::npos);
    EXPECT_NE(text.find("shark_dur_seconds{quantile=\"0.50\"} 0\n"),
              std::string::npos);
    EXPECT_NE(text.find("shark_dur_seconds_count 0\n"), std::string::npos);
  }
  for (int i = 0; i < 100; ++i) h->Observe(1.0);
  std::string text = reg.TextExposition();
  EXPECT_NE(text.find("shark_dur_seconds_count 100\n"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus exposition escaping / sanitization
// ---------------------------------------------------------------------------

TEST(PrometheusEscapeTest, EscapesQuotesBackslashesAndNewlines) {
  EXPECT_EQ(PrometheusEscape("plain"), "plain");
  EXPECT_EQ(PrometheusEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PrometheusEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(PrometheusEscape("two\nlines"), "two\\nlines");
  EXPECT_EQ(PrometheusEscape("\\\"\n"), "\\\\\\\"\\n");
}

TEST(SanitizeMetricNameTest, MapsInvalidCharactersToUnderscore) {
  EXPECT_EQ(SanitizeMetricName("shark_ok_total"), "shark_ok_total");
  EXPECT_EQ(SanitizeMetricName("shark:recorded"), "shark:recorded");
  EXPECT_EQ(SanitizeMetricName("shark.dotted-name"), "shark_dotted_name");
  EXPECT_EQ(SanitizeMetricName("has spaces"), "has_spaces");
  EXPECT_EQ(SanitizeMetricName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(SanitizeMetricName(""), "_");
}

// Regression: a session name containing quotes, backslashes and a newline
// must produce a parseable exposition — one escaped label value, no raw
// newline splitting the sample line.
TEST(MetricsRegistryTest, LabelValuesWithQuotesAreEscaped) {
  MetricsRegistry reg;
  const std::string session = "we\"ird\\name\nsession";
  reg.RegisterCounter("shark_sessions_total", "per-session",
                      MetricsRegistry::Label("session", session))
      ->Increment(3);
  std::string text = reg.TextExposition();
  EXPECT_NE(
      text.find(
          "shark_sessions_total{session=\"we\\\"ird\\\\name\\nsession\"} 3\n"),
      std::string::npos)
      << text;
  // No sample line was split by the raw newline: every line is either a
  // comment or starts with the metric name.
  size_t start = 0;
  while (start < text.size()) {
    size_t eol = text.find('\n', start);
    std::string line = text.substr(start, eol - start);
    EXPECT_TRUE(line.rfind("# ", 0) == 0 ||
                line.rfind("shark_sessions_total", 0) == 0)
        << "stray line: " << line;
    start = eol + 1;
  }
}

TEST(MetricsRegistryTest, RegisteredNamesAreSanitized) {
  MetricsRegistry reg;
  reg.RegisterCounter("bad name.total", "spaces and dots")->Increment();
  std::string text = reg.TextExposition();
  EXPECT_NE(text.find("bad_name_total 1\n"), std::string::npos);
  EXPECT_EQ(text.find("bad name"), std::string::npos);
}

// Families render contiguously even when children register late (the
// per-session SLO series do exactly this).
TEST(MetricsRegistryTest, LateFamilyChildrenStayGrouped) {
  MetricsRegistry reg;
  reg.RegisterCounter("shark_fam_total", "family", "k=\"a\"")->Increment(1);
  reg.RegisterCounter("shark_other_total", "interloper")->Increment(9);
  reg.RegisterCounter("shark_fam_total", "", "k=\"b\"")->Increment(2);
  std::string text = reg.TextExposition();
  size_t a = text.find("shark_fam_total{k=\"a\"} 1\n");
  size_t b = text.find("shark_fam_total{k=\"b\"} 2\n");
  size_t other = text.find("shark_other_total 9\n");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(other, std::string::npos);
  // Both children precede the interloper that registered between them.
  EXPECT_LT(a, b);
  EXPECT_LT(b, other);
}

// ---------------------------------------------------------------------------
// ClusterTimeline
// ---------------------------------------------------------------------------

ClusterSample At(double t) {
  ClusterSample s;
  s.time = t;
  return s;
}

TEST(ClusterTimelineTest, SameInstantReplacesLastSample) {
  ClusterTimeline tl;
  ClusterSample first = At(1.0);
  first.pending_tasks = 5;
  tl.Record(first);
  ClusterSample second = At(1.0);
  second.pending_tasks = 2;
  tl.Record(second);
  ASSERT_EQ(tl.samples().size(), 1u);
  EXPECT_EQ(tl.samples()[0].pending_tasks, 2);
}

TEST(ClusterTimelineTest, ShouldSampleHonorsMinInterval) {
  ClusterTimeline tl(16);
  EXPECT_TRUE(tl.ShouldSample(0.0));  // empty: always sample
  // Force a decimation so min_interval becomes nonzero.
  for (int i = 0; i < 40; ++i) tl.Record(At(static_cast<double>(i)));
  ASSERT_GT(tl.min_interval(), 0.0);
  double last = tl.samples().back().time;
  EXPECT_FALSE(tl.ShouldSample(last + tl.min_interval() * 0.5));
  EXPECT_TRUE(tl.ShouldSample(last + tl.min_interval()));
  // Same-instant (or earlier) samples are always accepted — they replace.
  EXPECT_TRUE(tl.ShouldSample(last));
}

TEST(ClusterTimelineTest, DecimationBoundsMemoryAndKeepsOrder) {
  const size_t kMax = 16;
  ClusterTimeline tl(kMax);
  for (int i = 0; i < 100000; ++i) {
    tl.Record(At(static_cast<double>(i) * 0.001));
  }
  EXPECT_LT(tl.samples().size(), 2 * kMax);
  EXPECT_GE(tl.samples().size(), kMax / 2);
  // First sample survives every decimation; times stay strictly increasing.
  EXPECT_EQ(tl.samples().front().time, 0.0);
  for (size_t i = 1; i < tl.samples().size(); ++i) {
    EXPECT_LT(tl.samples()[i - 1].time, tl.samples()[i].time);
  }
  tl.Clear();
  EXPECT_TRUE(tl.samples().empty());
  EXPECT_EQ(tl.min_interval(), 0.0);
  EXPECT_TRUE(tl.ShouldSample(0.0));
}

// ---------------------------------------------------------------------------
// Skew analyzer
// ---------------------------------------------------------------------------

/// A stage record with one commit per entry of the three lists.
StageRecord MakeRecord(const std::string& label, double start, double end,
                       const std::vector<double>& durations,
                       const std::vector<int>& partitions,
                       const std::vector<int>& nodes) {
  StageRecord rec;
  rec.label = label;
  rec.start_time = start;
  rec.end_time = end;
  for (size_t i = 0; i < durations.size(); ++i) {
    rec.commits.push_back(StageCommit{durations[i], partitions[i], nodes[i]});
  }
  return rec;
}

TEST(StageSkewTest, EmptyStage) {
  StageRecord rec = MakeRecord("empty", 1.0, 2.0, {}, {}, {});
  rec.speculative = 2;
  rec.node_deaths = 1;
  rec.missing_inputs = 4;
  StageSkewReport r = ComputeStageSkew(rec, 0);
  EXPECT_EQ(r.label, "empty");
  EXPECT_EQ(r.start_time, 1.0);
  EXPECT_EQ(r.end_time, 2.0);
  EXPECT_EQ(r.tasks, 0);
  EXPECT_EQ(r.dur_max, 0.0);
  EXPECT_EQ(r.dur_skew, 0.0);
  EXPECT_EQ(r.straggler_partition, -1);
  EXPECT_EQ(r.straggler_node, -1);
  // Counts come from the record even with no commits; `failed` is node
  // deaths only (missing-input re-runs are not aborts).
  EXPECT_EQ(r.speculative, 2);
  EXPECT_EQ(r.failed, 1);
}

TEST(StageSkewTest, SingleTaskHasNoSkew) {
  StageSkewReport r =
      ComputeStageSkew(MakeRecord("one", 0.0, 4.0, {4.0}, {7}, {2}), 3);
  EXPECT_EQ(r.seq, 3);
  EXPECT_EQ(r.tasks, 1);
  EXPECT_EQ(r.dur_p50, 4.0);
  EXPECT_EQ(r.dur_p95, 4.0);
  EXPECT_EQ(r.dur_max, 4.0);
  EXPECT_EQ(r.dur_skew, 1.0);
  EXPECT_EQ(r.straggler_partition, 7);
  EXPECT_EQ(r.straggler_node, 2);
}

TEST(StageSkewTest, StragglerIsNamed) {
  // 9 even tasks and one 5x straggler on partition 6 / node 3.
  std::vector<double> durs(10, 1.0);
  std::vector<int> parts = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> nodes(10, 0);
  durs[6] = 5.0;
  nodes[6] = 3;
  StageSkewReport r =
      ComputeStageSkew(MakeRecord("skewed", 0.0, 5.0, durs, parts, nodes), 0);
  EXPECT_EQ(r.tasks, 10);
  EXPECT_EQ(r.dur_p50, 1.0);
  EXPECT_EQ(r.dur_max, 5.0);
  EXPECT_EQ(r.dur_skew, 5.0);
  EXPECT_EQ(r.straggler_partition, 6);
  EXPECT_EQ(r.straggler_node, 3);
}

TEST(StageSkewTest, BucketAnnotation) {
  // A result stage carries no bucket summary.
  StageRecord rec = MakeRecord("map", 0.0, 1.0, {1.0}, {0}, {0});
  StageSkewReport r = ComputeStageSkew(rec, 0);
  EXPECT_EQ(r.shuffle.buckets, 0);
  EXPECT_EQ(r.shuffle.culprit, -1);

  // Buckets {100, 100, 500, 100}: mean 200, max 500 at index 2. The report
  // carries the record's summary unchanged.
  rec.is_map_stage = true;
  rec.shuffle = SummarizeBuckets({100, 100, 500, 100});
  r = ComputeStageSkew(rec, 0);
  EXPECT_EQ(r.shuffle.buckets, 4);
  EXPECT_EQ(r.shuffle.p50_bytes, 100u);
  EXPECT_EQ(r.shuffle.p95_bytes, 500u);
  EXPECT_EQ(r.shuffle.max_bytes, 500u);
  EXPECT_DOUBLE_EQ(r.shuffle.skew, 2.5);
  EXPECT_EQ(r.shuffle.culprit, 2);
}

// ---------------------------------------------------------------------------
// SHARK_LOG_LEVEL parsing
// ---------------------------------------------------------------------------

TEST(ParseLogLevelTest, AcceptsNamesAndDigits) {
  LogLevel lvl;
  ASSERT_TRUE(ParseLogLevel("debug", &lvl));
  EXPECT_EQ(lvl, LogLevel::kDebug);
  ASSERT_TRUE(ParseLogLevel("INFO", &lvl));
  EXPECT_EQ(lvl, LogLevel::kInfo);
  ASSERT_TRUE(ParseLogLevel("Warning", &lvl));
  EXPECT_EQ(lvl, LogLevel::kWarn);
  ASSERT_TRUE(ParseLogLevel("warn", &lvl));
  EXPECT_EQ(lvl, LogLevel::kWarn);
  ASSERT_TRUE(ParseLogLevel("error", &lvl));
  EXPECT_EQ(lvl, LogLevel::kError);
  ASSERT_TRUE(ParseLogLevel("off", &lvl));
  EXPECT_EQ(lvl, LogLevel::kOff);
  ASSERT_TRUE(ParseLogLevel("none", &lvl));
  EXPECT_EQ(lvl, LogLevel::kOff);
  ASSERT_TRUE(ParseLogLevel("0", &lvl));
  EXPECT_EQ(lvl, LogLevel::kDebug);
  ASSERT_TRUE(ParseLogLevel("4", &lvl));
  EXPECT_EQ(lvl, LogLevel::kOff);
}

TEST(ParseLogLevelTest, RejectsGarbageAndLeavesOutputUntouched) {
  LogLevel lvl = LogLevel::kError;
  EXPECT_FALSE(ParseLogLevel("", &lvl));
  EXPECT_FALSE(ParseLogLevel("verbose", &lvl));
  EXPECT_FALSE(ParseLogLevel("5", &lvl));
  EXPECT_FALSE(ParseLogLevel("12", &lvl));
  EXPECT_EQ(lvl, LogLevel::kError);
}

}  // namespace
}  // namespace shark
