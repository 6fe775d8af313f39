// ingest_train: rounds of the paper's SQL-to-ML pipeline (Listing 1) on
// freshly ingested data. Each round writes N labelled points to the
// simulated DFS, loads them into the columnar memstore, analyzes them,
// selects them back as an RDD, trains logistic regression on the cached
// points, and drops everything again.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine.h"
#include "ml/logistic_regression.h"
#include "ml/table_rdd.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

namespace {

using shark::Row;
using shark::SharkSession;
using shark::TypeKind;
using shark::Value;

constexpr int kRows = 100000;
constexpr int kDims = 10;
constexpr int kBlocks = 32;
constexpr int kNodes = 16;
constexpr int kCoresPerNode = 8;
constexpr double kVirtualScale = 100.0;
constexpr int kIterations = 50;
constexpr int kSetups = 3;
constexpr const char* kTable = "ml_round";

/// The round's steps, in order; each is timed and traced on its own.
enum Step { kDfsWrite, kCache, kAnalyze, kSql2Rdd, kTrain, kDrop, kSteps };
constexpr const char* kStepNames[] = {"dfs_write", "cache", "analyze",
                                      "sql2rdd",   "train", "drop"};
constexpr const char* kStepSpans[] = {"sim.dfs_write", "columnar.load",
                                      "stats.analyze", "ml.sql2rdd",
                                      "ml.train",      "sql.drop"};

shark::Schema PointsSchema() {
  std::vector<shark::Field> fields{{"label", TypeKind::kDouble}};
  for (int d = 0; d < kDims; ++d) {
    fields.push_back({"f" + std::to_string(d), TypeKind::kDouble});
  }
  return shark::Schema(fields);
}

/// Two Gaussian clusters, one per label (+1/-1), unit variance, centres
/// 0.8 apart per feature — like workloads/mldata, generated here so the
/// benchmark owns its inputs.
std::vector<Row> GeneratePoints(uint64_t seed) {
  shark::Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    double label = rng.Uniform(2) == 0 ? -1.0 : 1.0;
    Row row;
    row.fields.push_back(Value::Double(label));
    for (int d = 0; d < kDims; ++d) {
      double u1 = std::max(rng.NextDouble(), 1e-12), u2 = rng.NextDouble();
      double gauss =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
      row.fields.push_back(Value::Double(0.4 * label + gauss));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string SelectSql() {
  std::string cols = "label";
  for (int d = 0; d < kDims; ++d) cols += ", f" + std::to_string(d);
  // A cleaning filter, as a feature-extraction query would have.
  return "SELECT " + cols + " FROM " + kTable + " WHERE f1 > -2.5";
}

struct Round {
  double step_ms[kSteps] = {};
  double total_ms = 0.0;
  double cpu_ms = 0.0;
  double virtual_s = 0.0;
  double memstore_bytes = 0.0;
  double stages = 0.0, tasks = 0.0;
  shark::MlVector weights;
};

/// One round of the pipeline on `session`. Exits on an engine error: every
/// step is expected to succeed.
Round RunRound(SharkSession* session, const std::vector<Row>& rows,
               const shark::Schema& schema, uint64_t op) {
  Round r;
  shark::ClusterContext* ctx = &session->context();
  const double v0 = ctx->now();
  const uint64_t stages0 = CounterValue(ctx, "shark_stages_total");
  const uint64_t tasks0 = CounterValue(ctx, "shark_tasks_launched_total");
  const double c0 = CpuMs();
  const double t0 = NowMs();
  Span root("op.round", op);
  double t = NowMs();
  auto lap = [&](Step s) {
    double now = NowMs();
    r.step_ms[s] = now - t;
    t = now;
  };
  {
    Span span(kStepSpans[kDfsWrite]);
    MustOk(session->CreateDfsTable(kTable, schema, rows, kBlocks),
           "CreateDfsTable");
  }
  lap(kDfsWrite);
  const double bytes0 =
      static_cast<double>(ctx->block_manager().TotalUsedBytes());
  {
    Span span(kStepSpans[kCache]);
    MustOk(session->CacheTable(kTable), "CacheTable");
  }
  r.memstore_bytes =
      static_cast<double>(ctx->block_manager().TotalUsedBytes()) - bytes0;
  lap(kCache);
  {
    Span span(kStepSpans[kAnalyze]);
    MustSql(session, std::string("ANALYZE TABLE ") + kTable);
  }
  lap(kAnalyze);
  shark::RddPtr<shark::LabeledPoint> points;
  {
    Span span(kStepSpans[kSql2Rdd]);
    auto table = session->Sql2Rdd(SelectSql());
    MustOk(table.status(), "Sql2Rdd");
    std::vector<std::string> features;
    for (int d = 0; d < kDims; ++d) features.push_back("f" + std::to_string(d));
    auto labeled = shark::RowsToLabeledPoints(*table, "label", features);
    MustOk(labeled.status(), "RowsToLabeledPoints");
    points = *labeled;
    points->Cache();
  }
  lap(kSql2Rdd);
  {
    Span span(kStepSpans[kTrain]);
    shark::LogisticRegression::Options opts;
    opts.iterations = kIterations;
    auto model = shark::LogisticRegression::Train(ctx, points, kDims, opts);
    MustOk(model.status(), "LogisticRegression::Train");
    r.weights = model->weights;
  }
  lap(kTrain);
  {
    Span span(kStepSpans[kDrop]);
    points->Uncache();
    MustOk(session->UncacheTable(kTable), "UncacheTable");
    MustSql(session, std::string("DROP TABLE ") + kTable);
  }
  lap(kDrop);
  r.total_ms = NowMs() - t0;
  r.cpu_ms = CpuMs() - c0;
  r.virtual_s = ctx->now() - v0;
  r.stages = static_cast<double>(CounterValue(ctx, "shark_stages_total") -
                                 stages0);
  r.tasks = static_cast<double>(
      CounterValue(ctx, "shark_tasks_launched_total") - tasks0);
  return r;
}

}  // namespace

int RunIngestTrain(const Options& options, Report* report) {
  const std::vector<Row> rows = GeneratePoints(options.seed);
  const shark::Schema schema = PointsSchema();
  Tracer& tracer = Tracer::Get();

  // Set-up: a fresh cluster plus the untimed first round (this workload's
  // work is all loading, so there is nothing else to prepare). The first
  // round fixes the weights every later round must reproduce bit for bit,
  // and its simulator seconds are virtual_s.
  std::vector<double> setup_s, setup_wall_s;
  std::unique_ptr<SharkSession> session;
  Round first;
  uint64_t op = 0;
  for (int i = 0; i < kSetups; ++i) {
    session.reset();
    const double t0 = NowMs();
    const double cpu0 = CpuMs();
    session = NewSession(kNodes, kCoresPerNode, kVirtualScale);
    if (!ApplyExecOverrides(options, &session->options())) return 2;
    tracer.set_enabled(false);
    Round r = RunRound(session.get(), rows, schema, ++op);
    setup_s.push_back((CpuMs() - cpu0) / 1e3);
    setup_wall_s.push_back((NowMs() - t0) / 1e3);
    if (i == 0) {
      first = r;
    } else if (r.weights != first.weights || r.virtual_s != first.virtual_s) {
      report->Mismatch("set-up rounds on fresh clusters disagree");
    }
  }
  const double peak_rss = PeakRssMb();
  const double rss_after_warmup = CurrentRssMb();
  shark::ClusterContext* ctx = &session->context();
  const MemGuards guards(ctx);

  // Measured rounds; a traced run alternates untraced and traced rounds.
  std::vector<Round> untraced, traced;
  const double start = NowMs();
  for (int i = 0;; ++i) {
    bool need_traced = options.trace && traced.empty();
    if (NowMs() - start >= options.seconds * 1e3 && !need_traced) break;
    const bool trace_this = options.trace && i % 2 == 1;
    tracer.set_enabled(trace_this);
    Round r = RunRound(session.get(), rows, schema, ++op);
    tracer.set_enabled(false);
    bool ok = r.weights == first.weights;
    if (!ok) report->Mismatch("round " + std::to_string(i) +
                              " trained different weights");
    report->CountOp(!ok);
    (trace_this ? traced : untraced).push_back(std::move(r));
  }

  std::vector<double> round_ms, round_cpu_ms, ingest_rate, step[kSteps];
  double sum_ms = 0;
  for (const Round& r : untraced) {
    round_ms.push_back(r.total_ms);
    sum_ms += r.total_ms;
    round_cpu_ms.push_back(r.cpu_ms);
    const double load_ms = r.step_ms[kDfsWrite] + r.step_ms[kCache];
    ingest_rate.push_back(kRows / (load_ms / 1e3));
    for (int s = 0; s < kSteps; ++s) step[s].push_back(r.step_ms[s]);
  }
  std::vector<double> step_medians;
  for (int s = 0; s < kSteps; ++s) {
    step_medians.push_back(Median(step[s]));
    report->Set(std::string("step_ms.") + kStepNames[s], Median(step[s]), "ms",
                static_cast<int64_t>(step[s].size()));
  }
  const auto n = static_cast<int64_t>(untraced.size());
  report->Set("setup_s", Median(setup_s), "s", kSetups);
  report->Set("setup_wall_s", Median(setup_wall_s), "s", kSetups);
  report->Set("queries_per_s", n / (sum_ms / 1e3), "1/s", n);
  report->Set("query_ms_geomean", Geomean(step_medians), "ms", n);
  report->Set("latency_p50_ms", Median(round_ms), "ms", n);
  report->Set("ingest_rows_per_s", Median(ingest_rate), "rows/s", n);
  report->Set("cpu_ms_per_op", Median(round_cpu_ms), "ms", n);
  report->Set("virtual_s", first.virtual_s, "s", 1);
  report->Set("peak_rss_mb", peak_rss, "MiB");
  report->Set("train_iter_ms", Median(step[kTrain]) / kIterations, "ms", n);
  report->Set("failed_frac",
              static_cast<double>(report->failed()) / report->attempted(), "1",
              report->attempted());
  if (!options.trace) return 0;

  // ---- per-layer metrics from the traced rounds ----
  std::vector<double> analyze_ms, sql2rdd_ms, train_ms, load_rate, dfs_rate,
      bytes_per_row;
  double stages = 0, tasks = 0, traced_ms = 0, traced_cpu_ms = 0;
  for (const Round& r : traced) {
    analyze_ms.push_back(r.step_ms[kAnalyze]);
    sql2rdd_ms.push_back(r.step_ms[kSql2Rdd]);
    train_ms.push_back(r.step_ms[kTrain]);
    load_rate.push_back(kRows / (r.step_ms[kCache] / 1e3));
    dfs_rate.push_back(kRows / (r.step_ms[kDfsWrite] / 1e3));
    bytes_per_row.push_back(r.memstore_bytes / kRows);
    stages += r.stages;
    tasks += r.tasks;
    traced_ms += r.total_ms;
    traced_cpu_ms += r.cpu_ms;
  }
  const auto tn = static_cast<int64_t>(traced.size());

  // The front-end work Sql2Rdd does inside a round — parse, analyze and
  // plan of the round's SELECT — timed on its own against a loaded table,
  // outside the rounds (it would otherwise run twice in a traced round).
  constexpr int kFrontendSamples = 50;
  std::vector<double> parse, analyze, plan, frontend;
  MustOk(session->CreateDfsTable(kTable, schema, rows, kBlocks),
         "CreateDfsTable");
  MustOk(session->CacheTable(kTable), "CacheTable");
  MustSql(session.get(), std::string("ANALYZE TABLE ") + kTable);
  tracer.set_enabled(true);
  for (int i = 0; i < kFrontendSamples; ++i) {
    SelectTiming t;
    Span root("frontend.select", ++op);
    MustOk(PlanSelect(session.get(), SelectSql(), &t).status(), "PlanSelect");
    parse.push_back(t.parse_us);
    analyze.push_back(t.analyze_us);
    plan.push_back(t.plan_us);
    frontend.push_back(t.parse_us + t.analyze_us + t.plan_us);
  }
  tracer.set_enabled(false);
  report->Set("sql.parse_us", Median(parse), "us", kFrontendSamples);
  report->Set("sql.analyze_us", Median(analyze), "us", kFrontendSamples);
  report->Set("sql.plan_us", Median(plan), "us", kFrontendSamples);
  // Front-end share of the Sql2Rdd step, the round's only SELECT.
  report->Set("sql.frontend_share", Median(frontend) / 1e3 / Median(sql2rdd_ms),
              "1", kFrontendSamples);
  report->Set("stats.analyze_ms", Median(analyze_ms), "ms", tn);
  report->Set("rdd.stages_per_query", stages / tn, "count", tn);
  report->Set("rdd.tasks_per_query", tasks / tn, "count", tn);
  report->Set("rdd.host_us_per_task", traced_ms * 1e3 / tasks, "us", tn);
  report->Set("rdd.cores_busy", traced_cpu_ms / traced_ms, "cores", tn);
  report->Set("columnar.load_rows_per_s", Median(load_rate), "rows/s", tn);
  report->Set("columnar.bytes_per_row", Median(bytes_per_row), "B", tn);
  report->Set("sim.dfs_write_rows_per_s", Median(dfs_rate), "rows/s", tn);
  report->Set("ml.sql2rdd_ms", Median(sql2rdd_ms), "ms", tn);
  report->Set("ml.train_iter_ms", Median(train_ms) / kIterations, "ms", tn);
  report->Set("mem.rss_growth_mb", CurrentRssMb() - rss_after_warmup, "MiB");
  guards.SetMetrics(report);
  report->Set("bench.tracing_overhead",
              (tn / traced_ms) / (n / sum_ms), "1");
  ReportSpanAccounting(report);
  return 0;
}

}  // namespace perfbench
