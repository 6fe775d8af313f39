// olap_mix: one closed-loop client running a fixed mix of Pavlo-benchmark
// queries through SharkSession::Sql against cached columnar tables, plus one
// query on a table left on the simulated DFS.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine.h"
#include "sql/parser.h"
#include "sql/reference_eval.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

namespace {

using shark::Row;
using shark::SharkSession;
using shark::TypeKind;
using shark::Value;

struct OlapSize {
  int rankings_rows;
  int visits_rows;
  int rankings_blocks;
  int visits_blocks;
};

constexpr OlapSize kFullSize{40000, 200000, 16, 32};
constexpr OlapSize kSelftestSize{2000, 12000, 4, 8};
constexpr int kNodes = 100;  // the paper's cluster: the memstore holds both
constexpr int kCoresPerNode = 8;
constexpr int kSetups = 5;
// Each host row stands for this many rows of the simulated warehouse. Small
// enough that the scaled memory budget holds the tables and every operator's
// working set: nothing spills, so the mix measures in-memory execution.
constexpr double kVirtualScale = 1000.0;

struct PavloRows {
  std::vector<Row> rankings;
  std::vector<Row> visits;
};

const shark::Schema& RankingsSchema() {
  static const shark::Schema schema({{"pageURL", TypeKind::kString},
                                     {"pageRank", TypeKind::kInt64},
                                     {"avgDuration", TypeKind::kInt64}});
  return schema;
}

const shark::Schema& VisitsSchema() {
  static const shark::Schema schema({{"sourceIP", TypeKind::kString},
                                     {"destURL", TypeKind::kString},
                                     {"visitDate", TypeKind::kDate},
                                     {"adRevenue", TypeKind::kDouble},
                                     {"userAgent", TypeKind::kString},
                                     {"countryCode", TypeKind::kString},
                                     {"languageCode", TypeKind::kString},
                                     {"searchWord", TypeKind::kString},
                                     {"duration", TypeKind::kInt64}});
  return schema;
}

/// Pavlo-shaped rows (Pavlo et al., SIGMOD'09, as in the paper's §6.2):
/// Zipf page ranks; ~rows/6 distinct source IPs whose 7-character prefixes
/// fall into ~1000 groups; one year of visit dates.
PavloRows GeneratePavlo(uint64_t seed, const OlapSize& size) {
  static const char* kAgents[] = {"Mozilla/5.0", "IE/6.0", "Safari/3.1",
                                  "Opera/9.5"};
  static const char* kCountries[] = {"USA", "GBR", "DEU", "FRA",
                                     "JPN", "BRA", "IND", "CHN"};
  static const char* kLanguages[] = {"EN", "DE", "FR", "JA", "PT", "HI", "ZH"};
  static const char* kWords[] = {"alpha", "bravo", "charlie",
                                 "delta", "echo",  "foxtrot"};
  shark::Random rng(seed);
  PavloRows out;
  out.rankings.reserve(static_cast<size_t>(size.rankings_rows));
  for (int i = 0; i < size.rankings_rows; ++i) {
    out.rankings.push_back(
        Row({Value::String("url" + std::to_string(i)),
             Value::Int64(static_cast<int64_t>(rng.Zipf(10000, 1.1))),
             Value::Int64(rng.UniformInt(1, 300))}));
  }
  const int64_t distinct_ips = std::max(size.visits_rows / 6, 1);
  const int64_t year_start = Value::ParseDate("2000-01-01")->int64_v();
  out.visits.reserve(static_cast<size_t>(size.visits_rows));
  for (int i = 0; i < size.visits_rows; ++i) {
    auto id = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(distinct_ips)));
    int64_t prefix = id % 1000;
    std::string ip = std::to_string(100 + prefix / 25) + "." +
                     std::to_string(10 + prefix % 25) + "." +
                     std::to_string((id / 1000) % 250 + 1) + "." +
                     std::to_string((id / 250000) % 250 + 1);
    auto url = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(size.rankings_rows)));
    out.visits.push_back(
        Row({Value::String(std::move(ip)),
             Value::String("url" + std::to_string(url)),
             Value::Date(year_start + rng.UniformInt(0, 364)),
             Value::Double(static_cast<double>(rng.UniformInt(1, 1000)) /
                           100.0),
             Value::String(kAgents[rng.Uniform(4)]),
             Value::String(kCountries[rng.Uniform(8)]),
             Value::String(kLanguages[rng.Uniform(7)]),
             Value::String(kWords[rng.Uniform(6)]),
             Value::Int64(rng.UniformInt(1, 600))}));
  }
  return out;
}

struct OlapQuery {
  const char* name;       // metric suffix
  const char* root_span;  // span name of one execution
  std::string sql;
  /// Cached table a filter-only scan query reads; these queries make up the
  /// scan-rate metrics. Null for the others.
  const char* scanned_table;
};

/// The fixed mix. Seven queries, so the mix's median latency is the median
/// of one query type rather than a jump between two. Predicates are chosen
/// so zone maps prune nothing: every query scans its whole table.
std::vector<OlapQuery> MixQueries() {
  return {
      {"selection", "op.selection",
       "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 1000",
       "rankings"},
      {"agg_fine", "op.agg_fine",
       "SELECT sourceIP, SUM(adRevenue) FROM uservisits GROUP BY sourceIP",
       nullptr},
      {"agg_substr", "op.agg_substr",
       "SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits "
       "GROUP BY SUBSTR(sourceIP, 1, 7)",
       nullptr},
      {"join", "op.join",
       "SELECT sourceIP, AVG(pageRank), SUM(adRevenue) AS totalRevenue "
       "FROM rankings AS R, uservisits AS UV WHERE R.pageURL = UV.destURL "
       "AND UV.visitDate BETWEEN Date('2000-01-15') AND Date('2000-01-22') "
       "GROUP BY UV.sourceIP",
       nullptr},
      {"topk", "op.topk",
       "SELECT adRevenue, duration FROM uservisits "
       "ORDER BY adRevenue DESC, duration DESC LIMIT 20",
       nullptr},
      {"count_like", "op.count_like",
       "SELECT COUNT(*) FROM uservisits WHERE userAgent LIKE 'Moz%' "
       "AND duration > 300",
       "uservisits"},
      // The paper's "Shark (disk)" bar: same selection, table not cached.
      {"selection_disk", "op.selection_disk",
       "SELECT pageURL, pageRank FROM rankings_disk WHERE pageRank > 1000",
       nullptr},
  };
}

std::unique_ptr<SharkSession> SetUp(const PavloRows& data, const OlapSize& size,
                                    SetupTiming* t) {
  const double start = NowMs();
  const double cpu_start = CpuMs();
  auto session = NewSession(kNodes, kCoresPerNode, kVirtualScale);
  LoadTiming r = LoadTable(session.get(), "rankings", RankingsSchema(),
                           data.rankings, size.rankings_blocks, true);
  LoadTiming v = LoadTable(session.get(), "uservisits", VisitsSchema(),
                           data.visits, size.visits_blocks, true);
  LoadTable(session.get(), "rankings_disk", RankingsSchema(), data.rankings,
            size.rankings_blocks, false);
  double a0 = NowMs();
  {
    Span span("stats.analyze");
    MustSql(session.get(), "ANALYZE TABLE rankings");
    MustSql(session.get(), "ANALYZE TABLE uservisits");
  }
  t->analyze_ms = NowMs() - a0;
  t->rows = size.rankings_rows + size.visits_rows;
  t->load.dfs_write_ms = r.dfs_write_ms + v.dfs_write_ms;
  t->load.cache_ms = r.cache_ms + v.cache_ms;
  t->load.memstore_bytes = r.memstore_bytes + v.memstore_bytes;
  t->wall_ms = NowMs() - start;
  t->cpu_ms = CpuMs() - cpu_start;
  return session;
}

int SelfTest(const Options& options) {
  PavloRows data = GeneratePavlo(options.seed, kSelftestSize);
  SetupTiming timing;
  auto session = SetUp(data, kSelftestSize, &timing);
  if (!ApplyExecOverrides(options, &session->options())) return 2;
  int bad = 0;
  for (const OlapQuery& q : MixQueries()) {
    auto got = session->Sql(q.sql);
    auto stmt = shark::ParseStatement(q.sql);
    if (!got.ok() || !stmt.ok()) {
      std::printf("selftest %-14s FAILED to run\n", q.name);
      ++bad;
      continue;
    }
    auto want = shark::ReferenceExecute(*stmt->select, session->catalog(),
                                        session->context().dfs(),
                                        &session->udfs());
    std::string diff =
        want.ok() ? CompareResults(got->rows, want->rows)
                  : "reference failed: " + want.status().ToString();
    std::printf("selftest %-14s %zu rows %s\n", q.name, got->rows.size(),
                diff.empty() ? "match the reference" : diff.c_str());
    if (!diff.empty()) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int RunOlapMix(const Options& options, Report* report) {
  if (options.selftest) return SelfTest(options);
  const OlapSize size = kFullSize;
  PavloRows data = GeneratePavlo(options.seed, size);
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(options.trace);

  // Set-up, several times on fresh clusters; the last cluster is kept.
  std::vector<SetupTiming> setups(kSetups);
  std::unique_ptr<SharkSession> session;
  for (SetupTiming& t : setups) {
    session.reset();
    session = SetUp(data, size, &t);
  }
  if (!ApplyExecOverrides(options, &session->options())) return 2;
  shark::ClusterContext* ctx = &session->context();
  const std::vector<OlapQuery> queries = MixQueries();

  // Warm-up pass, untimed: fixes each query's result checksum and the
  // simulator seconds of one pass.
  tracer.set_enabled(false);
  std::vector<uint64_t> expected;
  double virtual_s = 0.0;
  for (const OlapQuery& q : queries) {
    auto r = session->Sql(q.sql);
    if (!r.ok()) {
      std::fprintf(stderr, "warm-up query %s failed: %s\n", q.name,
                   r.status().ToString().c_str());
      return 1;
    }
    expected.push_back(ResultChecksum(r->rows));
    virtual_s += r->metrics.virtual_seconds;
  }

  const double peak_rss = PeakRssMb();
  const double rss_after_warmup = CurrentRssMb();

  // Measured passes. A traced run alternates untraced and traced passes, so
  // both see the same machine conditions.
  const size_t nq = queries.size();
  std::vector<std::vector<double>> lat_ms(nq), exec_ms(nq);
  std::vector<double> all_ms;
  std::vector<double> pass_cpu_per_op;
  double untraced_ms = 0.0, traced_ms = 0.0;
  int64_t untraced_n = 0, traced_n = 0;
  std::vector<SelectTiming> timings;
  std::vector<shark::QueryMetrics> traced_metrics;
  std::vector<size_t> traced_query;
  const MemGuards guards(ctx);
  uint64_t op = 0;
  const double start = NowMs();
  for (int pass = 0;; ++pass) {
    double elapsed = NowMs() - start;
    bool need_traced = options.trace && traced_n == 0;
    if (elapsed >= options.seconds * 1e3 && !need_traced) break;
    const bool traced = options.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    double pass_cpu_ms = 0.0;
    for (size_t i = 0; i < nq; ++i) {
      const OlapQuery& q = queries[i];
      SelectTiming timing;
      shark::Result<shark::QueryResult> r = shark::Status::Internal("unset");
      double c0 = CpuMs();
      double t0 = NowMs();
      if (traced) {
        Span root(q.root_span, ++op);
        r = LayeredSelect(session.get(), q.sql, &timing);
      } else {
        r = session->Sql(q.sql);
      }
      double ms = NowMs() - t0;
      double cpu = CpuMs() - c0;
      bool ok = r.ok() && ResultChecksum(r->rows) == expected[i];
      if (!ok) {
        report->Mismatch(
            std::string(q.name) + ": " +
            (r.ok() ? "result checksum differs from the warm-up pass"
                    : r.status().ToString()));
      }
      report->CountOp(!ok);
      if (traced) {
        traced_ms += ms;
        ++traced_n;
        exec_ms[i].push_back(timing.execute_us / 1e3);
        timings.push_back(timing);
        if (r.ok()) traced_metrics.push_back(r->metrics);
        else traced_metrics.emplace_back();
        traced_query.push_back(i);
      } else {
        untraced_ms += ms;
        ++untraced_n;
        pass_cpu_ms += cpu;
        lat_ms[i].push_back(ms);
        all_ms.push_back(ms);
      }
    }
    if (!traced) {
      pass_cpu_per_op.push_back(pass_cpu_ms / static_cast<double>(nq));
    }
  }
  tracer.set_enabled(false);

  std::vector<double> medians;
  for (size_t i = 0; i < nq; ++i) medians.push_back(Median(lat_ms[i]));
  const int64_t n = untraced_n;
  ReportSetups(setups, report);
  report->Set("queries_per_s", n / (untraced_ms / 1e3), "1/s", n);
  report->Set("query_ms_geomean", Geomean(medians), "ms", n);
  report->Set("latency_p50_ms", Median(all_ms), "ms", n);
  report->Set("cpu_ms_per_op", Median(pass_cpu_per_op), "ms",
              static_cast<int64_t>(pass_cpu_per_op.size()));
  report->Set("virtual_s", virtual_s, "s", 1);
  report->Set("peak_rss_mb", peak_rss, "MiB");
  report->Set("failed_frac",
              static_cast<double>(report->failed()) / report->attempted(), "1",
              report->attempted());
  for (size_t i = 0; i < nq; ++i) {
    report->Set(std::string("query_ms.") + queries[i].name, medians[i], "ms",
                static_cast<int64_t>(lat_ms[i].size()));
  }
  if (!options.trace) return 0;

  // ---- per-layer metrics from the traced passes ----
  std::vector<double> parse, analyze, plan;
  double frontend_us = 0, total_us = 0, exec_us = 0, exec_cpu_us = 0;
  double scan_rows = 0, scan_bytes = 0, scan_us = 0;
  double stages = 0, tasks = 0, shuffle_bytes = 0;
  for (size_t k = 0; k < timings.size(); ++k) {
    const SelectTiming& t = timings[k];
    const shark::QueryMetrics& m = traced_metrics[k];
    const OlapQuery& q = queries[traced_query[k]];
    parse.push_back(t.parse_us);
    analyze.push_back(t.analyze_us);
    plan.push_back(t.plan_us);
    frontend_us += t.parse_us + t.analyze_us + t.plan_us;
    total_us += t.total_us;
    exec_us += t.execute_us;
    exec_cpu_us += t.execute_cpu_us;
    stages += m.stages;
    tasks += m.tasks;
    shuffle_bytes += static_cast<double>(m.work.net_read_bytes);
    if (q.scanned_table != nullptr) {
      auto info = session->catalog().Get(q.scanned_table);
      double rows = std::string(q.scanned_table) == "rankings"
                        ? size.rankings_rows
                        : size.visits_rows;
      if (info.ok() && (*info)->num_partitions > 0) {
        rows = rows * m.partitions_scanned / (*info)->num_partitions;
      }
      scan_rows += rows;
      scan_bytes += static_cast<double>(m.work.mem_read_bytes);
      scan_us += t.execute_us;
    }
  }
  const double tq = static_cast<double>(timings.size());
  report->Set("sql.parse_us", Median(parse), "us", traced_n);
  report->Set("sql.analyze_us", Median(analyze), "us", traced_n);
  report->Set("sql.plan_us", Median(plan), "us", traced_n);
  report->Set("sql.frontend_share", frontend_us / total_us, "1", traced_n);
  for (size_t i = 0; i + 1 < nq; ++i) {
    report->Set(std::string("exec.execute_ms.") + queries[i].name,
                Median(exec_ms[i]), "ms",
                static_cast<int64_t>(exec_ms[i].size()));
  }
  report->Set("exec.row_path_ms", Median(exec_ms[nq - 1]), "ms",
              static_cast<int64_t>(exec_ms[nq - 1].size()));
  const double roof = MemoryReadRoof(ctx->effective_host_threads());
  const double scan_bps = scan_bytes / (scan_us / 1e6);
  report->Set("exec.scan_rows_per_s", scan_rows / (scan_us / 1e6), "rows/s");
  report->Set("exec.scan_bytes_per_s", scan_bps, "B/s");
  report->Set("exec.mem_roof_bytes_per_s", roof, "B/s");
  report->Set("exec.scan_roof_share", scan_bps / roof, "1");
  report->Set("rdd.stages_per_query", stages / tq, "count", traced_n);
  report->Set("rdd.tasks_per_query", tasks / tq, "count", traced_n);
  report->Set("rdd.shuffle_bytes_per_query", shuffle_bytes / tq, "B", traced_n);
  report->Set("rdd.host_us_per_task", exec_us / tasks, "us", traced_n);
  report->Set("rdd.cores_busy", exec_cpu_us / exec_us, "cores", traced_n);
  report->Set("mem.rss_growth_mb", CurrentRssMb() - rss_after_warmup, "MiB");
  guards.SetMetrics(report);
  const double untraced_qps = untraced_n / untraced_ms;
  const double traced_qps = traced_n / traced_ms;
  report->Set("bench.tracing_overhead", traced_qps / untraced_qps, "1");
  ReportSpanAccounting(report);
  return 0;
}

}  // namespace perfbench
