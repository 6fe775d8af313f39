// shark_perfbench: runs one benchmark workload and prints its metrics.
//
//   shark_perfbench --workload olap_mix|serve_point|ingest_train --seed N
//                   --seconds S [--trace 0|1] [--trace-out FILE]
//                   [--exec use_indexes=0] [--selftest]
//
// --selftest (olap_mix only) runs a reduced instance against the reference
// evaluator instead of measuring; --exec flips one ExecOptions field.
//
// Every metric is printed as "metric <name> <value> <unit> n=<samples>";
// the last line is one JSON object with correct/attempted/failed/metrics.
// perfbench/run.py builds this program and selects the metrics BENCHMARK.json
// names.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Per-layer metrics of layers a workload does not drive. They are set to 0
/// so every traced run reports the same names; 0 reads "not on this
/// workload's path" (see README.md).
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"sql.parse_us", "us"},
    {"sql.analyze_us", "us"},
    {"sql.plan_us", "us"},
    {"sql.frontend_share", "1"},
    {"stats.analyze_ms", "ms"},
    {"exec.execute_ms.selection", "ms"},
    {"exec.execute_ms.agg_fine", "ms"},
    {"exec.execute_ms.agg_substr", "ms"},
    {"exec.execute_ms.join", "ms"},
    {"exec.execute_ms.topk", "ms"},
    {"exec.execute_ms.count_like", "ms"},
    {"exec.row_path_ms", "ms"},
    {"exec.scan_rows_per_s", "rows/s"},
    {"exec.scan_bytes_per_s", "B/s"},
    {"exec.mem_roof_bytes_per_s", "B/s"},
    {"exec.scan_roof_share", "1"},
    {"rdd.stages_per_query", "count"},
    {"rdd.tasks_per_query", "count"},
    {"rdd.shuffle_bytes_per_query", "B"},
    {"rdd.host_us_per_task", "us"},
    {"rdd.cores_busy", "cores"},
    {"columnar.load_rows_per_s", "rows/s"},
    {"columnar.bytes_per_row", "B"},
    {"sim.dfs_write_rows_per_s", "rows/s"},
    {"index.build_ms", "ms"},
    {"index.partitions_per_lookup", "count"},
    {"ml.sql2rdd_ms", "ms"},
    {"ml.train_iter_ms", "ms"},
    {"server.rtt_p50_ms", "ms"},
    {"server.rtt_p99_ms", "ms"},
    {"server.host_p50_ms", "ms"},
    {"server.host_p99_ms", "ms"},
    {"server.wire_ms", "ms"},
    {"server.jobmgr_ms", "ms"},
    {"server.scrape_ms", "ms"},
    {"mem.rss_growth_mb", "MiB"},
    {"mem.spill_bytes", "B"},
    {"mem.admission_queued", "count"},
    {"bench.gen_lateness_ms", "ms"},
    {"bench.tracing_overhead", "1"},
    {"bench.unattributed_share", "1"},
};

/// Wall-clock end-to-end metrics. On a shared machine they swing too much
/// from run to run to gate a change on (see README.md), so BENCHMARK.json
/// lists them among the traced run's metrics, under "wall.".
/// Those a workload does not measure read 0, like kLayerMetrics.
constexpr LayerMetric kWallMetrics[] = {
    {"queries_per_s", "1/s"},      {"query_ms_geomean", "ms"},
    {"latency_p50_ms", "ms"},      {"latency_p99_ms", "ms"},
    {"max_qps_at_slo", "1/s"},     {"ingest_rows_per_s", "rows/s"},
    {"setup_wall_s", "s"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: shark_perfbench --workload olap_mix|serve_point|"
               "ingest_train --seed N --seconds S [--trace 0|1] "
               "[--trace-out FILE] [--exec KEY=0|1] [--selftest]\n");
  return 2;
}

}  // namespace

void ReportSpanAccounting(Report* report) {
  const std::string root_prefix = "op.";
  auto totals = Tracer::Get().Totals(root_prefix);
  double op_total = 0.0, op_self = 0.0, all_self = 0.0;
  for (const auto& [name, t] : totals) {
    all_self += t.self_us;
    if (name.compare(0, root_prefix.size(), root_prefix) == 0) {
      op_total += t.total_us;
      op_self += t.self_us;
    }
  }
  std::printf("span self time under %s* operations (%.1f ms in total):\n",
              root_prefix.c_str(), op_total / 1e3);
  for (const auto& [name, t] : totals) {
    std::printf("  span %-24s count %7lld self %10.2f ms  %5.1f%%\n",
                name.c_str(), static_cast<long long>(t.count), t.self_us / 1e3,
                all_self > 0 ? 100.0 * t.self_us / all_self : 0.0);
  }
  report->Set("bench.unattributed_share",
              op_total > 0 ? op_self / op_total : 0.0, "1");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--exec") {
      std::string kv = value();
      size_t eq = kv.find('=');
      if (eq == std::string::npos) return perfbench::Usage();
      options.exec_overrides[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else if (arg == "--selftest") {
      options.selftest = true;
    } else {
      return perfbench::Usage();
    }
  }
  if (options.seconds <= 0) return perfbench::Usage();
  // The reference evaluator is single-threaded and naive; only the reduced
  // olap_mix instance is small enough for it.
  if (options.selftest && options.workload != "olap_mix") {
    return perfbench::Usage();
  }
  // Engine warnings would interleave with the metric lines.
  shark::SetLogLevel(shark::LogLevel::kError);

  perfbench::Report report;
  int rc = 0;
  if (options.workload == "olap_mix") {
    rc = perfbench::RunOlapMix(options, &report);
  } else if (options.workload == "serve_point") {
    rc = perfbench::RunServePoint(options, &report);
  } else if (options.workload == "ingest_train") {
    rc = perfbench::RunIngestTrain(options, &report);
  } else {
    return perfbench::Usage();
  }
  if (rc != 0 || options.selftest) return rc;
  if (options.trace) {
    for (const auto& m : perfbench::kWallMetrics) {
      double value = 0.0;
      std::string unit = m.unit;
      report.Get(m.name, &value, &unit);
      report.Set(std::string("wall.") + m.name, value, unit);
    }
    for (const auto& m : perfbench::kLayerMetrics) {
      if (!report.Has(m.name)) report.Set(m.name, 0.0, m.unit);
    }
    if (!options.trace_out.empty() &&
        !perfbench::Tracer::Get().WriteChromeTrace(options.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", options.trace_out.c_str());
    }
  }
  report.Print();
  return 0;
}
