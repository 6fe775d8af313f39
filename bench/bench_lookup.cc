// Point-lookup serving benchmark for the secondary-index subsystem: a
// selectivity sweep comparing the full in-memory columnar scan against the
// B+-tree IndexRangeScan on the same query (virtual seconds, deterministic),
// plus an open-loop high-QPS sweep of point lookups through the JobManager
// with indexes on vs off, reporting p50/p99 latency and achieved QPS.
//
//   bench_lookup            full selectivity points + QPS sweep
//   bench_lookup --smoke    same point phase, smaller QPS sweep (ci.sh)
//
// The lookup table's key column is a *permutation* of 0..N-1 (k = i * P mod
// N), so per-partition min/max statistics cannot prune the scan — every
// block spans the whole key domain, which is exactly the regime where a
// secondary index earns its memory. All reported times are virtual-time
// observables; every BENCH line ("lookup", or "lookup_smoke" under --smoke)
// is bit-identical across runs and host thread counts. bench/claims.json
// holds the index floors tools/bench_gate enforces on them.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "rdd/job_manager.h"

using namespace shark;         // NOLINT(build/namespaces)
using namespace shark::bench;  // NOLINT(build/namespaces)

namespace {

// 100k unique keys; 99991 is coprime to 100000, so k is a permutation.
constexpr int kNumRows = 100000;
constexpr int64_t kKeyStride = 99991;
constexpr int kNumBlocks = 16;

std::unique_ptr<SharkSession> MakeLookupSession() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.profile = EngineProfile::Shark();
  // Scale the scan work up to paper-sized data (2M effective rows) while
  // keeping the host-side dataset small; task overheads do not scale.
  cfg.virtual_data_scale = 20.0;
  cfg.seed = 42;
  auto session =
      std::make_unique<SharkSession>(std::make_shared<ClusterContext>(cfg));

  Schema schema({{"k", TypeKind::kInt64},
                 {"pad", TypeKind::kString},
                 {"v", TypeKind::kDouble}});
  std::vector<Row> rows;
  rows.reserve(kNumRows);
  for (int i = 0; i < kNumRows; ++i) {
    int64_t k = (static_cast<int64_t>(i) * kKeyStride) % kNumRows;
    rows.push_back(Row({Value::Int64(k),
                        Value::String("pad-" + std::to_string(i % 97)),
                        Value::Double(0.5 * i)}));
  }
  Status s = session->CreateDfsTable("lookup", schema, rows, kNumBlocks);
  if (s.ok()) s = session->CacheTable("lookup");
  if (!s.ok()) {
    std::fprintf(stderr, "lookup table setup failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  MustRun(session.get(), "ANALYZE TABLE lookup");
  MustRun(session.get(), "CREATE INDEX idx_k ON lookup(k)");
  return session;
}

struct PointResult {
  std::string label;
  int match_rows = 0;
  double selectivity_pct = 0.0;
  double scan_seconds = 0.0;
  double index_seconds = 0.0;
  double speedup = 0.0;
  bool index_plan = false;  // EXPLAIN chose IndexRangeScan
};

/// Times one query with indexes disabled then enabled (one warm discard
/// each, per the paper's §6.1 methodology) and records whether the planner
/// actually flipped to IndexRangeScan.
PointResult RunPoint(SharkSession* session, const std::string& label,
                     const std::string& sql, int match_rows) {
  PointResult p;
  p.label = label;
  p.match_rows = match_rows;
  p.selectivity_pct = 100.0 * match_rows / kNumRows;

  session->options().use_indexes = false;
  TimedRun(session, sql);  // warm discard
  p.scan_seconds = TimedRun(session, sql);

  session->options().use_indexes = true;
  auto plan = session->Explain(sql);
  if (!plan.ok()) {
    std::fprintf(stderr, "EXPLAIN failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  p.index_plan = plan->find("IndexRangeScan") != std::string::npos;
  TimedRun(session, sql);  // warm discard
  p.index_seconds = TimedRun(session, sql);
  p.speedup = Ratio(p.scan_seconds, p.index_seconds);
  return p;
}

/// One selectivity point, labelled `point.<name>.sel<selectivity>pct`.
void EmitPoint(const std::string& bench, const PointResult& p) {
  char label[96];
  std::snprintf(label, sizeof(label), "point.%s.sel%gpct", p.label.c_str(),
                p.selectivity_pct);
  EmitBench(bench, label, "scan_s", p.scan_seconds, "s", Clock::kVirtual);
  EmitBench(bench, label, "index_s", p.index_seconds, "s", Clock::kVirtual);
  EmitBench(bench, label, "index_plan", p.index_plan ? 1 : 0, "bool",
            Clock::kCount);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (idx > 0) --idx;
  return v[std::min(idx, v.size() - 1)];
}

struct SweepPoint {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Open-loop point-lookup stream: `num_queries` single-key equality probes
/// with exponential inter-arrival gaps at `offered_qps` (virtual time),
/// run through the JobManager's admission control. Keys come from a
/// fixed-seed RNG, so the stream is identical for the indexed and
/// index-disabled runs.
SweepPoint RunSweep(bool use_index, double offered_qps, int num_queries,
                    uint32_t seed) {
  auto session = MakeLookupSession();
  session->options().use_indexes = use_index;
  ClusterContext& ctx = session->context();

  std::mt19937 rng(seed);
  std::exponential_distribution<double> gap(offered_qps);
  std::uniform_int_distribution<int64_t> key(0, kNumRows - 1);
  std::vector<JobSpec> specs(static_cast<size_t>(num_queries));
  double at = 0.0;
  for (int i = 0; i < num_queries; ++i) {
    at += gap(rng);
    JobSpec& spec = specs[static_cast<size_t>(i)];
    spec.label = "lookup#" + std::to_string(i);
    spec.arrival_vtime = at;
    std::string sql =
        "SELECT k, v FROM lookup WHERE k = " + std::to_string(key(rng));
    SharkSession* sp = session.get();
    spec.body = [sp, sql]() -> Status { return sp->Sql(sql).status(); };
  }

  JobManager jm(&ctx);
  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));

  SweepPoint point;
  point.offered_qps = offered_qps;
  std::vector<double> latencies;
  double first_arrival = 1e300, last_finish = 0.0;
  for (const JobOutcome& o : outcomes) {
    if (!o.status.ok()) {
      std::fprintf(stderr, "sweep lookup failed: %s\n",
                   o.status.ToString().c_str());
      std::exit(1);
    }
    latencies.push_back(o.latency());
    first_arrival = std::min(first_arrival, o.arrival_vtime);
    last_finish = std::max(last_finish, o.finish_vtime);
  }
  double window = last_finish - first_arrival;
  point.achieved_qps = window > 0 ? outcomes.size() / window : 0.0;
  point.p50 = Percentile(latencies, 0.50);
  point.p99 = Percentile(latencies, 0.99);
  return point;
}

/// One sweep point, labelled `sweep.<indexed|scan>.qps<offered rate>`.
void EmitSweep(const std::string& bench, bool use_index, const SweepPoint& p) {
  char label[64];
  std::snprintf(label, sizeof(label), "sweep.%s.qps%g",
                use_index ? "indexed" : "scan", p.offered_qps);
  EmitBench(bench, label, "achieved_qps", p.achieved_qps, "1/s",
            Clock::kVirtual);
  EmitBench(bench, label, "p50_latency", p.p50, "s", Clock::kVirtual);
  EmitBench(bench, label, "p99_latency", p.p99, "s", Clock::kVirtual);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::string bench = smoke ? "lookup_smoke" : "lookup";
  PrintHeader("Lookup - secondary-index point & range serving",
              "a B+-tree secondary index beats the full in-memory columnar "
              "scan by >=5x on selective lookups and lifts saturation QPS "
              "for point-lookup serving");

  // -- selectivity points (gated) -------------------------------------------
  auto session = MakeLookupSession();
  struct Spec {
    const char* label;
    std::string sql;
    int match_rows;
  };
  std::vector<Spec> specs = {
      {"eq_1", "SELECT k, v FROM lookup WHERE k = 73123", 1},
      {"between_10",
       "SELECT k, v FROM lookup WHERE k BETWEEN 50000 AND 50009", 10},
      {"between_100",
       "SELECT k, v FROM lookup WHERE k BETWEEN 50000 AND 50099", 100},
      {"between_1000",
       "SELECT k, v FROM lookup WHERE k BETWEEN 50000 AND 50999", 1000},
  };
  std::printf("\n%14s %10s %12s %13s %14s %9s %6s\n", "point", "rows",
              "selectivity", "scan (s)", "index (s)", "speedup", "plan");
  double gated_speedup = 0.0;
  bool gated_plan = false;
  for (const Spec& s : specs) {
    PointResult p = RunPoint(session.get(), s.label, s.sql, s.match_rows);
    std::printf("%14s %10d %11.4f%% %13.6f %14.6f %8.2fx %6s\n",
                p.label.c_str(), p.match_rows, p.selectivity_pct,
                p.scan_seconds, p.index_seconds, p.speedup,
                p.index_plan ? "index" : "scan");
    EmitPoint(bench, p);
    if (s.match_rows == 1) {
      gated_speedup = p.speedup;
      gated_plan = p.index_plan;
    }
  }
  if (!gated_plan) {
    std::fprintf(stderr,
                 "the selective point lookup did not plan as IndexRangeScan "
                 "- the gated speedup would be measuring nothing\n");
    return 1;
  }
  session.reset();

  // -- open-loop QPS sweep, indexes on vs off -------------------------------
  std::vector<double> rates = smoke ? std::vector<double>{32.0, 512.0}
                                    : std::vector<double>{32.0, 128.0, 512.0};
  int num_queries = smoke ? 40 : 120;
  std::printf("\n%9s %12s %13s %11s %11s\n", "indexes", "offered_qps",
              "achieved_qps", "p50 (s)", "p99 (s)");
  double saturation_on = 0.0, saturation_off = 0.0;
  for (int use_index = 0; use_index < 2; ++use_index) {
    for (size_t ri = 0; ri < rates.size(); ++ri) {
      // Seed depends only on the configuration, never on the run.
      uint32_t seed = 7000u + static_cast<uint32_t>(ri);
      SweepPoint p = RunSweep(use_index == 1, rates[ri], num_queries, seed);
      std::printf("%9s %12.1f %13.3f %11.4f %11.4f\n",
                  use_index ? "on" : "off", p.offered_qps, p.achieved_qps,
                  p.p50, p.p99);
      EmitSweep(bench, use_index == 1, p);
      if (use_index == 1) {
        saturation_on = std::max(saturation_on, p.achieved_qps);
      } else {
        saturation_off = std::max(saturation_off, p.achieved_qps);
      }
    }
  }

  double qps_ratio = Ratio(saturation_on, saturation_off);
  std::printf("\nselective point lookup: %.2fx faster indexed; saturation "
              "%.1f QPS indexed vs %.1f QPS scan (%.2fx)\n",
              gated_speedup, saturation_on, saturation_off, qps_ratio);
  EmitBench(bench, "summary.indexed", "saturation_qps", saturation_on, "1/s",
            Clock::kVirtual);
  EmitBench(bench, "summary.scan", "saturation_qps", saturation_off, "1/s",
            Clock::kVirtual);
  return 0;
}
