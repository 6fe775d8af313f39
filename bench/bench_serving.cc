// Serving benchmark for the multi-session front-end: an open-loop arrival
// sweep (clients x arrival rate) over the JobManager's admission control,
// reporting p50/p99 query latency and the saturation QPS, plus a loopback
// mode that drives the same query mix through a real shark_server TCP
// socket with concurrent client connections.
//
//   bench_serving             full sweep + loopback
//   bench_serving --smoke     small sweep + loopback (ci.sh serving phase)
//   bench_serving --loopback  loopback only
//
// The sweep is deterministic: arrivals come from a fixed-seed RNG and all
// latencies are virtual-time observables, so every sweep line is
// bit-identical across runs and host thread counts. The loopback phase is
// wall-clock ordered (real sockets), so only its counts are gate-checked.
// The BENCH lines name the bench "serving" ("serving_smoke" under --smoke).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "rdd/job_manager.h"
#include "server/client.h"
#include "server/demo_dataset.h"
#include "server/server.h"

using namespace shark;         // NOLINT(build/namespaces)
using namespace shark::bench;  // NOLINT(build/namespaces)

namespace {

const char* kQueryMix[] = {
    "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 300",
    "SELECT avgDuration, COUNT(*) FROM rankings GROUP BY avgDuration",
    "SELECT sourceIP, SUM(adRevenue) FROM visits GROUP BY sourceIP",
    "SELECT COUNT(*) FROM visits WHERE adRevenue > 2.0",
};
constexpr int kMixSize = 4;

std::shared_ptr<SharkSession> MakeServingSession() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.seed = 42;
  auto session =
      std::make_shared<SharkSession>(std::make_shared<ClusterContext>(cfg));
  Status s = LoadDemoDataset(session.get(), /*rankings_rows=*/400,
                             /*visits_rows=*/1200);
  if (!s.ok()) {
    std::fprintf(stderr, "dataset load failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return session;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  if (idx > 0) --idx;
  return v[std::min(idx, v.size() - 1)];
}

struct SweepPoint {
  int sessions = 0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double queued_frac = 0.0;
  uint64_t completed_counter = 0;  // cross-check from cluster metrics
};

/// One open-loop configuration: `num_queries` arrivals with exponential
/// inter-arrival times at `offered_qps` (virtual time), tagged round-robin
/// to `sessions` logical clients; heavier clients get a larger fair-share
/// weight and every 7th query declares a working-set demand so admission
/// control actually queues under pressure.
SweepPoint RunSweepPoint(int sessions, double offered_qps, int num_queries,
                         uint32_t seed, bool collect_query_metrics = true) {
  auto session = MakeServingSession();
  ClusterContext& ctx = session->context();
  uint64_t headroom = ctx.memory_manager().AdmissionHeadroomBytes();

  std::mt19937 rng(seed);
  std::exponential_distribution<double> gap(offered_qps);
  std::vector<JobSpec> specs(static_cast<size_t>(num_queries));
  double at = 0.0;
  for (int i = 0; i < num_queries; ++i) {
    at += gap(rng);
    JobSpec& spec = specs[static_cast<size_t>(i)];
    int client = i % sessions;
    spec.label = "c" + std::to_string(client) + "#" + std::to_string(i);
    spec.query_id = "q" + std::to_string(i);
    spec.session = "c" + std::to_string(client);
    spec.arrival_vtime = at;
    spec.weight = 1.0 + (client % 2);  // half the clients are "premium"
    if (i % 7 == 3) spec.mem_demand_bytes = headroom / 3;
    std::string sql = kQueryMix[i % kMixSize];
    SharkSession* sp = session.get();
    spec.body = [sp, sql]() -> Status { return sp->Sql(sql).status(); };
  }

  JobManager::Options jopts;
  jopts.collect_query_metrics = collect_query_metrics;
  JobManager jm(&ctx, jopts);
  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));

  SweepPoint point;
  point.sessions = sessions;
  point.offered_qps = offered_qps;
  std::vector<double> latencies;
  double first_arrival = 1e300, last_finish = 0.0;
  int queued = 0;
  for (const JobOutcome& o : outcomes) {
    if (!o.status.ok()) {
      std::fprintf(stderr, "sweep query failed: %s\n",
                   o.status.ToString().c_str());
      std::exit(1);
    }
    latencies.push_back(o.latency());
    first_arrival = std::min(first_arrival, o.arrival_vtime);
    last_finish = std::max(last_finish, o.finish_vtime);
    if (o.queued) queued++;
  }
  double window = last_finish - first_arrival;
  point.achieved_qps = window > 0 ? outcomes.size() / window : 0.0;
  point.p50 = Percentile(latencies, 0.50);
  point.p99 = Percentile(latencies, 0.99);
  point.queued_frac =
      static_cast<double>(queued) / static_cast<double>(outcomes.size());
  for (const auto& [name, value] :
       ctx.metrics().registry().CounterSnapshot()) {
    if (name == "shark_jobs_completed_total") point.completed_counter = value;
  }
  return point;
}

/// One sweep point, labelled `sweep.s<sessions>.qps<offered rate>`.
void EmitSweep(const std::string& bench, const SweepPoint& p) {
  char label[64];
  std::snprintf(label, sizeof(label), "sweep.s%d.qps%g", p.sessions,
                p.offered_qps);
  EmitBench(bench, label, "achieved_qps", p.achieved_qps, "1/s",
            Clock::kVirtual);
  EmitBench(bench, label, "p50_latency", p.p50, "s", Clock::kVirtual);
  EmitBench(bench, label, "p99_latency", p.p99, "s", Clock::kVirtual);
  EmitBench(bench, label, "queued_frac", p.queued_frac, "1", Clock::kVirtual);
  EmitBench(bench, label, "jobs_completed",
            static_cast<double>(p.completed_counter), "jobs", Clock::kCount);
}

/// Drives `clients` concurrent SharkClient connections through a real
/// shark_server on a loopback socket; each issues `queries_per_client`
/// queries from the mix. Latencies are still virtual-time (from the reply
/// header), but arrival interleaving is wall-clock, so only counts and
/// percentile sanity are gated.
void RunLoopback(const std::string& bench, int clients,
                 int queries_per_client) {
  SharkServer::Options opts;
  opts.max_queries_per_connection =
      static_cast<uint64_t>(queries_per_client) + 2;  // quota headroom
  SharkServer server(MakeServingSession(), opts);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(clients));
  std::vector<int> ok_counts(static_cast<size_t>(clients), 0);
  WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      SharkClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      if (!client.SetWeight(1.0 + (c % 2)).ok()) return;
      for (int q = 0; q < queries_per_client; ++q) {
        auto r = client.Query(kQueryMix[(c + q) % kMixSize]);
        if (!r.ok()) {
          std::fprintf(stderr, "loopback query failed: %s\n",
                       r.status().ToString().c_str());
          return;
        }
        latencies[static_cast<size_t>(c)].push_back(r->virtual_seconds +
                                                    r->queue_delay);
        ok_counts[static_cast<size_t>(c)]++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double wall_ms = timer.ElapsedMs();
  uint64_t total_queries = server.total_queries();
  server.Stop();

  std::vector<double> all;
  int ok = 0;
  for (int c = 0; c < clients; ++c) {
    ok += ok_counts[static_cast<size_t>(c)];
    all.insert(all.end(), latencies[static_cast<size_t>(c)].begin(),
               latencies[static_cast<size_t>(c)].end());
  }
  // Virtual-second latencies, but of wall-clock-ordered arrivals: they
  // differ between runs, so they carry the host clock.
  std::printf("\nloopback: %d clients x %d queries via TCP, %d ok, "
              "host %.0fms, latency p50 %.4fs p99 %.4fs "
              "(wall-clock arrival order, not reproducible)\n",
              clients, queries_per_client, ok, wall_ms,
              Percentile(all, 0.50), Percentile(all, 0.99));

  EmitBench(bench, "loopback", "sessions", clients, "sessions",
            Clock::kCount);
  EmitBench(bench, "loopback", "queries", static_cast<double>(total_queries),
            "queries", Clock::kCount);
  EmitBench(bench, "loopback", "ok", ok, "queries", Clock::kCount);
  EmitBench(bench, "loopback", "p50_latency", Percentile(all, 0.50), "s",
            Clock::kHost);
  EmitBench(bench, "loopback", "p99_latency", Percentile(all, 0.99), "s",
            Clock::kHost);
}

/// Observability-plane overhead: one fixed open-loop configuration executed
/// with query-metric collection on and off, interleaved, min-of-3 process
/// CPU on each side (wall-clock is reported beside it). The virtual-time
/// results must be bit-identical (the plane only ever observes the
/// schedule), and the host-time overhead should stay within a few percent
/// (3% is the design target; the committed gate ceiling is looser because
/// tiny smoke workloads are noisy).
void RunObsOverhead(const std::string& bench, bool smoke) {
  const int sessions = 8;
  const double rate = 16.0;
  const int num_queries = smoke ? 48 : 120;
  const uint32_t seed = 9000;

  // The ratio is taken on process CPU: a wall-clock ratio also counts the
  // time the job threads wait for a core, which moves with whatever else
  // shares the machine.
  double wall_on = 1e300, wall_off = 1e300;
  double cpu_on = 1e300, cpu_off = 1e300;
  SweepPoint on, off;
  for (int i = 0; i < 3; ++i) {
    for (const bool plane : {true, false}) {
      WallTimer wall;
      CpuTimer cpu;
      SweepPoint p = RunSweepPoint(sessions, rate, num_queries, seed,
                                   /*collect_query_metrics=*/plane);
      (plane ? cpu_on : cpu_off) =
          std::min(plane ? cpu_on : cpu_off, cpu.ElapsedMs());
      (plane ? wall_on : wall_off) =
          std::min(plane ? wall_on : wall_off, wall.ElapsedMs());
      (plane ? on : off) = p;
    }
  }
  const bool identical = on.p50 == off.p50 && on.p99 == off.p99 &&
                         on.achieved_qps == off.achieved_qps &&
                         on.queued_frac == off.queued_frac &&
                         on.completed_counter == off.completed_counter;
  const double ratio = cpu_off > 0 ? cpu_on / cpu_off : 0.0;
  std::printf("\nobservability plane: %d queries, process CPU %.0fms on / "
              "%.0fms off (ratio %.3f, target <= 1.03), wall %.0fms on / "
              "%.0fms off, virtual results %s\n",
              num_queries, cpu_on, cpu_off, ratio, wall_on, wall_off,
              identical ? "identical" : "DIVERGED");

  EmitBench(bench, "obs", "wall_on_ms", wall_on, "ms", Clock::kHost);
  EmitBench(bench, "obs", "wall_off_ms", wall_off, "ms", Clock::kHost);
  EmitBench(bench, "obs", "cpu_on_ms", cpu_on, "ms", Clock::kHost);
  EmitBench(bench, "obs", "cpu_off_ms", cpu_off, "ms", Clock::kHost);
  EmitBench(bench, "obs", "overhead_ratio", ratio, "x", Clock::kHost);
  EmitBench(bench, "obs", "virtual_identical", identical ? 1 : 0, "bool",
            Clock::kCount);
  EmitBench(bench, "obs", "p99_latency", on.p99, "s", Clock::kVirtual);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, loopback_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--loopback") == 0) loopback_only = true;
  }

  const std::string bench = smoke ? "serving_smoke" : "serving";
  PrintHeader("Serving - multi-session admission & latency",
              "concurrent sessions share the cluster; latency degrades "
              "gracefully and throughput saturates instead of collapsing");

  if (!loopback_only) {
    std::vector<int> session_counts = smoke ? std::vector<int>{8}
                                            : std::vector<int>{8, 16};
    std::vector<double> rates =
        smoke ? std::vector<double>{1.0, 16.0, 256.0}
              : std::vector<double>{0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0,
                                    256.0};
    int num_queries = smoke ? 48 : 160;

    std::printf("\n%9s %12s %13s %11s %11s %11s\n", "sessions", "offered_qps",
                "achieved_qps", "p50 (s)", "p99 (s)", "queued");
    double saturation = 0.0;
    for (int sc : session_counts) {
      for (size_t ri = 0; ri < rates.size(); ++ri) {
        // Seed depends only on the configuration, never on the run.
        uint32_t seed = 1000u * static_cast<uint32_t>(sc) +
                        static_cast<uint32_t>(ri);
        SweepPoint p = RunSweepPoint(sc, rates[ri], num_queries, seed);
        saturation = std::max(saturation, p.achieved_qps);
        std::printf("%9d %12.1f %13.3f %11.4f %11.4f %10.0f%%\n", p.sessions,
                    p.offered_qps, p.achieved_qps, p.p50, p.p99,
                    100.0 * p.queued_frac);
        EmitSweep(bench, p);
      }
    }
    std::printf("\nsaturation: %.3f QPS (max achieved across the sweep)\n",
                saturation);
    EmitBench(bench, "summary", "saturation_qps", saturation, "1/s",
              Clock::kVirtual);
  }

  RunLoopback(bench, /*clients=*/8, /*queries_per_client=*/smoke ? 3 : 6);
  if (!loopback_only) RunObsOverhead(bench, smoke);
  return 0;
}
