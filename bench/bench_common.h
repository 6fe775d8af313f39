#ifndef SHARK_BENCH_BENCH_COMMON_H_
#define SHARK_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "hive/hive_engine.h"
#include "sql/session.h"

namespace shark {
namespace bench {

/// The paper's cluster: 100 m2.4xlarge nodes x 8 cores (§6.1).
inline ClusterConfig PaperCluster(double virtual_data_scale,
                                  int num_nodes = 100) {
  ClusterConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.hardware = HardwareModel();
  cfg.profile = EngineProfile::Shark();
  cfg.virtual_data_scale = virtual_data_scale;
  cfg.seed = 42;
  return cfg;
}

inline std::unique_ptr<SharkSession> MakeSharkSession(
    double virtual_data_scale, int num_nodes = 100) {
  return std::make_unique<SharkSession>(std::make_shared<ClusterContext>(
      PaperCluster(virtual_data_scale, num_nodes)));
}

/// Runs a query, asserting success; returns its virtual seconds.
inline QueryResult MustRun(SharkSession* session, const std::string& sql) {
  auto result = session->Sql(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n",
                 result.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  return std::move(*result);
}

/// Host wall-clock stopwatch — measures how long the bench process actually
/// took, as opposed to the simulator's virtual seconds.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Process CPU stopwatch (user + system time of every thread, from
/// getrusage): host work that, unlike wall-clock, does not grow while the
/// process waits for a core it shares with its neighbours.
class CpuTimer {
 public:
  CpuTimer() : start_(NowMs()) {}
  double ElapsedMs() const { return NowMs() - start_; }

 private:
  static double NowMs() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 +
             static_cast<double>(tv.tv_usec) / 1e3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
  }

  double start_;
};

/// Paper methodology (§6.1): run six times, discard the first (JIT warmup),
/// average the rest. Our virtual times are deterministic, but warm runs
/// matter (shuffle reuse is intentionally avoided by rebuilding the query;
/// cache effects are intentional), so we run once warm after a discard.
inline double TimedRun(SharkSession* session, const std::string& sql) {
  return MustRun(session, sql).metrics.virtual_seconds;
}

/// Virtual seconds plus host wall-clock milliseconds of one query.
struct TimedResult {
  double virtual_seconds = 0.0;
  double host_ms = 0.0;
};

inline TimedResult TimedRunWall(SharkSession* session, const std::string& sql) {
  WallTimer timer;
  QueryResult result = MustRun(session, sql);
  return {result.metrics.virtual_seconds, timer.ElapsedMs()};
}

/// Which clock a measurement was taken on: simulated seconds (deterministic),
/// host wall-clock (noisy), or a count/size that involves no clock at all.
enum class Clock { kVirtual, kHost, kCount };

/// Prints one measurement as the machine-readable line tools/bench_gate
/// checks against bench/claims.json:
///   BENCH {"bench":...,"label":...,"metric":...,"value":...,"unit":...,
///          "clock":"virtual"|"host"|"count"}
/// A claim selects lines as `bench/label/metric`, so none of the three may
/// contain '/'.
inline void EmitBench(const std::string& bench, const std::string& label,
                      const std::string& metric, double value,
                      const std::string& unit, Clock clock) {
  static const char* const kClockNames[] = {"virtual", "host", "count"};
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench);
  w.Key("label").String(label);
  w.Key("metric").String(metric);
  w.Key("value").FixedDouble(value, 6);
  w.Key("unit").String(unit);
  w.Key("clock").String(kClockNames[static_cast<int>(clock)]);
  w.EndObject();
  std::printf("BENCH %s\n", w.str().c_str());
}

/// Lower-cases `text` and turns every run of other characters into one '_':
/// "Shark (disk)" -> "shark_disk". Bar labels become BENCH labels this way.
inline std::string Slug(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

struct BarRow {
  std::string label;
  double seconds;
  std::string note;
  double host_ms = -1.0;  // < 0: not measured / not shown
};

/// Prints a Figure-style horizontal bar chart with a virtual-seconds column,
/// plus the host wall-clock per row when measured. Every bar is also emitted
/// as a BENCH line labelled `<chart>.<Slug(row label)>` with metric
/// `virtual_s` (and `host_ms` when measured).
inline void PrintBars(const std::string& bench, const std::string& chart,
                      const std::string& title, const std::vector<BarRow>& rows,
                      const std::string& paper_note = "") {
  std::printf("\n== %s ==\n", title.c_str());
  if (!paper_note.empty()) std::printf("   paper: %s\n", paper_note.c_str());
  double max_s = 1e-12;
  for (const auto& r : rows) max_s = std::max(max_s, r.seconds);
  for (const auto& r : rows) {
    int width = static_cast<int>(50.0 * r.seconds / max_s + 0.5);
    std::string bar(static_cast<size_t>(width), '#');
    if (r.host_ms >= 0.0) {
      std::printf("  %-28s %9.2fs |%-50s| host %8.1fms %s\n", r.label.c_str(),
                  r.seconds, bar.c_str(), r.host_ms, r.note.c_str());
    } else {
      std::printf("  %-28s %9.2fs |%-50s| %s\n", r.label.c_str(), r.seconds,
                  bar.c_str(), r.note.c_str());
    }
  }
  for (const auto& r : rows) {
    const std::string label = chart + "." + Slug(r.label);
    EmitBench(bench, label, "virtual_s", r.seconds, "s", Clock::kVirtual);
    if (r.host_ms >= 0.0) {
      EmitBench(bench, label, "host_ms", r.host_ms, "ms", Clock::kHost);
    }
  }
}

/// One run of a host-parallel comparison: the host wall-clock and summed
/// virtual seconds under a configured host_threads (0 = all hardware
/// threads), labelled `<label>.threads<N>`.
inline void EmitParallel(const std::string& bench, const std::string& label,
                         int host_threads, double host_ms,
                         double virtual_seconds) {
  const std::string run = label + ".threads" + std::to_string(host_threads);
  EmitBench(bench, run, "host_ms", host_ms, "ms", Clock::kHost);
  EmitBench(bench, run, "virtual_s", virtual_seconds, "s", Clock::kVirtual);
}

inline double Ratio(double slow, double fast) {
  return fast > 0 ? slow / fast : 0.0;
}

/// Runs `sql` with the vectorized flag on and off (restoring it afterwards),
/// checks the virtual seconds are identical (the batch path is a pure
/// host-side optimization; exits on drift) and emits both host times and the
/// speedup (off / on) that bench/claims.json floors. Returns {on, off} host
/// milliseconds. Each variant runs `reps` times and keeps the fastest
/// wall-clock to damp scheduler noise.
inline std::pair<double, double> CompareVectorized(SharkSession* session,
                                                   const std::string& bench,
                                                   const std::string& label,
                                                   const std::string& sql,
                                                   int reps = 3) {
  bool orig = session->options().vectorized;
  double best[2] = {1e300, 1e300};
  double virt[2] = {0.0, 0.0};
  for (int v = 0; v < 2; ++v) {
    session->options().vectorized = (v == 0);
    for (int r = 0; r < reps; ++r) {
      TimedResult t = TimedRunWall(session, sql);
      best[v] = std::min(best[v], t.host_ms);
      virt[v] = t.virtual_seconds;
    }
  }
  session->options().vectorized = orig;
  // Identical up to the last ULP: the session's virtual clock advances
  // across queries, and (end - start) rounds differently depending on the
  // absolute clock position, so back-to-back runs of even the *same* plan
  // differ in the last bit. Bit-exact on/off equality is asserted by the
  // VecSqlTest fixture, which runs each variant in a fresh session.
  double scale = std::max(std::abs(virt[0]), std::abs(virt[1]));
  if (std::abs(virt[0] - virt[1]) > 1e-9 * scale) {
    std::fprintf(stderr,
                 "%s/%s: virtual seconds changed with the vectorized flag "
                 "(%.9f on vs %.9f off) — the batch path must be a pure "
                 "host-side optimization\n",
                 bench.c_str(), label.c_str(), virt[0], virt[1]);
    std::exit(1);
  }
  EmitBench(bench, label, "host_ms_vec", best[0], "ms", Clock::kHost);
  EmitBench(bench, label, "host_ms_row", best[1], "ms", Clock::kHost);
  EmitBench(bench, label, "wall_speedup", Ratio(best[1], best[0]), "x",
            Clock::kHost);
  return {best[0], best[1]};
}

/// Writes a query's recorded profile as a chrome://tracing file (load it at
/// chrome://tracing or https://ui.perfetto.dev) and prints a machine-readable
/// pointer line:
///   BENCH_trace.json {"bench":...,"label":...,"file":...,"stages":N,"tasks":N}
inline void WriteChromeTrace(const std::string& bench, const std::string& label,
                             const QueryResult& result,
                             const std::string& path) {
  if (result.profile == nullptr) {
    std::fprintf(stderr, "%s: no profile recorded for %s\n", bench.c_str(),
                 label.c_str());
    return;
  }
  std::string json = result.profile->ToChromeTrace();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench.c_str(), path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  int tasks = 0;
  for (const StageTrace& st : result.profile->stages) {
    tasks += static_cast<int>(st.tasks.size());
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench);
  w.Key("label").String(label);
  w.Key("file").String(path);
  w.Key("stages").Int(static_cast<int>(result.profile->stages.size()));
  w.Key("tasks").Int(tasks);
  w.EndObject();
  std::printf("BENCH_trace.json %s\n", w.str().c_str());
}

/// Writes the context's full cluster-metrics timeline (virtual-time samples,
/// per-stage skew reports, counter totals) to `timeline_path` and prints a
/// machine-readable line whose `metrics` section carries the skew reports, a
/// decimated cluster/per-node utilization series, and the counters:
///   BENCH_metrics.json {"bench":...,"label":...,"file":...,"metrics":{...}}
/// Everything in it is a virtual-time observable, so the line is
/// byte-identical across host thread counts. The timeline file is what
/// `tools/bench_gate --validate-timeline` checks.
inline void EmitMetricsJson(const std::string& bench, const std::string& label,
                            ClusterContext& ctx,
                            const std::string& timeline_path) {
  ClusterMetrics& cm = ctx.metrics();
  std::string timeline = cm.TimelineJson();
  std::FILE* f = std::fopen(timeline_path.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(timeline.data(), 1, timeline.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "%s: cannot write %s\n", bench.c_str(),
                 timeline_path.c_str());
  }

  const std::vector<ClusterSample>& samples = cm.timeline().samples();
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench);
  w.Key("label").String(label);
  w.Key("file").String(timeline_path);
  w.Key("metrics").BeginObject();
  // Per-node utilization series, decimated to at most 32 points for the
  // stdout line (the file keeps the full resolution).
  constexpr size_t kInlinePoints = 32;
  size_t stride = samples.empty() ? 1 : (samples.size() + kInlinePoints - 1) /
                                            kInlinePoints;
  w.Key("utilization").BeginArray();
  for (size_t i = 0; i < samples.size(); i += stride) {
    const ClusterSample& s = samples[i];
    w.BeginObject();
    w.Key("t").FixedDouble(s.time, 6);
    w.Key("busy_cores").Int(s.busy_cores_total);
    w.Key("pending").Int(s.pending_tasks);
    w.Key("busy_per_node").BeginArray();
    for (int b : s.busy_per_node) w.Int(b);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("stages").BeginArray();
  for (const StageSkewReport& r : cm.stage_reports()) {
    w.BeginObject();
    w.Key("label").String(r.label);
    w.Key("tasks").Int(r.tasks);
    w.Key("dur_p50").FixedDouble(r.dur_p50, 6);
    w.Key("dur_p95").FixedDouble(r.dur_p95, 6);
    w.Key("dur_max").FixedDouble(r.dur_max, 6);
    w.Key("dur_skew").FixedDouble(r.dur_skew, 3);
    w.Key("straggler_partition").Int(r.straggler_partition);
    w.Key("straggler_node").Int(r.straggler_node);
    if (r.shuffle.buckets > 0) {
      w.Key("buckets").Int(r.shuffle.buckets);
      w.Key("bucket_skew").FixedDouble(r.shuffle.skew, 3);
      w.Key("culprit_bucket").Int(r.shuffle.culprit);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : cm.registry().CounterSnapshot()) {
    w.Key(name).UInt(value);
  }
  w.EndObject();
  w.EndObject();
  w.EndObject();
  std::printf("BENCH_metrics.json %s\n", w.str().c_str());
}

inline void PrintHeader(const std::string& name, const std::string& claim) {
  std::printf("=====================================================\n");
  std::printf("%s\n", name.c_str());
  std::printf("reproduces: %s\n", claim.c_str());
  std::printf("=====================================================\n");
}

}  // namespace bench
}  // namespace shark

#endif  // SHARK_BENCH_BENCH_COMMON_H_
