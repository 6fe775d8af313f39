// serve_point: a SharkServer inside this process, driven over loopback by
// SharkClient connections with an index-served point-lookup mix — a closed
// loop that finds the server's capacity, then an open loop at fixed offered
// rates timed from each request's due time — while one more thread scrapes
// /metrics about once a second.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
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
constexpr int kBlocks = 16;
constexpr int kNodes = 8;
constexpr int kCoresPerNode = 8;
constexpr double kVirtualScale = 20.0;
constexpr int kSetups = 7;
constexpr int kClients = 3;           // plus the scraper: 4 threads in all
constexpr int kWarmupInProcess = 200;  // untimed ops before the server starts
constexpr int kWarmupPerClient = 40;   // untimed ops over the wire
constexpr int kCycles = 8;
/// Keys a range aggregate or a write covers.
constexpr int64_t kRangeKeys = 200;
/// Offered rates of the open loop, requests/s, lowest first. Each rate runs
/// long enough for the same number of requests.
constexpr double kRates[] = {200.0, 600.0, 1200.0};
/// Share of the run the closed-loop (capacity) segments take; the open loop
/// gets the rest.
constexpr double kClosedShare = 0.2;
/// Latency limit on the p99 for max_qps_at_slo.
constexpr double kSloP99Ms = 50.0;
/// A rate is backlogged when lateness grows faster than this (ms per ms).
constexpr double kBacklogSlope = 0.01;

enum OpType { kLookup = 0, kRange = 1, kWrite = 2 };
constexpr const char* kOpNames[] = {"lookup", "range", "write"};
constexpr const char* kOpSpans[] = {"op.lookup", "op.range", "op.write"};

struct Request {
  OpType type = kLookup;
  int64_t lo = 0;  // key (lookup) or range start
  int64_t hi = 0;  // range end
  double due_ms = 0.0;  // offset from the phase start (open loop)
};

/// The generated table and the answers the server must give.
struct KvData {
  std::vector<Row> rows;
  std::vector<int64_t> value_of;  // value_of[k]
  std::vector<int64_t> prefix;    // prefix[k] = sum of value_of[0..k)
};

KvData GenerateKv(uint64_t seed) {
  shark::Random rng(seed);
  std::vector<int64_t> keys(kRows);
  for (int i = 0; i < kRows; ++i) keys[static_cast<size_t>(i)] = i;
  // Fisher-Yates: keys land in blocks in random order, so per-block min/max
  // statistics cannot prune a lookup; only the index can.
  for (int i = kRows - 1; i > 0; --i) {
    std::swap(keys[static_cast<size_t>(i)],
              keys[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  KvData d;
  d.value_of.resize(kRows);
  d.rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    int64_t k = keys[static_cast<size_t>(i)];
    int64_t v = static_cast<int64_t>(rng.Uniform(1000000));
    d.value_of[static_cast<size_t>(k)] = v;
    d.rows.push_back(Row({Value::Int64(k), Value::Int64(v),
                          Value::String("pad-" + std::to_string(i % 97))}));
  }
  d.prefix.assign(kRows + 1, 0);
  for (int k = 0; k < kRows; ++k) {
    d.prefix[static_cast<size_t>(k) + 1] =
        d.prefix[static_cast<size_t>(k)] + d.value_of[static_cast<size_t>(k)];
  }
  return d;
}

/// `n` requests in random order: 75% lookups, 20% narrow range aggregates
/// and 5% writes exactly, so every schedule has the same composition; gaps
/// are exponential with mean 1000/rate ms (rate 0: no due times).
std::vector<Request> MakeRequests(shark::Random* rng, int n, double rate) {
  std::vector<OpType> types(static_cast<size_t>(n), kLookup);
  const int ranges = n / 5, writes = n / 20;
  for (int i = 0; i < ranges + writes; ++i) {
    types[static_cast<size_t>(i)] = i < ranges ? kRange : kWrite;
  }
  for (int i = n - 1; i > 0; --i) {
    std::swap(types[static_cast<size_t>(i)],
              types[rng->Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(n));
  double due = 0.0;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.type = types[static_cast<size_t>(i)];
    r.lo = static_cast<int64_t>(rng->Uniform(kRows - kRangeKeys + 1));
    r.hi = r.lo + kRangeKeys - 1;
    if (rate > 0) {
      due += -std::log(1.0 - rng->NextDouble()) * 1000.0 / rate;
      r.due_ms = due;
    }
    out.push_back(r);
  }
  return out;
}

std::string RequestSql(const Request& r) {
  switch (r.type) {
    case kLookup:
      return "SELECT v FROM kv WHERE k = " + std::to_string(r.lo);
    case kRange:
      return "SELECT COUNT(*), SUM(v) FROM kv WHERE k BETWEEN " +
             std::to_string(r.lo) + " AND " + std::to_string(r.hi);
    case kWrite:
      break;
  }
  return "";
}

/// The two statements of a write: a cached CTAS of a narrow range, then its
/// DROP. `name` is unique per request.
std::vector<std::string> WriteSql(const Request& r, const std::string& name) {
  return {"CREATE TABLE " + name +
              " TBLPROPERTIES ('shark.cache'='true') AS SELECT k, v FROM kv "
              "WHERE k BETWEEN " +
              std::to_string(r.lo) + " AND " + std::to_string(r.hi),
          "DROP TABLE " + name};
}

/// Expected cells of a read's single result row.
std::vector<std::string> Expected(const KvData& d, const Request& r) {
  if (r.type == kLookup) {
    return {std::to_string(d.value_of[static_cast<size_t>(r.lo)])};
  }
  return {std::to_string(r.hi - r.lo + 1),
          std::to_string(d.prefix[static_cast<size_t>(r.hi) + 1] -
                         d.prefix[static_cast<size_t>(r.lo)])};
}

std::shared_ptr<SharkSession> SetUp(const KvData& data, SetupTiming* st) {
  const double start = NowMs();
  const double cpu_start = CpuMs();
  std::shared_ptr<SharkSession> session =
      NewSession(kNodes, kCoresPerNode, kVirtualScale);
  static const shark::Schema schema({{"k", TypeKind::kInt64},
                                     {"v", TypeKind::kInt64},
                                     {"pad", TypeKind::kString}});
  st->load = LoadTable(session.get(), "kv", schema, data.rows, kBlocks, true);
  double a0 = NowMs();
  {
    Span span("stats.analyze");
    MustSql(session.get(), "ANALYZE TABLE kv");
  }
  double i0 = NowMs();
  {
    Span span("index.build");
    MustSql(session.get(), "CREATE INDEX idx_k ON kv(k)");
  }
  st->index_ms = NowMs() - i0;
  st->analyze_ms = i0 - a0;
  st->rows = kRows;
  st->wall_ms = NowMs() - start;
  st->cpu_ms = CpuMs() - cpu_start;
  return session;
}

/// One request as the client saw it.
struct Sample {
  OpType type = kLookup;
  double due_ms = 0;   // absolute, steady clock
  double send_ms = 0;
  double done_ms = 0;
  double offset_ms = 0;  // due time relative to its open-loop segment
  double host_ms = -1;   // server-side host time from the query log (traced)
  bool ok = false;
};

/// Runs one request over `client`; checks the reply.
Sample Issue(shark::SharkClient* client, const shark::SharkServer& server,
             const KvData& data, const Request& r,
             const std::string& write_table,
             uint64_t op, bool traced) {
  Sample s;
  s.type = r.type;
  s.send_ms = NowMs();
  Span root(kOpSpans[r.type], op);
  if (r.type == kWrite) {
    s.ok = true;
    for (const std::string& sql : WriteSql(r, write_table)) {
      Span rtt("server.rtt");
      auto reply = client->Query(sql);
      s.ok = s.ok && reply.ok();
    }
  } else {
    shark::Result<shark::ClientResult> reply =
        shark::Status::Internal("unset");
    {
      Span rtt("server.rtt");
      reply = client->Query(RequestSql(r));
    }
    s.ok = reply.ok() && reply->rows.size() == 1 &&
           reply->rows[0] == Expected(data, r);
    if (reply.ok() && traced) {
      shark::QueryLogEntry entry;
      if (server.query_log().Lookup(reply->query_id, &entry)) {
        s.host_ms = entry.host_ms;
      }
    }
  }
  s.done_ms = NowMs();
  return s;
}

struct RateResult {
  double offered = 0, achieved = 0;
  double busy_ms = 0;  // summed duration of this rate's segments
  std::vector<Sample> samples;
  std::vector<double> latency_ms;  // from due time
  std::vector<double> lateness_ms;
  double lateness_slope = 0;  // ms of lateness gained per ms of schedule
  bool backlogged = false;
  int64_t failed = 0;
};

double Slope(const std::vector<Sample>& samples, const std::vector<double>& y) {
  const double n = static_cast<double>(samples.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    double x = samples[i].offset_ms;
    sx += x;
    sy += y[i];
    sxx += x * x;
    sxy += x * y[i];
  }
  double den = n * sxx - sx * sx;
  return den > 0 ? (n * sxy - sx * sy) / den : 0.0;
}

}  // namespace

int RunServePoint(const Options& options, Report* report) {
  const KvData data = GenerateKv(options.seed);
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(options.trace);

  // Set-up, several times on fresh clusters; the last cluster is kept.
  std::vector<SetupTiming> setups(kSetups);
  std::shared_ptr<SharkSession> session;
  std::vector<double> index_ms;
  for (SetupTiming& t : setups) {
    session.reset();
    session = SetUp(data, &t);
    index_ms.push_back(t.index_ms);
  }
  tracer.set_enabled(false);
  if (!ApplyExecOverrides(options, &session->options())) return 2;
  shark::ClusterContext* ctx = &session->context();
  shark::Random rng(options.seed ^ 0x5eed5eedULL);

  // Warm-up in process, untimed: the simulator seconds of this fixed
  // sequence are virtual_s.
  double virtual_s = 0.0;
  {
    int n = 0;
    for (const Request& r : MakeRequests(&rng, kWarmupInProcess, 0)) {
      std::vector<std::string> sqls =
          r.type == kWrite ? WriteSql(r, "warm_" + std::to_string(n++))
                           : std::vector<std::string>{RequestSql(r)};
      for (const std::string& sql : sqls) {
        auto res = session->Sql(sql);
        if (!res.ok()) {
          std::fprintf(stderr, "warm-up failed: %s\n  %s\n",
                       res.status().ToString().c_str(), sql.c_str());
          return 1;
        }
        virtual_s += res->metrics.virtual_seconds;
        if (r.type != kWrite) {
          std::vector<std::string> cells;
          for (const Value& v : res->rows.at(0).fields) {
            cells.push_back(v.ToString());
          }
          if (cells != Expected(data, r)) report->Mismatch("warm-up: " + sql);
        }
      }
    }
  }
  const double peak_rss = PeakRssMb();
  const double rss_after_warmup = CurrentRssMb();

  // ---- the server and its clients ----
  shark::SharkServer server(session, shark::SharkServer::Options{});
  MustOk(server.Start(), "SharkServer::Start");
  std::vector<std::unique_ptr<shark::SharkClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<shark::SharkClient>());
    MustOk(clients.back()->Connect("127.0.0.1", server.port()), "Connect");
  }
  std::atomic<uint64_t> next_op{1};
  std::vector<int64_t> write_seq(kClients, 0);
  // Client `c` runs `r`; only client c's thread calls this with c.
  auto issue = [&](int c, const Request& r, bool traced) {
    const auto i = static_cast<size_t>(c);
    std::string table = "w" + std::to_string(c) + "_" +
                        std::to_string(write_seq[i]++);
    return Issue(clients[i].get(), server, data, r, table, next_op++, traced);
  };

  // Untimed warm-up over the wire.
  {
    std::vector<std::vector<Request>> work;
    for (int c = 0; c < kClients; ++c) {
      work.push_back(MakeRequests(&rng, kWarmupPerClient, 0));
    }
    std::vector<std::thread> threads;
    std::atomic<int> bad{0};
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (const Request& r : work[static_cast<size_t>(c)]) {
          Sample s = issue(c, r, false);
          if (!s.ok) ++bad;
        }
      });
    }
    for (auto& t : threads) t.join();
    if (bad > 0) report->Mismatch("wrong replies during the wire warm-up");
  }

  // The scraper runs through every measured phase.
  std::atomic<bool> scraping{true};
  std::vector<double> scrape_ms;
  std::atomic<int> scrape_failures{0};
  std::thread scraper([&] {
    while (scraping) {
      double t0 = NowMs();
      {
        Span span("server.scrape", next_op++);
        auto body = shark::HttpGet(server.obs_port(), "/metrics");
        if (!body.ok() ||
            body->find("shark_queries_completed_total") == std::string::npos) {
          ++scrape_failures;
        }
      }
      double t1 = NowMs();
      scrape_ms.push_back(t1 - t0);
      while (scraping && NowMs() < t0 + 1000.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  });

  const MemGuards guards(ctx);
  int64_t measured_ops = 0;

  // ---- measurement ----
  // kCycles cycles, each a closed-loop segment (every client back to back:
  // the server's capacity) followed by one open-loop segment per offered
  // rate. Interleaving spreads every phase over the whole run, so a burst of
  // load from elsewhere on the machine touches all phases alike.

  // Closed loop for `ms`; returns the completed requests per second. A
  // traced run splits each closed segment into an untraced and a traced
  // half; the ratio of their rates is the tracing overhead.
  auto closed_segment = [&](double ms, bool traced) {
    tracer.set_enabled(traced);
    std::vector<std::thread> threads;
    std::atomic<int64_t> done{0}, failed{0};
    const double start = NowMs();
    for (int c = 0; c < kClients; ++c) {
      std::vector<Request> work = MakeRequests(&rng, 4000, 0);
      threads.emplace_back([&, c, work = std::move(work)] {
        for (const Request& r : work) {
          if (NowMs() - start >= ms) break;
          Sample s = issue(c, r, traced);
          ++done;
          if (!s.ok) ++failed;
        }
      });
    }
    for (auto& t : threads) t.join();
    const double elapsed = NowMs() - start;
    tracer.set_enabled(false);
    for (int64_t i = 0; i < done; ++i) report->CountOp(i < failed);
    if (failed > 0) report->Mismatch("wrong or failed replies (closed loop)");
    measured_ops += done;
    return static_cast<double>(done) / (elapsed / 1e3);
  };

  // Open loop: `n` requests due at exponential gaps for `rate`. Requests
  // are dealt round-robin to the clients; a client still busy when its next
  // request falls due sends it late, and the request's latency still counts
  // from its due time.
  auto open_segment = [&](int n, RateResult* rr) {
    std::vector<Request> schedule = MakeRequests(&rng, n, rr->offered);
    std::vector<Sample> samples(schedule.size());
    const double t0 = NowMs() + 2.0;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t j = static_cast<size_t>(c); j < schedule.size();
             j += kClients) {
          const Request& r = schedule[j];
          const double due = t0 + r.due_ms;
          const double wait = due - NowMs();
          if (wait > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(wait));
          }
          Sample s = issue(c, r, options.trace);
          s.due_ms = due;
          s.offset_ms = r.due_ms;
          samples[j] = s;
        }
      });
    }
    for (auto& t : threads) t.join();
    double last = t0;
    for (const Sample& s : samples) {
      last = std::max(last, s.done_ms);
      report->CountOp(!s.ok);
      if (!s.ok) ++rr->failed;
      rr->samples.push_back(s);
    }
    rr->busy_ms += last - t0;
    measured_ops += n;
  };

  const double closed_ms = options.seconds * 1e3 * kClosedShare / kCycles;
  const double open_s = options.seconds * (1.0 - kClosedShare);
  double inv_sum = 0;
  for (double rate : kRates) inv_sum += 1.0 / rate;
  const int per_segment = static_cast<int>(open_s / inv_sum / kCycles);
  std::vector<RateResult> rates;
  for (double rate : kRates) {
    rates.emplace_back();
    rates.back().offered = rate;
  }
  std::vector<double> cycle_qps, cycle_overhead, cycle_cpu_per_op;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const double cycle_cpu0 = CpuMs();
    const int64_t cycle_ops0 = measured_ops;
    if (options.trace) {
      double plain = closed_segment(closed_ms / 2, false);
      double traced = closed_segment(closed_ms / 2, true);
      cycle_qps.push_back(plain);
      cycle_overhead.push_back(traced / plain);
    } else {
      cycle_qps.push_back(closed_segment(closed_ms, false));
    }
    tracer.set_enabled(options.trace);
    for (RateResult& rr : rates) open_segment(per_segment, &rr);
    tracer.set_enabled(false);
    cycle_cpu_per_op.push_back((CpuMs() - cycle_cpu0) /
                               static_cast<double>(measured_ops - cycle_ops0));
  }
  for (RateResult& rr : rates) {
    for (const Sample& s : rr.samples) {
      rr.latency_ms.push_back(s.done_ms - s.due_ms);
      rr.lateness_ms.push_back(std::max(0.0, s.send_ms - s.due_ms));
    }
    rr.achieved = static_cast<double>(rr.samples.size()) / (rr.busy_ms / 1e3);
    // Backlog: lateness that keeps growing through the segments means the
    // server fell behind the offered rate. The least-squares slope of
    // lateness against the request's offset in its segment ignores
    // isolated stalls.
    rr.lateness_slope = Slope(rr.samples, rr.lateness_ms);
    rr.backlogged = rr.lateness_slope > kBacklogSlope;
    if (rr.failed > 0) report->Mismatch("wrong or failed replies (open loop)");
  }
  const double capacity = Median(cycle_qps);
  tracer.set_enabled(false);
  scraping = false;
  scraper.join();
  for (auto& c : clients) c->Close();
  server.Stop();

  // ---- end-to-end metrics ----
  double max_qps_at_slo = 0.0;
  for (const RateResult& rr : rates) {
    const size_t n = rr.latency_ms.size();
    const double p50 = Quantile(rr.latency_ms, 0.5);
    const double p99 = Quantile(rr.latency_ms, 0.99);
    const bool meets = n >= 1000 && p99 <= kSloP99Ms && !rr.backlogged &&
                       rr.failed == 0;
    if (meets) max_qps_at_slo = std::max(max_qps_at_slo, rr.achieved);
    std::printf("rate %6.0f/s offered %8.1f/s achieved  p50 %7.3f ms  "
                "p99 %8.3f ms (n=%zu, %zu beyond p99)  lateness p99 %7.3f ms "
                "slope %.4f  %s  %s\n",
                rr.offered, rr.achieved, p50, p99, n,
                n - static_cast<size_t>(
                        std::ceil(0.99 * static_cast<double>(n))),
                Quantile(rr.lateness_ms, 0.99), rr.lateness_slope,
                rr.backlogged ? "BACKLOGGED" : "steady",
                meets ? "meets the SLO" : "misses the SLO");
  }
  const RateResult& low = rates.front();
  std::vector<double> per_type[3];
  for (const Sample& s : low.samples) {
    per_type[s.type].push_back(s.done_ms - s.due_ms);
  }
  std::vector<double> type_medians;
  for (int t = 0; t < 3; ++t) {
    type_medians.push_back(Median(per_type[t]));
    report->Set(std::string("latency_p50_ms.") + kOpNames[t],
                Median(per_type[t]), "ms",
                static_cast<int64_t>(per_type[t].size()));
  }
  const int64_t n_low = static_cast<int64_t>(low.latency_ms.size());
  ReportSetups(setups, report);
  report->Set("queries_per_s", capacity, "1/s", kCycles);
  report->Set("query_ms_geomean", Geomean(type_medians), "ms", n_low);
  report->Set("latency_p50_ms", Quantile(low.latency_ms, 0.5), "ms", n_low);
  report->Set("cpu_ms_per_op", Median(cycle_cpu_per_op), "ms", kCycles);
  report->Set("virtual_s", virtual_s, "s", kWarmupInProcess);
  report->Set("peak_rss_mb", peak_rss, "MiB");
  report->Set("failed_frac",
              static_cast<double>(report->failed()) / report->attempted(), "1",
              report->attempted());
  for (const RateResult& rr : rates) {
    const std::string at = "@" + std::to_string(static_cast<int>(rr.offered));
    const auto n = static_cast<int64_t>(rr.latency_ms.size());
    report->Set("latency_p50_ms" + at, Quantile(rr.latency_ms, 0.5), "ms", n);
    report->Set("latency_p99_ms" + at, Quantile(rr.latency_ms, 0.99), "ms", n);
  }
  report->Set("latency_p99_ms", Quantile(low.latency_ms, 0.99), "ms", n_low);
  report->Set("max_qps_at_slo", max_qps_at_slo, "1/s");
  if (scrape_failures > 0) report->Mismatch("a /metrics scrape failed");
  if (!options.trace) return 0;

  // ---- per-layer metrics ----
  std::vector<double> rtt, host;
  for (const RateResult& rr : rates) {
    for (const Sample& s : rr.samples) {
      if (s.type == kWrite) continue;
      rtt.push_back(s.done_ms - s.send_ms);
      if (s.host_ms >= 0) host.push_back(s.host_ms);
    }
  }
  // The same statement mix in process, layer by layer, on the now idle
  // session: the front-end and executor split, and the JobManager's share.
  std::vector<double> parse, analyze, plan, inproc_ms, partitions;
  double frontend_us = 0, total_us = 0, exec_us = 0, exec_cpu_us = 0;
  double stages = 0, tasks = 0, shuffle_bytes = 0;
  tracer.set_enabled(true);
  int64_t inproc_n = 0;
  for (const Request& r : MakeRequests(&rng, 400, 0)) {
    if (r.type == kWrite) continue;
    SelectTiming t;
    double t0 = NowMs();
    Span root("inproc.select", next_op++);
    auto res = LayeredSelect(session.get(), RequestSql(r), &t);
    inproc_ms.push_back(NowMs() - t0);
    if (!res.ok()) {
      report->Mismatch("in-process statement failed: " +
                       res.status().ToString());
      continue;
    }
    ++inproc_n;
    parse.push_back(t.parse_us);
    analyze.push_back(t.analyze_us);
    plan.push_back(t.plan_us);
    frontend_us += t.parse_us + t.analyze_us + t.plan_us;
    total_us += t.total_us;
    exec_us += t.execute_us;
    exec_cpu_us += t.execute_cpu_us;
    stages += res->metrics.stages;
    tasks += res->metrics.tasks;
    shuffle_bytes += static_cast<double>(res->metrics.work.net_read_bytes);
    if (r.type == kLookup) {
      partitions.push_back(res->metrics.partitions_scanned);
    }
  }
  tracer.set_enabled(false);
  const double rtt_p50 = Quantile(rtt, 0.5), host_p50 = Quantile(host, 0.5);
  report->Set("sql.parse_us", Median(parse), "us", inproc_n);
  report->Set("sql.analyze_us", Median(analyze), "us", inproc_n);
  report->Set("sql.plan_us", Median(plan), "us", inproc_n);
  report->Set("sql.frontend_share", frontend_us / total_us, "1", inproc_n);
  report->Set("rdd.stages_per_query", stages / inproc_n, "count", inproc_n);
  report->Set("rdd.tasks_per_query", tasks / inproc_n, "count", inproc_n);
  report->Set("rdd.shuffle_bytes_per_query", shuffle_bytes / inproc_n, "B",
              inproc_n);
  report->Set("rdd.host_us_per_task", exec_us / tasks, "us", inproc_n);
  report->Set("rdd.cores_busy", exec_cpu_us / exec_us, "cores", inproc_n);
  report->Set("index.build_ms", Median(index_ms), "ms", kSetups);
  report->Set("index.partitions_per_lookup",
              Sum(partitions) / static_cast<double>(partitions.size()),
              "count", static_cast<int64_t>(partitions.size()));
  const auto n_rtt = static_cast<int64_t>(rtt.size());
  const auto n_host = static_cast<int64_t>(host.size());
  report->Set("server.rtt_p50_ms", rtt_p50, "ms", n_rtt);
  report->Set("server.rtt_p99_ms", Quantile(rtt, 0.99), "ms", n_rtt);
  report->Set("server.host_p50_ms", host_p50, "ms", n_host);
  report->Set("server.host_p99_ms", Quantile(host, 0.99), "ms", n_host);
  const double inproc_p50 = Median(inproc_ms);
  report->Set("server.wire_ms", rtt_p50 - host_p50, "ms");
  report->Set("server.jobmgr_ms", host_p50 - inproc_p50, "ms");
  report->Set("server.scrape_ms", Median(scrape_ms), "ms",
              static_cast<int64_t>(scrape_ms.size()));
  report->Set("mem.rss_growth_mb", CurrentRssMb() - rss_after_warmup, "MiB");
  guards.SetMetrics(report);
  report->Set("bench.gen_lateness_ms", Quantile(low.lateness_ms, 0.99), "ms",
              n_low);
  report->Set("bench.tracing_overhead", Median(cycle_overhead), "1", kCycles);
  std::printf("accounting (p50, ms): rtt %.3f = wire %.3f + server host %.3f; "
              "server host = jobmgr %.3f + in-process statement %.3f\n",
              rtt_p50, rtt_p50 - host_p50, host_p50, host_p50 - inproc_p50,
              inproc_p50);
  ReportSpanAccounting(report);
  return 0;
}

}  // namespace perfbench
