#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

namespace perfbench {

using shark::Row;
using shark::TypeKind;
using shark::Value;

bool ApplyExecOverrides(const Options& options, shark::ExecOptions* exec) {
  for (const auto& [key, value] : options.exec_overrides) {
    bool on = value == "1" || value == "true";
    if (key == "use_indexes") {
      exec->use_indexes = on;
    } else if (key == "vectorized") {
      exec->vectorized = on;
    } else {
      std::fprintf(stderr, "unknown --exec option: %s\n", key.c_str());
      return false;
    }
  }
  return true;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CurrentRssMb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  return values[std::min(rank, values.size() - 1)];
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

namespace {

uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// A cell rendered for comparison; doubles keep every bit.
std::string CellKey(const Value& v) {
  if (v.kind() == TypeKind::kDouble) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "d%a", v.double_v());
    return buf;
  }
  return std::to_string(static_cast<int>(v.kind())) + v.ToString();
}

/// Row key for sorting in CompareResults: non-double cells only.
std::string ExactKey(const Row& row) {
  std::string key;
  for (const Value& v : row.fields) {
    if (v.kind() == TypeKind::kDouble) continue;
    key += CellKey(v);
    key += '\x1f';
  }
  return key;
}

bool CellsClose(const Value& a, const Value& b) {
  if (a.kind() == TypeKind::kDouble && b.kind() == TypeKind::kDouble) {
    double x = a.double_v(), y = b.double_v();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return std::abs(x - y) <= 1e-9 * std::max({1.0, std::abs(x), std::abs(y)});
  }
  return a.kind() == b.kind() && a == b;
}

}  // namespace

uint64_t ResultChecksum(const std::vector<Row>& rows) {
  uint64_t sum = rows.size();
  for (const Row& row : rows) {
    uint64_t h = 1469598103934665603ULL;
    for (const Value& v : row.fields) h = Fnv1a(CellKey(v) + '\x1f', h);
    sum += h;
  }
  return sum;
}

std::string CompareResults(std::vector<Row> got, std::vector<Row> want) {
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) + " vs reference " +
           std::to_string(want.size());
  }
  auto less = [](const Row& a, const Row& b) {
    std::string ka = ExactKey(a), kb = ExactKey(b);
    if (ka != kb) return ka < kb;
    for (size_t i = 0; i < a.fields.size() && i < b.fields.size(); ++i) {
      if (a.fields[i].kind() == TypeKind::kDouble &&
          b.fields[i].kind() == TypeKind::kDouble &&
          a.fields[i].double_v() != b.fields[i].double_v()) {
        return a.fields[i].double_v() < b.fields[i].double_v();
      }
    }
    return false;
  };
  std::sort(got.begin(), got.end(), less);
  std::sort(want.begin(), want.end(), less);
  for (size_t r = 0; r < got.size(); ++r) {
    const Row& a = got[r];
    const Row& b = want[r];
    bool same = a.fields.size() == b.fields.size();
    for (size_t i = 0; same && i < a.fields.size(); ++i) {
      same = CellsClose(a.fields[i], b.fields[i]);
    }
    if (!same) {
      return "row " + std::to_string(r) + ": " + a.ToString() +
             " vs reference " + b.ToString();
    }
  }
  return "";
}

uint64_t CounterValue(shark::ClusterContext* ctx, const std::string& series) {
  for (const auto& [name, value] :
       ctx->metrics().registry().CounterSnapshot()) {
    if (name == series) return value;
  }
  return 0;
}

namespace {
constexpr const char* kSpillSeries = "shark_mem_spill_bytes_total";
constexpr const char* kQueuedSeries = "shark_jobs_queued_total";
}  // namespace

MemGuards::MemGuards(shark::ClusterContext* ctx)
    : ctx_(ctx),
      spill0_(CounterValue(ctx, kSpillSeries)),
      queued0_(CounterValue(ctx, kQueuedSeries)) {}

void MemGuards::SetMetrics(Report* report) const {
  report->Set("mem.spill_bytes",
              static_cast<double>(CounterValue(ctx_, kSpillSeries) - spill0_),
              "B");
  report->Set("mem.admission_queued",
              static_cast<double>(CounterValue(ctx_, kQueuedSeries) - queued0_),
              "count");
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  if (!std::isfinite(value)) {
    Mismatch("metric " + name + " is not finite");
    value = 0.0;
  }
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Metric{value, unit, samples};
}

bool Report::Get(const std::string& name, double* value,
                 std::string* unit) const {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) return false;
  *value = it->second.value;
  *unit = it->second.unit;
  return true;
}

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

void Report::Print() const {
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    if (m.samples >= 0) {
      std::printf("metric %-32s %16.6f %-8s n=%" PRId64 "\n", name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("metric %-32s %16.6f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

shark::QueryResult MustSql(shark::SharkSession* session,
                           const std::string& sql) {
  auto result = session->Sql(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "set-up statement failed: %s\n  %s\n",
                 result.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  return std::move(*result);
}

void MustOk(const shark::Status& status, const std::string& what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
}

double MemoryReadRoof(int threads) {
  threads = std::max(threads, 1);
  // 256 MiB: far beyond any last-level cache, so this streams from DRAM.
  const size_t words = (256u << 20) / sizeof(uint64_t);
  std::unique_ptr<uint64_t[]> buf(new uint64_t[words]);
  for (size_t i = 0; i < words; ++i) buf[i] = i;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<uint64_t> sums(static_cast<size_t>(threads), 0);
    std::vector<std::thread> pool;
    double start = NowMs();
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const auto n = static_cast<size_t>(threads);
        size_t lo = words * static_cast<size_t>(t) / n;
        size_t hi = words * static_cast<size_t>(t + 1) / n;
        uint64_t s = 0;
        for (size_t i = lo; i < hi; ++i) s += buf[i];
        sums[static_cast<size_t>(t)] = s;
      });
    }
    for (auto& th : pool) th.join();
    double secs = (NowMs() - start) / 1e3;
    uint64_t total = 0;
    for (uint64_t s : sums) total += s;
    if (total == 0) return 0.0;  // keeps the reads from being elided
    best = std::max(best, static_cast<double>(words * sizeof(uint64_t)) / secs);
  }
  return best;
}

}  // namespace perfbench
