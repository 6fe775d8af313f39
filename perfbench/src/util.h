// Shared pieces of the benchmark program: command-line options, host clocks,
// order statistics, and the result report every workload fills in.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sql/session.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace file the traced run writes its spans to ("" = none).
  std::string trace_out;
  /// ExecOptions overrides ("use_indexes" -> "0"), for the sensitivity check.
  std::map<std::string, std::string> exec_overrides;
  /// Reduced-size run compared against the reference evaluator.
  bool selftest = false;
};

/// Applies Options::exec_overrides to a session; false on an unknown key.
bool ApplyExecOverrides(const Options& options, shark::ExecOptions* exec);

/// Host clocks: steady wall-clock and process CPU (user + sys), both in ms.
double NowMs();
double CpuMs();
/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();
/// Current resident set size, in MiB.
double CurrentRssMb();

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Geomean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// Order-insensitive fingerprint of a result set: every row's rendered
/// values are hashed and the row hashes summed, so two runs that return the
/// same multiset of rows in any order agree.
uint64_t ResultChecksum(const std::vector<shark::Row>& rows);

/// Multiset comparison of two results: string/integer cells must match
/// exactly, doubles within a relative 1e-9 (different summation orders).
/// Returns "" when equal, else a description of the first difference.
std::string CompareResults(std::vector<shark::Row> got,
                           std::vector<shark::Row> want);

/// Registry counter value by series name (0 when absent).
uint64_t CounterValue(shark::ClusterContext* ctx, const std::string& series);

class Report;

/// The memory guards: spilled bytes and queued admissions, counted from
/// construction. Both are expected to stay 0 at the workloads' sizes.
class MemGuards {
 public:
  explicit MemGuards(shark::ClusterContext* ctx);
  /// Sets mem.spill_bytes and mem.admission_queued.
  void SetMetrics(Report* report) const;

 private:
  shark::ClusterContext* ctx_;
  uint64_t spill0_;
  uint64_t queued0_;
};

/// What a run measured. Workloads set every metric they know, end-to-end
/// and per-layer alike; main() prints them all.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1);
  /// Records one attempted operation and whether it failed.
  void CountOp(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }
  /// Marks the run incorrect (wrong output) and says why on stderr.
  void Mismatch(const std::string& what);

  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  /// Value and unit of a metric; false (outputs untouched) when unset.
  bool Get(const std::string& name, double* value, std::string* unit) const;
  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// One "metric <name> <value> <unit> n=<samples>" line per metric, then
  /// the result JSON on the last line.
  void Print() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    int64_t samples = -1;
  };
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Must-succeed SQL for set-up steps: exits the process on failure.
shark::QueryResult MustSql(shark::SharkSession* session,
                           const std::string& sql);
void MustOk(const shark::Status& status, const std::string& what);

/// Multi-threaded streaming read rate of this host, bytes/s: the roof the
/// scan kernels are compared against.
double MemoryReadRoof(int threads);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
