// Host-time span recorder for the traced run. The benchmark wraps each call
// it makes into an engine module's public functions in a Span; spans keep a
// name, start, end, parent and the id of the operation they belong to. They
// stay in memory until the run ends, when the per-layer self times are
// derived from them and they are written out as a Chrome trace.
//
// With tracing off a Span is one predictable branch and records nothing, so
// the end-to-end run measures the untouched call path.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index into the span list, -1 for a root
  uint64_t op = 0;  // operation the span belongs to
  int thread = 0;
};

/// Self and total time of every span with one name.
struct SpanTotals {
  int64_t count = 0;
  double total_us = 0.0;  // sum of durations
  double self_us = 0.0;   // sum of durations minus time covered by children
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span under the calling thread's innermost open span; returns
  /// its index. `op` 0 inherits the parent's operation id.
  int Begin(const char* name, uint64_t op);
  void End(int index);

  /// Per-name totals over spans whose root span's name starts with
  /// `root_prefix` ("" = every span).
  std::map<std::string, SpanTotals> Totals(
      const std::string& root_prefix) const;

  /// Writes every span as a Chrome trace event file; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::atomic<int> next_thread_{0};
};

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(const char* name, uint64_t op = 0) {
    Tracer& t = Tracer::Get();
    if (t.enabled()) index_ = t.Begin(name, op);
  }
  ~Span() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
