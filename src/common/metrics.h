#ifndef SHARK_COMMON_METRICS_H_
#define SHARK_COMMON_METRICS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace shark {

/// Escapes a Prometheus label value for the text exposition format:
/// backslash -> \\, double quote -> \", newline -> \n.
std::string PrometheusEscape(const std::string& value);

/// Maps a string onto the Prometheus metric-name alphabet
/// [a-zA-Z_:][a-zA-Z0-9_:]*: every invalid character becomes '_', and a
/// leading digit gets a '_' prefix. Empty input becomes "_".
std::string SanitizeMetricName(const std::string& name);

/// Monotonically increasing count (tasks launched, bytes fetched, spills).
/// Mutated only from the scheduler's single-threaded event loop, so a plain
/// integer suffices and every read is deterministic.
class Counter {
 public:
  void Increment(uint64_t by = 1) { value_ += by; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time value, either set explicitly or pulled through a callback
/// at exposition time (the Prometheus "collect" pattern — lets the registry
/// observe components like the block cache without owning them).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void SetCallback(std::function<double()> fn) { callback_ = std::move(fn); }
  double Value() const { return callback_ ? callback_() : value_; }

 private:
  double value_ = 0.0;
  std::function<double()> callback_;
};

/// Distribution metric backed by the shared ApproxHistogram; exposed as a
/// Prometheus summary (quantiles + sum-less count).
class HistogramMetric {
 public:
  explicit HistogramMetric(int buckets = 64) : hist_(buckets) {}
  void Observe(double v) { hist_.Add(v); }
  const ApproxHistogram& histogram() const { return hist_; }

 private:
  ApproxHistogram hist_;
};

/// Registry of named metrics with deterministic registration order: the
/// text exposition and counter snapshots list metrics exactly in the order
/// they were registered, which is fixed by construction code, never by map
/// iteration or thread timing. One instance per ClusterContext; all
/// registration and mutation happens on the driver thread.
///
/// Labels: a metric family (one name, one TYPE line) may have many children
/// distinguished by a label string rendered verbatim inside {...}, e.g.
/// RegisterCounter("shark_cache_hits_total", help, "node=\"3\"").
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Renders one label pair with the value escaped per the exposition format
  /// (use for untrusted values like session names): Label("session", "a\"b")
  /// == "session=\"a\\\"b\"". The key is sanitized like a metric name.
  static std::string Label(const std::string& key, const std::string& value);

  Counter* RegisterCounter(const std::string& name, const std::string& help,
                           const std::string& labels = "");
  Gauge* RegisterGauge(const std::string& name, const std::string& help,
                       const std::string& labels = "");
  Gauge* RegisterCallbackGauge(const std::string& name, const std::string& help,
                               std::function<double()> fn,
                               const std::string& labels = "");
  HistogramMetric* RegisterHistogram(const std::string& name,
                                     const std::string& help,
                                     const std::string& labels = "");

  /// Prometheus text exposition format: "# HELP"/"# TYPE" once per family
  /// (first registration wins), then one sample line per child, all in
  /// registration order. Deterministic given deterministic metric values.
  std::string TextExposition() const;

  /// Flat snapshot of every counter (name with labels appended -> value),
  /// in registration order. The EXPLAIN ANALYZE metrics delta diffs two of
  /// these.
  std::vector<std::pair<std::string, uint64_t>> CounterSnapshot() const;

  size_t size() const { return entries_.size(); }

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    std::string name;    // family name
    std::string help;
    std::string labels;  // rendered inside {...}; empty = no labels
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  std::vector<Entry> entries_;
};

}  // namespace shark

#endif  // SHARK_COMMON_METRICS_H_
