#ifndef SHARK_COMMON_HISTOGRAM_H_
#define SHARK_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shark {

/// Fixed-budget approximate histogram over doubles: one of §3.1's
/// "customizable" statistics ("approximate histograms, which can be used to
/// estimate partitions' data distributions"), kept here as an ANALYZE table
/// statistic and behind the metrics layer's latency summaries.
///
/// Implementation: streaming equi-width histogram with geometric domain
/// expansion. The first `2*bucket_count` samples are buffered exactly; once
/// the buffer overflows, the range [min,max] seen so far is split into
/// `bucket_count` buckets and later out-of-range values widen the range by
/// doubling bucket width (merging adjacent buckets), so memory stays O(k).
class ApproxHistogram {
 public:
  explicit ApproxHistogram(int bucket_count = 64);

  void Add(double v);

  /// Merges another histogram into this one (used when the master aggregates
  /// per-task statistics).
  void Merge(const ApproxHistogram& other);

  uint64_t total_count() const { return count_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Estimated number of samples <= v.
  double EstimateRank(double v) const;

  /// Estimated q-quantile (q in [0,1]).
  double EstimateQuantile(double q) const;

  /// Estimated count of samples in [lo, hi].
  double EstimateRangeCount(double lo, double hi) const;

  int bucket_count() const { return static_cast<int>(buckets_.size()); }

 private:
  void Build();
  void AddToBuckets(double v, uint64_t weight);
  void ExpandToInclude(double v);
  double BucketLow(size_t i) const { return lo_ + width_ * static_cast<double>(i); }

  int target_buckets_;
  bool built_ = false;
  std::vector<double> buffer_;
  std::vector<uint64_t> buckets_;
  double lo_ = 0.0;
  double width_ = 1.0;
  double min_;
  double max_;
  uint64_t count_ = 0;
};

}  // namespace shark

#endif  // SHARK_COMMON_HISTOGRAM_H_
