#ifndef SHARK_COMMON_CARDINALITY_H_
#define SHARK_COMMON_CARDINALITY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace shark {

/// Mergeable k-minimum-values (KMV) distinct-count sketch. Feed it 64-bit
/// hashes of the keys; it keeps the `k` smallest distinct hash values seen.
/// With fewer than `k` distinct hashes the count is exact; beyond that the
/// estimate (k-1) / R (R = k-th smallest hash mapped to (0,1]) has relative
/// standard error ~ 1/sqrt(k-2) (Beyer et al., "On synopses for
/// distinct-value estimation under multiset operations").
///
/// The hashes sit in one flat buffer. `AddHash` rejects any hash at or above
/// the current k-th minimum with one compare and otherwise appends; when the
/// buffer reaches 2k it is sorted, deduplicated and truncated to k. The k
/// smallest distinct hashes do not depend on input order, so neither does
/// the estimate. Call `Seal()` (or `Merge`, which seals) before shipping or
/// estimating: the read accessors require the compacted form.
///
/// ANALYZE TABLE builds one per column per partition and merges them at the
/// master, so NDV estimation composes the same way the histogram and
/// heavy-hitter sketches do.
class DistinctSketch {
 public:
  explicit DistinctSketch(size_t k = 1024) : k_(std::max<size_t>(k, 16)) {}

  void AddHash(uint64_t h) {
    if (h > limit_) return;
    mins_.push_back(h);
    sealed_ = false;
    if (mins_.size() >= 2 * k_) Seal();
  }

  /// Compacts the buffer to the k smallest distinct hashes.
  void Seal() {
    std::sort(mins_.begin(), mins_.end());
    mins_.erase(std::unique(mins_.begin(), mins_.end()), mins_.end());
    if (mins_.size() >= k_) {
      mins_.resize(k_);
      // k >= 16 distinct hashes sit below the k-th, so it is never 0.
      limit_ = mins_.back() - 1;
    }
    sealed_ = true;
  }

  /// Folds in `other` (sealed or not) and seals the result.
  void Merge(const DistinctSketch& other) {
    for (uint64_t h : other.mins_) AddHash(h);
    Seal();
  }

  /// Estimated number of distinct hashes fed in.
  double Estimate() const {
    SHARK_CHECK(sealed_);
    if (mins_.size() < k_) return static_cast<double>(mins_.size());
    // Map the k-th smallest hash to (0,1]; +1 avoids a zero divisor when
    // hash 0 is present.
    double r = (static_cast<double>(mins_.back()) + 1.0) /
               18446744073709551616.0;  // 2^64
    return (static_cast<double>(k_) - 1.0) / r;
  }

  bool exact() const {
    SHARK_CHECK(sealed_);
    return mins_.size() < k_;
  }
  size_t k() const { return k_; }

 private:
  size_t k_;
  // Largest hash still admitted: all of them until k distinct hashes are
  // known, then the k-th minimum minus one.
  uint64_t limit_ = UINT64_MAX;
  bool sealed_ = true;
  std::vector<uint64_t> mins_;
};

/// Estimates how a distinct-value count grows when a sample of `n` draws
/// (which contained `d` distinct values) is scaled to `n * scale` draws from
/// the same key population.
///
/// Used to translate scaled-down benchmark runs into paper-sized virtual
/// costs at aggregation boundaries: a map-side combiner's output is bounded
/// by the number of distinct keys its task sees, which saturates — it does
/// NOT grow linearly with the input rows. Under a uniform-draw model the
/// expected distinct count from a population of K keys is
///   d(n) = K * (1 - exp(-n / K)),
/// so we invert that for K from the observed (n, d) (a birthday-paradox
/// estimate) and evaluate d(n * scale) / d(n).
///
/// Returns a factor in [1, scale]. Degenerate inputs (no data, scale <= 1,
/// d == n with no observed collisions) fall back to the linear answer.
inline double DistinctGrowthFactor(double n, double d, double scale) {
  if (scale <= 1.0 || n <= 0.0 || d <= 0.0) return std::max(scale, 1.0);
  d = std::min(d, n);
  // No collisions observed: the sample gives no evidence of saturation.
  if (n - d < 0.5) return scale;
  // Solve d = K (1 - exp(-n/K)) for K by bisection on K in [d, huge].
  double lo = d;             // K >= d always
  double hi = n * n / (2.0 * (n - d)) * 4.0 + d;  // beyond the Taylor estimate
  for (int iter = 0; iter < 60; ++iter) {
    double k = 0.5 * (lo + hi);
    double expected = k * (1.0 - std::exp(-n / k));
    if (expected < d) {
      lo = k;
    } else {
      hi = k;
    }
  }
  double k = 0.5 * (lo + hi);
  double d_virtual = k * (1.0 - std::exp(-(n * scale) / k));
  double factor = d_virtual / d;
  return std::clamp(factor, 1.0, scale);
}

/// Distinct statistics of a key sample, split into its first and second half
/// in arrival order. The halves discriminate two populations that plain
/// collision counting cannot tell apart:
///   - fixed population (country codes, ship modes, a bounded set of IPs):
///     the halves share keys roughly as independent draws would;
///   - growing population (order keys, session ids — cardinality
///     proportional to data size, usually arriving clustered): the halves
///     are nearly disjoint even though each key repeats locally.
struct SampleCardinality {
  double n = 0;        // sample size
  double d = 0;        // distinct keys overall
  double d_first = 0;  // distinct keys in the first half
  double d_second = 0; // distinct keys in the second half
  double overlap = 0;  // keys present in both halves
};

/// Fills `s`'s split-half fields (d_first, d_second, overlap) from the key
/// hashes of a sample in arrival order, in one pass over one open-addressing
/// table of the distinct hashes, sized to at least twice the sample so it is
/// never more than half full. Each slot records which halves saw its hash
/// (bit 0: first, bit 1: second); 0 marks an empty slot, so every hash value,
/// 0 and UINT64_MAX included, is a key. Counts exactly what two hash sets
/// would, without a node allocation per key or a sort.
inline void CountSplitHalves(const std::vector<uint64_t>& hashes,
                             SampleCardinality* s) {
  const size_t half = hashes.size() / 2;
  int bits = 4;
  while ((size_t{1} << bits) < 2 * hashes.size()) ++bits;
  std::vector<uint64_t> keys(size_t{1} << bits);
  std::vector<uint8_t> seen(keys.size(), 0);
  const size_t mask = keys.size() - 1;
  size_t d_first = 0, d_second = 0, overlap = 0;
  for (size_t i = 0; i < hashes.size(); ++i) {
    const uint64_t h = hashes[i];
    const uint8_t side = i < half ? 1 : 2;
    // Fibonacci hashing spreads clustered or low-entropy hashes over slots.
    size_t j = static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
    while (seen[j] != 0 && keys[j] != h) j = (j + 1) & mask;
    if (seen[j] == 0) {
      keys[j] = h;
      seen[j] = side;
      ++(side == 1 ? d_first : d_second);
    } else if ((seen[j] & side) == 0) {
      // A second-half arrival of a hash only the first half had seen.
      seen[j] |= side;
      ++d_second;
      ++overlap;
    }
  }
  s->d_first = static_cast<double>(d_first);
  s->d_second = static_cast<double>(d_second);
  s->overlap = static_cast<double>(overlap);
}

/// DistinctGrowthFactor refined with the split-overlap test: if a fixed-K
/// population fitted to the collision rate would predict far more overlap
/// between the halves than observed, the key population is segmented /
/// growing — extrapolate with the observed power law d(n) ~ n^alpha instead
/// of the saturating fixed-K curve. Returns a factor in [1, scale].
inline double DistinctGrowthFactorSplit(const SampleCardinality& s,
                                        double scale) {
  if (scale <= 1.0 || s.n <= 0.0 || s.d <= 0.0) return std::max(scale, 1.0);
  double fixed_k = DistinctGrowthFactor(s.n, s.d, scale);
  // Fit K to the collision rate, then predict the overlap two independent
  // halves of a fixed-K population would show.
  double n = s.n, d = std::min(s.d, s.n);
  if (n - d >= 0.5 && s.d_first > 0 && s.d_second > 0) {
    double lo = d, hi = n * n / (2.0 * (n - d)) * 4.0 + d;
    for (int iter = 0; iter < 60; ++iter) {
      double k = 0.5 * (lo + hi);
      (k * (1.0 - std::exp(-n / k)) < d ? lo : hi) = k;
    }
    double k_hat = 0.5 * (lo + hi);
    double expected_overlap = s.d_first * s.d_second / k_hat;
    if (expected_overlap >= 4.0 && s.overlap < 0.25 * expected_overlap) {
      // Segmented population: d grows like n^alpha with
      // alpha = log2(d(n) / d(n/2)).
      double r = s.d / std::max(std::max(s.d_first, s.d_second), 1.0);
      double alpha = std::clamp(std::log2(std::max(r, 1.0)), 0.0, 1.0);
      return std::clamp(std::pow(scale, alpha), 1.0, scale);
    }
  }
  return fixed_k;
}

}  // namespace shark

#endif  // SHARK_COMMON_CARDINALITY_H_
