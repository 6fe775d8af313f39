#ifndef SHARK_COMMON_HEAVY_HITTERS_H_
#define SHARK_COMMON_HEAVY_HITTERS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace shark {

/// SpaceSaving heavy-hitter sketch (Metwally et al.): one of §3.1's
/// "customizable" statistics ("lists of heavy hitters, i.e. items that occur
/// frequently in the dataset"), kept here as an ANALYZE table statistic.
/// Tracks at most `capacity` keys; any key with true
/// frequency > N/capacity is guaranteed to be present, and reported counts
/// overestimate by at most the recorded `error` term.
class HeavyHitters {
 public:
  struct Entry {
    uint64_t key;
    uint64_t count;  // upper bound on true frequency
    uint64_t error;  // max overestimation
  };

  explicit HeavyHitters(size_t capacity = 64);

  void Add(uint64_t key, uint64_t weight = 1);

  /// Merges another sketch (counts add; errors add conservatively).
  void Merge(const HeavyHitters& other);

  /// Entries with estimated frequency >= threshold, sorted descending.
  std::vector<Entry> TopK(size_t k) const;

  /// Guaranteed-frequency lower bound for `key` (0 if not tracked).
  uint64_t LowerBound(uint64_t key) const;

  uint64_t total_count() const { return total_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return counts_.size(); }

 private:
  void EvictAndInsert(uint64_t key, uint64_t weight);

  size_t capacity_;
  uint64_t total_ = 0;
  // key -> (count, error)
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> counts_;
};

}  // namespace shark

#endif  // SHARK_COMMON_HEAVY_HITTERS_H_
