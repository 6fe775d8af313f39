#ifndef SHARK_COMMON_HEAVY_HITTERS_H_
#define SHARK_COMMON_HEAVY_HITTERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shark {

/// SpaceSaving heavy-hitter sketch (Metwally et al.): one of §3.1's
/// "customizable" statistics ("lists of heavy hitters, i.e. items that occur
/// frequently in the dataset"), kept here as an ANALYZE table statistic.
/// Tracks at most `capacity` keys; any key with true
/// frequency > N/capacity is guaranteed to be present, and reported counts
/// overestimate by at most the recorded `error` term.
///
/// The entries live in three flat arrays (keys, counts, errors) of at most
/// `capacity` slots, so `Add` never allocates: it is one linear key search,
/// plus, for an untracked key on a full sketch, one eviction. The victim is
/// the entry with the smallest `(count, key)` — a total order, so the
/// sketch's contents depend only on the input sequence. Victims come off a
/// list of the minimum-count slots sorted by key, rebuilt only once every
/// slot on it has been evicted or credited; counts never fall, so a stream
/// of distinct keys pays amortized O(log capacity) per eviction, not a scan
/// of every slot.
class HeavyHitters {
 public:
  struct Entry {
    uint64_t key;
    uint64_t count;  // upper bound on true frequency
    uint64_t error;  // max overestimation
  };

  explicit HeavyHitters(size_t capacity = 64);

  void Add(uint64_t key, uint64_t weight = 1);

  /// Merges another sketch: tracked keys add counts and errors; the rest
  /// are fed heaviest first (`TopK` order), and one that evicts carries the
  /// victim's count plus its own error, so `LowerBound` stays a lower bound.
  void Merge(const HeavyHitters& other);

  /// The `k` entries with the largest counts, ordered by (count desc,
  /// key asc).
  std::vector<Entry> TopK(size_t k) const;

  /// Guaranteed-frequency lower bound for `key` (0 if not tracked).
  uint64_t LowerBound(uint64_t key) const;

  uint64_t total_count() const { return total_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return keys_.size(); }

 private:
  /// Slot holding `key`, or size() if untracked.
  size_t Find(uint64_t key) const;
  /// Slot of the smallest (count, key); the sketch must be full.
  size_t Victim();
  /// Tracks an untracked `key`: a free slot if there is one, otherwise the
  /// victim's, whose count the newcomer adds to its count and its error.
  void Insert(uint64_t key, uint64_t count, uint64_t error);

  size_t capacity_;
  uint64_t total_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> errors_;
  // Eviction candidates: the slots whose count was `victim_count_`, the
  // minimum, when the list was built, largest key first, so back() is the
  // next victim. A slot credited since then no longer qualifies and is
  // skipped; an empty list is rebuilt from the slots.
  std::vector<uint32_t> victims_;
  uint64_t victim_count_ = 0;
};

}  // namespace shark

#endif  // SHARK_COMMON_HEAVY_HITTERS_H_
