#include "common/heavy_hitters.h"

#include <algorithm>

#include "common/logging.h"

namespace shark {

HeavyHitters::HeavyHitters(size_t capacity) : capacity_(capacity) {
  SHARK_CHECK(capacity >= 1);
  keys_.reserve(capacity);
  counts_.reserve(capacity);
  errors_.reserve(capacity);
}

size_t HeavyHitters::Find(uint64_t key) const {
  const size_t n = keys_.size();
  for (size_t i = 0; i < n; ++i) {
    if (keys_[i] == key) return i;
  }
  return n;
}

size_t HeavyHitters::Victim() {
  while (!victims_.empty()) {
    size_t slot = victims_.back();
    if (counts_[slot] == victim_count_) return slot;
    victims_.pop_back();  // credited since the list was built
  }
  victim_count_ = *std::min_element(counts_.begin(), counts_.end());
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == victim_count_) {
      victims_.push_back(static_cast<uint32_t>(i));
    }
  }
  std::sort(victims_.begin(), victims_.end(),
            [this](uint32_t a, uint32_t b) { return keys_[a] > keys_[b]; });
  return victims_.back();
}

void HeavyHitters::Insert(uint64_t key, uint64_t count, uint64_t error) {
  if (keys_.size() < capacity_) {
    keys_.push_back(key);
    counts_.push_back(count);
    errors_.push_back(error);
    return;
  }
  // SpaceSaving: replace the smallest (count, key); the newcomer inherits
  // the evicted count, both in its count and in its error bound.
  size_t slot = Victim();
  victims_.pop_back();
  uint64_t min_count = counts_[slot];
  keys_[slot] = key;
  counts_[slot] = min_count + count;
  errors_[slot] = min_count + error;
  // A zero-weight newcomer ties the minimum with a key the list lacks.
  if (count == 0) victims_.clear();
}

void HeavyHitters::Add(uint64_t key, uint64_t weight) {
  total_ += weight;
  size_t i = Find(key);
  if (i < keys_.size()) {
    counts_[i] += weight;
  } else {
    Insert(key, weight, 0);
  }
}

void HeavyHitters::Merge(const HeavyHitters& other) {
  for (const Entry& e : other.TopK(other.size())) {
    size_t i = Find(e.key);
    if (i < keys_.size()) {
      counts_[i] += e.count;
      errors_[i] += e.error;
    } else {
      Insert(e.key, e.count, e.error);
    }
  }
  total_ += other.total_;
}

std::vector<HeavyHitters::Entry> HeavyHitters::TopK(size_t k) const {
  std::vector<Entry> entries;
  entries.reserve(keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) {
    entries.push_back(Entry{keys_[i], counts_[i], errors_[i]});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.count != b.count ? a.count > b.count : a.key < b.key;
            });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

uint64_t HeavyHitters::LowerBound(uint64_t key) const {
  size_t i = Find(key);
  if (i == keys_.size()) return 0;
  return counts_[i] > errors_[i] ? counts_[i] - errors_[i] : 0;
}

}  // namespace shark
