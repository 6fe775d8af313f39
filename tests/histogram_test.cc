#include "common/histogram.h"

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/heavy_hitters.h"

namespace shark {
namespace {

// ---------------------------------------------------------------------------
// ApproxHistogram
// ---------------------------------------------------------------------------

TEST(ApproxHistogramTest, EmptyHistogram) {
  ApproxHistogram h(16);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.EstimateRank(100.0), 0.0);
  EXPECT_EQ(h.EstimateRangeCount(0.0, 1.0), 0.0);
}

TEST(ApproxHistogramTest, SingleValueRepeated) {
  // All mass in one spot: every quantile must land on (about) that value,
  // whether the data still sits in the exact buffer or was bucketed.
  for (int reps : {5, 500}) {
    ApproxHistogram h(16);
    for (int i = 0; i < reps; ++i) h.Add(42.0);
    EXPECT_EQ(h.total_count(), static_cast<uint64_t>(reps));
    EXPECT_EQ(h.min(), 42.0);
    EXPECT_EQ(h.max(), 42.0);
    for (double q : {0.0, 0.5, 0.99}) {
      EXPECT_NEAR(h.EstimateQuantile(q), 42.0, 1.0) << "reps=" << reps;
    }
  }
}

TEST(ApproxHistogramTest, QuantilesOfUniformStream) {
  ApproxHistogram h(64);
  for (int i = 0; i < 10000; ++i) h.Add(static_cast<double>(i));
  EXPECT_NEAR(h.EstimateQuantile(0.5), 5000.0, 300.0);
  EXPECT_NEAR(h.EstimateQuantile(0.95), 9500.0, 300.0);
  EXPECT_NEAR(h.EstimateRank(2500.0), 2500.0, 300.0);
}

TEST(ApproxHistogramTest, MergeEmptyIsIdentity) {
  ApproxHistogram h(16);
  for (int i = 0; i < 100; ++i) h.Add(static_cast<double>(i));
  uint64_t count_before = h.total_count();
  double p50_before = h.EstimateQuantile(0.5);

  ApproxHistogram empty(16);
  h.Merge(empty);
  EXPECT_EQ(h.total_count(), count_before);
  EXPECT_EQ(h.EstimateQuantile(0.5), p50_before);

  // And the other direction: empty.Merge(h) adopts h's distribution.
  ApproxHistogram other(16);
  other.Merge(h);
  EXPECT_EQ(other.total_count(), count_before);
  EXPECT_NEAR(other.EstimateQuantile(0.5), p50_before, 5.0);
}

TEST(ApproxHistogramTest, MergedStreamsMatchCombinedStream) {
  // Two disjoint halves merged must approximate one histogram over the
  // concatenated stream.
  ApproxHistogram left(64);
  ApproxHistogram right(64);
  ApproxHistogram whole(64);
  for (int i = 0; i < 5000; ++i) {
    left.Add(static_cast<double>(i));
    whole.Add(static_cast<double>(i));
  }
  for (int i = 5000; i < 10000; ++i) {
    right.Add(static_cast<double>(i));
    whole.Add(static_cast<double>(i));
  }
  left.Merge(right);
  EXPECT_EQ(left.total_count(), whole.total_count());
  EXPECT_EQ(left.min(), 0.0);
  EXPECT_EQ(left.max(), 9999.0);
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(left.EstimateQuantile(q), whole.EstimateQuantile(q), 500.0)
        << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// HeavyHitters
// ---------------------------------------------------------------------------

TEST(HeavyHittersTest, EmptySketch) {
  HeavyHitters hh(8);
  EXPECT_EQ(hh.total_count(), 0u);
  EXPECT_EQ(hh.size(), 0u);
  EXPECT_TRUE(hh.TopK(4).empty());
  EXPECT_EQ(hh.LowerBound(7), 0u);
}

TEST(HeavyHittersTest, ExactWhenUnderCapacity) {
  HeavyHitters hh(8);
  hh.Add(1, 10);
  hh.Add(2, 5);
  hh.Add(3, 1);
  auto top = hh.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 1u);
  EXPECT_EQ(top[0].count, 10u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, 2u);
  EXPECT_EQ(hh.LowerBound(1), 10u);
  EXPECT_EQ(hh.LowerBound(3), 1u);
}

TEST(HeavyHittersTest, HeavyKeySurvivesEviction) {
  // One key takes >1/capacity of the stream; SpaceSaving guarantees it is
  // tracked no matter how many light keys churn through.
  HeavyHitters hh(8);
  for (uint64_t i = 0; i < 1000; ++i) {
    hh.Add(12345, 4);       // heavy
    hh.Add(100000 + i, 1);  // a parade of one-off keys
  }
  auto top = hh.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 12345u);
  EXPECT_GE(hh.LowerBound(12345), 1000u);
}

TEST(HeavyHittersTest, MergeEmptyIsIdentity) {
  HeavyHitters hh(8);
  hh.Add(1, 10);
  HeavyHitters empty(8);
  hh.Merge(empty);
  EXPECT_EQ(hh.total_count(), 10u);
  EXPECT_EQ(hh.LowerBound(1), 10u);

  empty.Merge(hh);
  EXPECT_EQ(empty.total_count(), 10u);
  EXPECT_EQ(empty.LowerBound(1), 10u);
}

TEST(HeavyHittersTest, MergedStreamsFindGlobalHeavyHitter) {
  // Each worker sees the heavy key mixed with local noise; the merged sketch
  // must rank the shared key first with counts summed across workers.
  HeavyHitters merged(16);
  for (int worker = 0; worker < 4; ++worker) {
    HeavyHitters local(16);
    for (uint64_t i = 0; i < 200; ++i) {
      local.Add(777, 3);
      local.Add(1000 * static_cast<uint64_t>(worker + 1) + i, 1);
    }
    merged.Merge(local);
  }
  EXPECT_EQ(merged.total_count(), 4u * 200u * 4u);
  auto top = merged.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 777u);
  // True frequency 2400; the estimate may overestimate but never by more
  // than the recorded error.
  EXPECT_GE(top[0].count, 2400u);
  EXPECT_GE(2400u, top[0].count - top[0].error);
}

TEST(HeavyHittersTest, TopKBreaksCountTiesByKey) {
  HeavyHitters hh(8);
  for (uint64_t key : {9, 3, 7, 5}) hh.Add(key, 2);
  hh.Add(1, 4);
  auto top = hh.TopK(5);
  ASSERT_EQ(top.size(), 5u);
  const uint64_t expected[] = {1, 3, 5, 7, 9};
  for (size_t i = 0; i < top.size(); ++i) EXPECT_EQ(top[i].key, expected[i]);
}

// A merged entry that evicts keeps its own error on top of the victim's
// count; dropping it let LowerBound exceed the true frequency.
TEST(HeavyHittersTest, MergeEvictionCarriesIncomingError) {
  HeavyHitters a(4), b(4);
  std::map<uint64_t, uint64_t> truth;
  for (uint64_t key = 1; key <= 4; ++key) {
    a.Add(key, 5);
    truth[key] += 5;
  }
  for (uint64_t key : {10, 11, 12, 13, 20}) {
    b.Add(key);
    truth[key] += 1;
  }
  a.Merge(b);
  EXPECT_EQ(a.LowerBound(20), 1u);
  for (const HeavyHitters::Entry& e : a.TopK(a.capacity())) {
    EXPECT_LE(a.LowerBound(e.key), truth[e.key]) << "key " << e.key;
  }
}

TEST(HeavyHittersTest, LowerBoundHoldsAfterMergingFullSketches) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<uint64_t> key_dist(0, 40);
    std::uniform_int_distribution<uint64_t> weight_dist(1, 4);
    std::map<uint64_t, uint64_t> truth;
    HeavyHitters merged(4);
    for (int part = 0; part < 4; ++part) {
      HeavyHitters local(4);
      for (int i = 0; i < 60; ++i) {
        uint64_t key = key_dist(rng);
        uint64_t weight = weight_dist(rng);
        local.Add(key, weight);
        truth[key] += weight;
      }
      merged.Merge(local);
    }
    for (const HeavyHitters::Entry& e : merged.TopK(merged.capacity())) {
      EXPECT_LE(merged.LowerBound(e.key), truth[e.key])
          << "seed " << seed << " key " << e.key;
    }
  }
}

/// Naive Space-Saving with the same documented rules: the victim is the
/// smallest (count, key), an evicting entry adds the victim's count to its
/// count and error, and Merge feeds the other sketch in (count desc, key
/// asc) order.
class ShadowSpaceSaving {
 public:
  explicit ShadowSpaceSaving(size_t capacity) : capacity_(capacity) {}

  void Add(uint64_t key, uint64_t weight) {
    total_ += weight;
    Insert(key, weight, 0);
  }

  void Merge(const ShadowSpaceSaving& other) {
    for (const HeavyHitters::Entry& e : other.Sorted()) {
      Insert(e.key, e.count, e.error);
    }
    total_ += other.total_;
  }

  std::vector<HeavyHitters::Entry> Sorted() const {
    std::vector<HeavyHitters::Entry> out;
    for (const auto& [key, ce] : entries_) {
      out.push_back({key, ce.first, ce.second});
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.count != b.count ? a.count > b.count : a.key < b.key;
    });
    return out;
  }

  uint64_t total() const { return total_; }

 private:
  void Insert(uint64_t key, uint64_t count, uint64_t error) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.first += count;
      it->second.second += error;
      return;
    }
    if (entries_.size() == capacity_) {
      auto victim = entries_.begin();
      for (auto e = entries_.begin(); e != entries_.end(); ++e) {
        if (e->second.first < victim->second.first) victim = e;
      }
      // std::map iterates keys ascending, so the first minimum found has
      // the smallest key.
      uint64_t min_count = victim->second.first;
      entries_.erase(victim);
      count += min_count;
      error += min_count;
    }
    entries_[key] = {count, error};
  }

  size_t capacity_;
  uint64_t total_ = 0;
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> entries_;
};

void ExpectSameSketch(const HeavyHitters& hh, const ShadowSpaceSaving& shadow,
                      const std::string& where) {
  EXPECT_EQ(hh.total_count(), shadow.total()) << where;
  std::vector<HeavyHitters::Entry> got = hh.TopK(hh.capacity());
  std::vector<HeavyHitters::Entry> want = shadow.Sorted();
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << where << " entry " << i;
    EXPECT_EQ(got[i].count, want[i].count) << where << " entry " << i;
    EXPECT_EQ(got[i].error, want[i].error) << where << " entry " << i;
  }
}

TEST(HeavyHittersTest, MatchesShadowSpaceSavingOnSkewedWeightedStreams) {
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const size_t capacities[] = {1, 2, 4, 8, 16, 64};
    size_t capacity = capacities[seed % 6];
    // Skew: cubing a uniform draw piles mass onto the small keys.
    uint64_t domain = 4 + seed * 13;
    auto draw_key = [&] {
      double u = unit(rng);
      return static_cast<uint64_t>(u * u * u * static_cast<double>(domain));
    };
    HeavyHitters merged(capacity);
    ShadowSpaceSaving merged_shadow(capacity);
    for (int part = 0; part < 5; ++part) {
      HeavyHitters local(capacity);
      ShadowSpaceSaving local_shadow(capacity);
      int n = static_cast<int>(rng() % 300);
      for (int i = 0; i < n; ++i) {
        uint64_t key = draw_key();
        uint64_t weight = rng() % 4 == 0 ? rng() % 10 : 1;  // 0 included
        local.Add(key, weight);
        local_shadow.Add(key, weight);
      }
      std::string where =
          "seed " + std::to_string(seed) + " part " + std::to_string(part);
      ExpectSameSketch(local, local_shadow, where + " local");
      merged.Merge(local);
      merged_shadow.Merge(local_shadow);
      ExpectSameSketch(merged, merged_shadow, where + " merged");
    }
  }
}

}  // namespace
}  // namespace shark
