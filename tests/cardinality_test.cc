#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/cardinality.h"
#include "common/random.h"

namespace shark {
namespace {

TEST(DistinctGrowthTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(DistinctGrowthFactor(0, 0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(DistinctGrowthFactor(100, 50, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(DistinctGrowthFactor(100, 50, 0.5), 1.0);
}

TEST(DistinctGrowthTest, NoCollisionsMeansLinear) {
  // All-unique sample: no evidence of saturation; scale linearly.
  EXPECT_DOUBLE_EQ(DistinctGrowthFactor(1000, 1000, 50.0), 50.0);
}

TEST(DistinctGrowthTest, FullySaturatedStaysFlat) {
  // 1250 draws hit only 100 distinct keys: the key space is tiny; scaling
  // the draws 1000x barely increases the distinct count.
  double f = DistinctGrowthFactor(1250, 100, 1000.0);
  EXPECT_LT(f, 1.05);
  EXPECT_GE(f, 1.0);
}

TEST(DistinctGrowthTest, BoundedByOneAndScale) {
  Random rng(6);
  for (int i = 0; i < 200; ++i) {
    double n = 1.0 + static_cast<double>(rng.Uniform(100000));
    double d = 1.0 + static_cast<double>(rng.Uniform(static_cast<uint64_t>(n)));
    double scale = 1.0 + static_cast<double>(rng.Uniform(10000));
    double f = DistinctGrowthFactor(n, d, scale);
    EXPECT_GE(f, 1.0) << "n=" << n << " d=" << d << " s=" << scale;
    EXPECT_LE(f, scale) << "n=" << n << " d=" << d << " s=" << scale;
  }
}

TEST(DistinctGrowthTest, RecoversTrueGrowthOnSimulatedDraws) {
  // Draw n samples uniformly from K keys; check the predicted growth
  // against an actual scaled-up simulation.
  Random rng(7);
  const uint64_t kKeySpace = 300000;
  const int kSample = 2500;
  const double kScale = 1000.0;

  std::vector<char> seen_small(kKeySpace, 0);
  int d_small = 0;
  for (int i = 0; i < kSample; ++i) {
    uint64_t k = rng.Uniform(kKeySpace);
    if (!seen_small[k]) {
      seen_small[k] = 1;
      ++d_small;
    }
  }
  double predicted = DistinctGrowthFactor(kSample, d_small, kScale);

  // The scaled-up "virtual" sample has kSample * kScale = 2.5M draws from
  // 300K keys: essentially the whole key space.
  double true_growth = static_cast<double>(kKeySpace) / d_small;
  EXPECT_NEAR(predicted, true_growth, 0.35 * true_growth);
}

TEST(DistinctGrowthTest, MonotoneInScale) {
  double prev = 0;
  for (double scale : {2.0, 10.0, 100.0, 1000.0, 10000.0}) {
    double f = DistinctGrowthFactor(1000, 900, scale);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

// CountSplitHalves must count exactly what hash sets over the two halves
// count; the shuffle's byte adjustment (and so virtual time) depends on it.
SampleCardinality SplitHalvesBySets(const std::vector<uint64_t>& hashes) {
  const size_t half = hashes.size() / 2;
  std::unordered_set<uint64_t> first(hashes.begin(), hashes.begin() + half);
  std::unordered_set<uint64_t> second(hashes.begin() + half, hashes.end());
  SampleCardinality s;
  s.d_first = static_cast<double>(first.size());
  s.d_second = static_cast<double>(second.size());
  for (uint64_t k : first) {
    if (second.count(k) > 0) s.overlap += 1.0;
  }
  return s;
}

TEST(SplitHalvesTest, MatchesSetBasedCounts) {
  Random rng(7);
  std::vector<std::vector<uint64_t>> cases = {{}, {42}, {5, 5}, {1, 2, 1}};
  for (int n : {10, 101, 1000, 4097}) {
    std::vector<uint64_t> random_hashes;   // almost all distinct
    std::vector<uint64_t> dup_heavy;       // few keys, many repeats
    std::vector<uint64_t> clustered;       // halves nearly disjoint
    for (int i = 0; i < n; ++i) {
      random_hashes.push_back(rng.NextUint64());
      dup_heavy.push_back(rng.Uniform(7));
      clustered.push_back(static_cast<uint64_t>(i / 3) + rng.Uniform(2));
    }
    cases.push_back(std::move(random_hashes));
    cases.push_back(std::move(dup_heavy));
    cases.push_back(std::move(clustered));
  }
  for (const std::vector<uint64_t>& hashes : cases) {
    SampleCardinality got;
    CountSplitHalves(hashes, &got);
    const SampleCardinality want = SplitHalvesBySets(hashes);
    EXPECT_EQ(got.d_first, want.d_first) << "n=" << hashes.size();
    EXPECT_EQ(got.d_second, want.d_second) << "n=" << hashes.size();
    EXPECT_EQ(got.overlap, want.overlap) << "n=" << hashes.size();
  }
}

TEST(SplitHalvesTest, EdgeCases) {
  Random rng(11);
  std::vector<std::vector<uint64_t>> cases = {
      {},                                   // n = 0
      {UINT64_MAX},                         // n = 1: the lone hash is second
      {0, 0, 0},                            // odd n, all equal, hash 0
      {0, UINT64_MAX, 0, UINT64_MAX, 1},    // the extreme hashes, both halves
      {UINT64_MAX, 0, 7, 0, UINT64_MAX},    // odd n, extremes cross halves
  };
  std::vector<uint64_t> all_equal(1001, 0x9e3779b97f4a7c15ULL);
  cases.push_back(all_equal);
  // Hashes differing only in their high or only in their low bits, and a
  // sample large enough to grow the table many times.
  std::vector<uint64_t> high_bits, low_bits, large;
  for (uint64_t i = 0; i < 257; ++i) {
    high_bits.push_back(i << 56);
    low_bits.push_back(i % 97);
  }
  for (int i = 0; i < 100001; ++i) large.push_back(rng.Uniform(60000));
  for (auto* c : {&high_bits, &low_bits, &large}) cases.push_back(*c);
  for (const std::vector<uint64_t>& hashes : cases) {
    SampleCardinality got;
    CountSplitHalves(hashes, &got);
    const SampleCardinality want = SplitHalvesBySets(hashes);
    EXPECT_EQ(got.d_first, want.d_first) << "n=" << hashes.size();
    EXPECT_EQ(got.d_second, want.d_second) << "n=" << hashes.size();
    EXPECT_EQ(got.overlap, want.overlap) << "n=" << hashes.size();
  }
  SampleCardinality one;
  CountSplitHalves({UINT64_MAX}, &one);
  EXPECT_EQ(one.d_first, 0.0);
  EXPECT_EQ(one.d_second, 1.0);
  SampleCardinality extremes;
  CountSplitHalves({0, UINT64_MAX, 0, UINT64_MAX, 1}, &extremes);
  EXPECT_EQ(extremes.d_first, 2.0);
  EXPECT_EQ(extremes.d_second, 3.0);
  EXPECT_EQ(extremes.overlap, 2.0);
}

}  // namespace
}  // namespace shark
