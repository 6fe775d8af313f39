#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sql/pde.h"

namespace shark {
namespace {

TEST(PdeReducersTest, ChoosesByTargetBytes) {
  EXPECT_EQ(ChooseNumReducers(0, 1 << 20, 100), 1);
  EXPECT_EQ(ChooseNumReducers(1 << 20, 1 << 20, 100), 1);
  EXPECT_EQ(ChooseNumReducers((1 << 20) + 1, 1 << 20, 100), 2);
  EXPECT_EQ(ChooseNumReducers(100ULL << 20, 1 << 20, 100), 100);
  // Clamped to the fine-grained bucket count.
  EXPECT_EQ(ChooseNumReducers(1000ULL << 20, 1 << 20, 64), 64);
}

TEST(PdeCoalesceTest, EveryBucketAssignedExactlyOnce) {
  Random rng(7);
  std::vector<uint64_t> sizes;
  for (int i = 0; i < 200; ++i) sizes.push_back(rng.Uniform(1000000));
  BucketAssignment a = CoalesceBuckets(sizes, 16);
  ASSERT_EQ(a.size(), 16u);
  std::vector<int> seen(sizes.size(), 0);
  for (const auto& list : a) {
    for (int b : list) seen[static_cast<size_t>(b)] += 1;
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "bucket " << i;
  }
}

TEST(PdeCoalesceTest, GreedyBalancesSkew) {
  // One huge bucket plus many small ones: greedy bin packing should isolate
  // the hot bucket and spread the rest, keeping max load near total/R
  // rather than near (hot + everything else)/fewer bins.
  std::vector<uint64_t> sizes(64, 100);
  sizes[7] = 3000;  // heavy hitter bucket
  BucketAssignment a = CoalesceBuckets(sizes, 8);
  uint64_t total = std::accumulate(sizes.begin(), sizes.end(), uint64_t{0});
  uint64_t max_load = MaxReducerLoad(sizes, a);
  EXPECT_EQ(max_load, 3000u);  // hot bucket alone bounds the max
  EXPECT_LT(max_load, total);  // far from serializing everything
}

TEST(PdeCoalesceTest, UniformBucketsBalanceEvenly) {
  std::vector<uint64_t> sizes(100, 50);
  BucketAssignment a = CoalesceBuckets(sizes, 10);
  uint64_t max_load = MaxReducerLoad(sizes, a);
  EXPECT_EQ(max_load, 500u);  // perfect split
}

TEST(PdeCoalesceTest, MoreReducersThanBucketsClamps) {
  std::vector<uint64_t> sizes = {10, 20, 30};
  BucketAssignment a = CoalesceBuckets(sizes, 10);
  EXPECT_EQ(a.size(), 3u);
}

class PdeCoalescePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PdeCoalescePropertyTest, MaxLoadWithinTwiceOptimal) {
  // Greedy longest-processing-time packing is a 4/3-approximation; verify a
  // loose 2x bound across random inputs.
  Random rng(static_cast<uint64_t>(GetParam()));
  std::vector<uint64_t> sizes;
  for (int i = 0; i < 128; ++i) sizes.push_back(rng.Uniform(10000) + 1);
  int reducers = 1 + static_cast<int>(rng.Uniform(32));
  BucketAssignment a = CoalesceBuckets(sizes, reducers);
  uint64_t total = std::accumulate(sizes.begin(), sizes.end(), uint64_t{0});
  uint64_t biggest = *std::max_element(sizes.begin(), sizes.end());
  uint64_t lower_bound =
      std::max<uint64_t>(biggest, total / static_cast<uint64_t>(a.size()));
  EXPECT_LE(MaxReducerLoad(sizes, a), 2 * lower_bound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdeCoalescePropertyTest,
                         ::testing::Range(1, 13));

/// CoalesceBuckets as a linear scan over every reducer per bucket: the
/// least-loaded reducer, the first one among equals.
BucketAssignment LinearScanCoalesce(const std::vector<uint64_t>& bucket_bytes,
                                    int num_reducers) {
  const int n = static_cast<int>(bucket_bytes.size());
  if (num_reducers > n) num_reducers = n;
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return bucket_bytes[static_cast<size_t>(a)] >
           bucket_bytes[static_cast<size_t>(b)];
  });
  BucketAssignment assignment(static_cast<size_t>(num_reducers));
  std::vector<uint64_t> load(static_cast<size_t>(num_reducers), 0);
  for (int bucket : order) {
    size_t best = 0;
    for (size_t r = 1; r < load.size(); ++r) {
      if (load[r] < load[best]) best = r;
    }
    assignment[best].push_back(bucket);
    load[best] += bucket_bytes[static_cast<size_t>(bucket)];
  }
  for (auto& list : assignment) std::sort(list.begin(), list.end());
  return assignment;
}

TEST(PdeCoalesceTest, MatchesLinearScanWithTies) {
  Random rng(11);
  for (int round = 0; round < 200; ++round) {
    const auto n = static_cast<size_t>(rng.Uniform(300));
    // Few distinct sizes (many ties, zeros among them) or many.
    const uint64_t range = round % 3 == 0 ? 4 : round % 3 == 1 ? 100 : 1000000;
    std::vector<uint64_t> sizes(n);
    for (uint64_t& b : sizes) b = rng.Uniform(range) * 8;
    const int reducers = 1 + static_cast<int>(rng.Uniform(40));
    EXPECT_EQ(CoalesceBuckets(sizes, reducers),
              LinearScanCoalesce(sizes, reducers))
        << "round " << round << ", " << n << " buckets, " << reducers
        << " reducers";
  }
}

}  // namespace
}  // namespace shark
