#include "sql/pde.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/logging.h"

namespace shark {

int ChooseNumReducers(uint64_t total_virtual_bytes, uint64_t target_bytes,
                      int num_buckets) {
  SHARK_CHECK(target_bytes > 0 && num_buckets > 0);
  uint64_t wanted = (total_virtual_bytes + target_bytes - 1) / target_bytes;
  if (wanted < 1) wanted = 1;
  if (wanted > static_cast<uint64_t>(num_buckets)) {
    wanted = static_cast<uint64_t>(num_buckets);
  }
  return static_cast<int>(wanted);
}

BucketAssignment CoalesceBuckets(const std::vector<uint64_t>& bucket_bytes,
                                 int num_reducers) {
  SHARK_CHECK(num_reducers >= 1);
  const int n = static_cast<int>(bucket_bytes.size());
  if (num_reducers > n) num_reducers = n;
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return bucket_bytes[static_cast<size_t>(a)] >
           bucket_bytes[static_cast<size_t>(b)];
  });
  BucketAssignment assignment(static_cast<size_t>(num_reducers));
  // Min-heap of (load, reducer): the least-loaded reducer, the lowest index
  // among equal loads. All loads start at 0, so the initial list is a heap.
  using Load = std::pair<uint64_t, int>;
  std::vector<Load> heap;
  heap.reserve(static_cast<size_t>(num_reducers));
  for (int r = 0; r < num_reducers; ++r) heap.emplace_back(0, r);
  for (int bucket : order) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    auto& [load, best] = heap.back();
    assignment[static_cast<size_t>(best)].push_back(bucket);
    load += bucket_bytes[static_cast<size_t>(bucket)];
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  // Keep each reducer's bucket list ordered for determinism.
  for (auto& list : assignment) std::sort(list.begin(), list.end());
  return assignment;
}

uint64_t MaxReducerLoad(const std::vector<uint64_t>& bucket_bytes,
                        const BucketAssignment& assignment) {
  uint64_t max_load = 0;
  for (const auto& list : assignment) {
    uint64_t load = 0;
    for (int b : list) load += bucket_bytes[static_cast<size_t>(b)];
    max_load = std::max(max_load, load);
  }
  return max_load;
}

}  // namespace shark
