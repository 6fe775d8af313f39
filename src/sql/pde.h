#ifndef SHARK_SQL_PDE_H_
#define SHARK_SQL_PDE_H_

#include <cstdint>
#include <vector>

#include "rdd/pair_rdd.h"

namespace shark {

/// Partial DAG execution decisions taken at a shuffle boundary (§3.1.2):
/// given observed fine-grained bucket sizes, coalesce them into reduce
/// partitions with a greedy bin-packing heuristic that equalizes reducer
/// loads (mitigating skew), and pick the reducer count from the data size.

/// Picks the number of reducers: enough that each handles about
/// `target_bytes` (virtual), bounded by [1, num_buckets].
int ChooseNumReducers(uint64_t total_virtual_bytes, uint64_t target_bytes,
                      int num_buckets);

/// Greedy bin packing: buckets sorted by decreasing size, each placed on the
/// currently least-loaded reducer (the lowest-numbered one among equals). Every bucket index in [0, bucket_bytes
/// .size()) appears in exactly one reducer's list.
BucketAssignment CoalesceBuckets(const std::vector<uint64_t>& bucket_bytes,
                                 int num_reducers);

/// Largest single reducer load under the assignment (for tests/metrics).
uint64_t MaxReducerLoad(const std::vector<uint64_t>& bucket_bytes,
                        const BucketAssignment& assignment);

}  // namespace shark

#endif  // SHARK_SQL_PDE_H_
