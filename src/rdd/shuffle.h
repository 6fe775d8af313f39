#ifndef SHARK_RDD_SHUFFLE_H_
#define SHARK_RDD_SHUFFLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "sim/dfs.h"

namespace shark {

class MemoryManager;

/// Statistics the master aggregates from map tasks at a shuffle boundary —
/// the raw material for Partial DAG Execution (§3.1). Each map task reports
/// its buckets' byte sizes in the 1-byte lossy logarithmic encoding, exactly
/// as the paper bounds per-task statistics reports to 1-2 KB, and the master
/// sums the decoded sizes. Every PDE decision (reducer count, join strategy,
/// skew report) reads only these sizes; key sketches are ANALYZE table
/// statistics (sql/stats).
struct ShuffleStats {
  std::vector<uint64_t> bucket_bytes;    // per fine-grained reduce bucket
  std::vector<uint64_t> bucket_records;
  uint64_t total_bytes = 0;
  uint64_t total_records = 0;
};

/// One non-empty bucket of a map output: records [begin, end) of the
/// output's batch, its bytes, and the 1-byte size code the map task reports
/// to the master (§3.1).
struct MapBucket {
  uint32_t bucket = 0;  // fine-grained reduce bucket
  uint32_t begin = 0;
  uint32_t end = 0;
  uint8_t size_code = 0;  // SizeEncoding::Encode(bytes)
  uint64_t bytes = 0;

  uint64_t records() const { return end - begin; }
  /// Sets the bucket's bytes and the size code the task reports for them.
  void SetBytes(uint64_t b);
};

/// Output of one map task of a shuffle, resident on the node that ran the
/// map task (in memory for Shark, on local disk for Hadoop — the profile
/// decides the fetch cost). Compact: one batch holds every record, grouped
/// by bucket, and only the non-empty buckets are listed, as index ranges
/// into it. Its size therefore follows the data the task produced, not the
/// fine-grained bucket count.
struct MapOutput {
  bool present = false;
  int node = -1;
  /// The task's records in bucket order. Its type is the dependency's
  /// business; its reduce side reads it back (ShuffleSlice).
  BlockData batch;
  /// The non-empty buckets, in ascending bucket order (OrderByBucket's
  /// runs, with their bytes set).
  std::vector<MapBucket> buckets;
  /// Multiplier translating real per-record reduce-side charges into
  /// faithful virtual charges for cardinality-bounded (combined) outputs;
  /// 1.0 when linear scaling is already correct.
  double cost_scale = 1.0;
  /// Serving mode (§5's memory-based shuffle knob, now per output): false =
  /// buckets stay in the map node's memory and fetches cost mem/net; true =
  /// buckets live on local disk (the Hadoop profile's global default, or a
  /// per-node flip when the node's memory budget had no room at launch).
  bool on_disk = false;
  /// Bytes this output charges to the node's shuffle-buffer ledger while
  /// resident in memory (0 when on_disk). Managed by ShuffleManager.
  uint64_t ledger_bytes = 0;

  uint64_t records() const;
  uint64_t bytes() const;
};

/// Stable grouping of `bucket_of.size()` records by bucket, the layout
/// every map-side dependency ships: fills `order` with the record indices
/// in ascending bucket order (each bucket keeping input order) and returns
/// the non-empty buckets as MapBuckets over `order`, bytes and codes unset.
/// A counting sort: O(n + num_buckets).
std::vector<MapBucket> OrderByBucket(const std::vector<uint32_t>& bucket_of,
                                     uint32_t num_buckets,
                                     std::vector<uint32_t>* order);

/// One fetched bucket of one map output: records [begin, end) of that
/// output's batch, and the bucket's bytes.
struct ShuffleSlice {
  const void* batch = nullptr;
  uint32_t begin = 0;
  uint32_t end = 0;
  uint64_t bytes = 0;

  size_t size() const { return end - begin; }
  /// The batch, as the type its dependency stored.
  template <typename B>
  const B& Batch() const {
    return *static_cast<const B*>(batch);
  }
  /// The slice's records of a batch stored as std::vector<T>.
  template <typename T>
  std::span<const T> Records() const {
    return std::span<const T>(Batch<std::vector<T>>().data() + begin, size());
  }
};

/// Ids of shuffles whose ShuffleDependency died, awaiting DropShuffle. An
/// RDD graph dies on whichever thread held it last (a session thread, a job
/// thread, a client dropping a sql2rdd handle), so pushes are mutex-guarded;
/// the queue is drained only where engine state may be mutated
/// (DagScheduler::ReleaseDeadShuffles). Shared between the ShuffleManager
/// and every dependency, so either may outlive the other.
class DeadShuffleQueue {
 public:
  void Push(int shuffle_id) {
    std::lock_guard<std::mutex> lk(mu_);
    ids_.push_back(shuffle_id);
  }
  std::vector<int> Take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(ids_, {});
  }

 private:
  std::mutex mu_;
  std::vector<int> ids_;
};

/// Tracks materialized map outputs per shuffle. Lost outputs (node failure)
/// are detected by reduce-side fetches and recomputed from lineage by the
/// scheduler. A shuffle lives as long as its ShuffleDependency: the
/// dependency's destructor queues the id on dead_queue(), and the next
/// statement end drops it, giving its ledger bytes back.
class ShuffleManager {
 public:
  /// Optional memory arbiter: memory-served map outputs are charged to its
  /// per-node shuffle-buffer ledger while resident. May stay null (unit
  /// tests construct bare ShuffleManagers).
  void set_memory_manager(MemoryManager* mm) { memory_manager_ = mm; }

  /// Registers a shuffle; returns its id.
  int RegisterShuffle(int num_map_partitions, int num_buckets);

  bool IsRegistered(int shuffle_id) const;
  int NumBuckets(int shuffle_id) const;
  int NumMapPartitions(int shuffle_id) const;

  /// Stores one map task's output and folds its sizes into the stats.
  void PutMapOutput(int shuffle_id, int map_partition, MapOutput output);

  /// nullptr if absent — never computed, or lost to a failure. A non-null
  /// result is always present (fetchable).
  const MapOutput* GetMapOutput(int shuffle_id, int map_partition) const;

  /// Every map partition's output slot, in map-partition order; a slot
  /// that is not `present` reads as absent (GetMapOutput's nullptr).
  const std::vector<MapOutput>& MapOutputs(int shuffle_id) const {
    return GetState(shuffle_id).outputs;
  }

  /// True once every map partition has a present output.
  bool IsComplete(int shuffle_id) const;

  /// Map partitions whose output is missing or lost.
  std::vector<int> MissingMapPartitions(int shuffle_id) const;

  const ShuffleStats& Stats(int shuffle_id) const;

  /// Marks outputs on a failed node as lost.
  void DropNode(int node);

  void DropShuffle(int shuffle_id);

  /// Registered shuffles not yet dropped (live lineage plus dead ids still
  /// queued).
  size_t num_shuffles() const { return shuffles_.size(); }

  const std::shared_ptr<DeadShuffleQueue>& dead_queue() const {
    return dead_queue_;
  }

 private:
  struct ShuffleState {
    int num_buckets = 0;
    std::vector<MapOutput> outputs;  // indexed by map partition
    // Whether a map partition's sizes were already folded into stats; a
    // recomputation after failure must not double count.
    std::vector<char> stats_recorded;
    ShuffleStats stats;
  };

  const ShuffleState& GetState(int shuffle_id) const;
  void ReleaseLedger(MapOutput* out);

  int next_id_ = 0;
  std::map<int, ShuffleState> shuffles_;
  MemoryManager* memory_manager_ = nullptr;
  std::shared_ptr<DeadShuffleQueue> dead_queue_ =
      std::make_shared<DeadShuffleQueue>();
};

}  // namespace shark

#endif  // SHARK_RDD_SHUFFLE_H_
