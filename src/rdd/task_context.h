#ifndef SHARK_RDD_TASK_CONTEXT_H_
#define SHARK_RDD_TASK_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/trace.h"
#include "mem/memory_manager.h"
#include "rdd/block_manager.h"
#include "rdd/broadcast.h"
#include "rdd/shuffle.h"
#include "sim/cost_model.h"

namespace shark {

/// A cost charge whose amount depends on which node the task eventually runs
/// on. Task bodies are *pure*: they may execute on any host thread before the
/// scheduler has picked a node, so location-dependent reads are recorded as
/// conditional charges and resolved by the scheduler at launch time, when the
/// (node, core) placement is known.
struct DeferredCharge {
  enum class Kind : uint8_t {
    kMemOrNet,       // memory read if run on `home`, else network read
    kNetIfRemote,    // network read only if not run on `home`
    kNetIfNoReplica  // network read only if no replica is local
  };
  Kind kind = Kind::kMemOrNet;
  uint64_t bytes = 0;
  int home = -1;              // kMemOrNet / kNetIfRemote
  std::vector<int> replicas;  // kNetIfNoReplica
};

/// Applies the launch-node-dependent part of a task's cost to `work`.
inline void ResolveDeferredCharges(const std::vector<DeferredCharge>& charges,
                                   int node, TaskWork* work) {
  for (const DeferredCharge& c : charges) {
    switch (c.kind) {
      case DeferredCharge::Kind::kMemOrNet:
        if (c.home == node) {
          work->mem_read_bytes += c.bytes;
        } else {
          work->net_read_bytes += c.bytes;
        }
        break;
      case DeferredCharge::Kind::kNetIfRemote:
        if (c.home != node) work->net_read_bytes += c.bytes;
        break;
      case DeferredCharge::Kind::kNetIfNoReplica: {
        bool local = false;
        for (int r : c.replicas) {
          if (r == node) local = true;
        }
        if (!local) work->net_read_bytes += c.bytes;
        break;
      }
    }
  }
}

/// One logged block-cache access. Task bodies never mutate the shared
/// BlockManager (other host threads are concurrently reading it); they log
/// their accesses, and the scheduler replays the logs of *committed* tasks in
/// commit order — so the cache evolves exactly as if the committed tasks had
/// run one after another.
struct CacheOp {
  bool is_put = false;
  int rdd_id = 0;
  int partition = 0;
  BlockData data;      // put only
  uint64_t bytes = 0;  // put only
  int node = -1;       // filled in by the scheduler at commit time
};

/// Execution context handed to a task. Carries the work counters the cost
/// model converts into virtual time, and gives compute functions access to
/// the cache, shuffle outputs and broadcasts with their access costs charged
/// automatically.
///
/// Purity contract (host-parallel execution): a task body may run on any host
/// thread, at any wall-clock moment between stage start and its virtual-time
/// launch. It must therefore be a pure function of (partition, the shared
/// state frozen at stage start, its private rng()). The context enforces this
/// by construction: shared structures are only read (BlockManager::Peek,
/// broadcast data), own writes go to a task-local overlay plus a log, and
/// location-dependent costs become DeferredCharges resolved at launch.
///
/// Error model: reduce-side fetches of shuffle outputs lost to node failures
/// do not abort the task; they record the missing (shuffle, map partition)
/// pairs and return what is available. The scheduler inspects
/// `missing_inputs` after the task body runs, discards the result, recomputes
/// the lost parents from lineage, and re-runs the task — mirroring Spark's
/// FetchFailed handling without using exceptions.
class TaskContext {
 public:
  TaskContext(int partition, const EngineProfile* profile,
              const BlockManager* block_manager,
              const ShuffleManager* shuffle_manager,
              const BroadcastRegistry* broadcasts, double virtual_scale = 1.0,
              uint64_t rng_seed = 0,
              uint64_t mem_budget = ~static_cast<uint64_t>(0))
      : partition_(partition),
        profile_(profile),
        block_manager_(block_manager),
        shuffle_manager_(shuffle_manager),
        broadcasts_(broadcasts),
        virtual_scale_(virtual_scale),
        rng_seed_(rng_seed),
        mem_budget_(mem_budget) {}

  /// The context-wide virtual data multiplier (see ClusterConfig); shuffle
  /// boundaries use it with the distinct-growth estimator to avoid scaling
  /// cardinality-bounded outputs linearly.
  double virtual_scale() const { return virtual_scale_; }
  int partition() const { return partition_; }
  const EngineProfile& profile() const { return *profile_; }

  /// Deterministic per-task generator, seeded by the scheduler from
  /// (config seed, stage sequence number, task index). Task bodies needing
  /// randomness must use this — never a shared generator — so results do not
  /// depend on which host thread ran the body first.
  Random& rng() {
    if (!rng_) rng_.emplace(rng_seed_);
    return *rng_;
  }

  TaskWork& work() { return work_; }
  const TaskWork& work() const { return work_; }

  bool HasMissingInput() const { return !missing_inputs_.empty(); }
  const std::vector<std::pair<int, int>>& missing_inputs() const {
    return missing_inputs_;
  }

  // -- Block cache (read-only view + task-local overlay) --------------------

  /// Looks up a cached partition: this task's own puts first, then the
  /// stage-start snapshot of the shared cache. Charges the read (memory if
  /// the task lands on the caching node, network otherwise; with
  /// `free_reads`, local reads are free because the consumer charges its own
  /// finer-grained cost). Returns nullptr if absent.
  BlockData CacheGet(int rdd_id, int partition, bool free_reads) {
    auto it = overlay_.find({rdd_id, partition});
    if (it != overlay_.end()) {
      // Own put: the block will live on this task's node, so the re-read is
      // local by definition.
      if (!free_reads) work_.mem_read_bytes += it->second.second;
      cache_log_.push_back(CacheOp{false, rdd_id, partition, nullptr, 0, -1});
      CacheCounters& c = cache_counters_[rdd_id];
      c.hit_blocks += 1;
      c.hit_bytes += it->second.second;
      return it->second.first;
    }
    const CachedBlock* cb = block_manager_->Peek(rdd_id, partition);
    if (cb == nullptr) return nullptr;
    DeferredCharge charge;
    charge.kind = free_reads ? DeferredCharge::Kind::kNetIfRemote
                             : DeferredCharge::Kind::kMemOrNet;
    charge.bytes = cb->bytes;
    charge.home = cb->node;
    deferred_charges_.push_back(std::move(charge));
    cache_log_.push_back(CacheOp{false, rdd_id, partition, nullptr, 0, -1});
    CacheCounters& c = cache_counters_[rdd_id];
    c.hit_blocks += 1;
    c.hit_bytes += cb->bytes;
    return cb->data;
  }

  /// Records that a cached RDD's partition was absent and had to be
  /// recomputed (`bytes` = the recomputed block's size). Called by
  /// RddBase::GetOrComputeErased.
  void RecordCacheMiss(int rdd_id, uint64_t bytes) {
    CacheCounters& c = cache_counters_[rdd_id];
    c.miss_blocks += 1;
    c.miss_bytes += bytes;
  }

  /// Records a block for caching. Visible to this task immediately; becomes
  /// visible to others only if the task commits (the scheduler replays the
  /// log). Oversized blocks are dropped, matching BlockManager::Put.
  void CachePut(int rdd_id, int partition, BlockData data, uint64_t bytes) {
    if (!block_manager_->Fits(bytes)) return;
    overlay_[{rdd_id, partition}] = {data, bytes};
    cache_log_.push_back(
        CacheOp{true, rdd_id, partition, std::move(data), bytes, -1});
  }

  // -- Operator working-set memory ------------------------------------------
  //
  // Task bodies arbitrate their hash tables and sort buffers against a
  // per-task budget latched by the scheduler at stage start (frozen state —
  // shuffle commits may move the node ledgers mid-stage, so bodies must not
  // read the MemoryManager live). Decisions are logged as MemOps; the
  // scheduler replays the committed attempt's log in commit order.

  /// The working-set budget (bytes) this task may claim. Defaults to
  /// unlimited for directly constructed contexts (unit tests).
  uint64_t mem_budget() const { return mem_budget_; }
  uint64_t mem_reserved() const { return mem_reserved_; }

  /// Claims `bytes` of working-set memory. Returns false (and logs a denied
  /// reservation) when the budget has no room — the operator must degrade.
  bool ReserveWorkingSet(uint64_t bytes) {
    bool granted = bytes <= mem_budget_ - mem_reserved_;
    mem_log_.push_back(MemOp{MemOp::Kind::kReserve, bytes, granted, 0});
    if (granted) mem_reserved_ += bytes;
    return granted;
  }

  /// Extends an existing reservation (e.g. the probe side of a join joining
  /// an already-reserved build table).
  bool GrowWorkingSet(uint64_t bytes) {
    bool granted = bytes <= mem_budget_ - mem_reserved_;
    mem_log_.push_back(MemOp{MemOp::Kind::kGrow, bytes, granted, 0});
    if (granted) mem_reserved_ += bytes;
    return granted;
  }

  /// Returns working-set memory; clamped to what is actually reserved.
  void ReleaseWorkingSet(uint64_t bytes) {
    bytes = std::min(bytes, mem_reserved_);
    if (bytes == 0) return;
    mem_reserved_ -= bytes;
    mem_log_.push_back(MemOp{MemOp::Kind::kRelease, bytes, true, 0});
  }

  /// Releases everything this task still holds; operators call this when
  /// their working structures die (tasks pipeline operators sequentially, so
  /// at any instant the reservation belongs to the innermost operator).
  void ReleaseAllWorkingSet() { ReleaseWorkingSet(mem_reserved_); }

  /// Reserve a hash-table working set, or degrade to the external grace-hash
  /// algorithm: partition the table into budget-sized runs on simulated
  /// local disk, then re-read and merge them partition by partition. Charges
  /// the spill I/O plus a rebuild pass over `rebuild_records` entries.
  /// Returns the number of spill partitions (0 = fit in memory).
  uint32_t ReserveOrSpillHash(uint64_t bytes, uint64_t rebuild_records) {
    if (ReserveWorkingSet(bytes)) return 0;
    return SpillWorkingSet(bytes, rebuild_records, /*sort_merge=*/false);
  }

  /// Grow variant of ReserveOrSpillHash (second input of a two-sided build).
  uint32_t GrowOrSpillHash(uint64_t bytes, uint64_t rebuild_records) {
    if (GrowWorkingSet(bytes)) return 0;
    return SpillWorkingSet(bytes, rebuild_records, /*sort_merge=*/false);
  }

  /// Reserve a sort buffer, or degrade to the external sort-merge path:
  /// sort budget-sized runs, spill each, then k-way merge — charging run
  /// I/O, one seek per run, and a merge pass over `merge_records` rows.
  /// Returns the number of runs (0 = fit in memory).
  uint32_t ReserveOrSpillSort(uint64_t bytes, uint64_t merge_records) {
    if (ReserveWorkingSet(bytes)) return 0;
    return SpillWorkingSet(bytes, merge_records, /*sort_merge=*/true);
  }

  uint64_t spill_bytes() const { return spill_bytes_; }
  uint32_t spill_partitions() const { return spill_partitions_; }

  // -- Shuffle fetch --------------------------------------------------------

  /// Fetches the given fine-grained buckets of every map output of a
  /// shuffle, charging transfer costs (memory/disk/network according to the
  /// engine profile and output locality; locality-dependent parts are
  /// deferred). Missing map outputs are recorded in missing_inputs().
  /// `buckets` must be strictly ascending, as every BucketAssignment is.
  /// Slices come map by map, each map's in bucket order. They point into
  /// the map outputs' batches, which stay put while any task body runs:
  /// node deaths and shuffle drops quiesce the pool first
  /// (DagScheduler::BumpEpoch), and a present output is never replaced.
  std::vector<ShuffleSlice> FetchShuffleBuckets(
      int shuffle_id, const std::vector<int>& buckets,
      double* effective_records = nullptr) {
    std::vector<ShuffleSlice> out;
    for (size_t i = 0; i < buckets.size(); ++i) {
      SHARK_CHECK(buckets[i] >= 0 && (i == 0 || buckets[i - 1] < buckets[i]));
    }
    const std::vector<MapOutput>& outputs =
        shuffle_manager_->MapOutputs(shuffle_id);
    for (size_t m = 0; m < outputs.size(); ++m) {
      const MapOutput& mo = outputs[m];
      // Absent covers both never-computed and lost-to-failure outputs;
      // either way the scheduler must recompute.
      if (!mo.present) {
        missing_inputs_.emplace_back(shuffle_id, static_cast<int>(m));
        continue;
      }
      // Matches come in bucket order, so every sum adds the same terms in
      // the same order as a walk over every bucket would (an empty bucket
      // adds 0).
      uint64_t bytes = 0;
      auto take = [&](const MapBucket& e) {
        out.push_back(ShuffleSlice{mo.batch.get(), e.begin, e.end, e.bytes});
        bytes += e.bytes;
        if (effective_records != nullptr) {
          *effective_records += static_cast<double>(e.records()) * mo.cost_scale;
        }
      };
      // Intersect the two ascending lists, each side seeking the other's
      // current bucket, so the walk follows the shorter list.
      const std::vector<MapBucket>& have = mo.buckets;
      auto h = have.begin();
      auto w = buckets.begin();
      while (h != have.end() && w != buckets.end()) {
        const auto b = static_cast<uint32_t>(*w);
        if (h->bucket < b) {
          h = std::lower_bound(h, have.end(), b,
                               [](const MapBucket& x, uint32_t v) {
                                 return x.bucket < v;
                               });
        } else if (b < h->bucket) {
          w = std::lower_bound(w, buckets.end(), static_cast<int>(h->bucket));
        } else {
          take(*h++);
          ++w;
        }
      }
      if (bytes == 0) continue;
      // Per-output serving mode: §5's memory-based-shuffle knob resolved at
      // map launch (globally true for the Hadoop profile, per-node true when
      // the map node's memory budget had no room for the buckets).
      if (mo.on_disk) {
        // The serving side reads its spilled map output from disk (one seek
        // per map output consulted), then ships it if remote.
        work_.disk_read_bytes += bytes;
        work_.disk_seeks += 1;
        deferred_charges_.push_back(DeferredCharge{
            DeferredCharge::Kind::kNetIfRemote, bytes, mo.node, {}});
      } else {
        deferred_charges_.push_back(DeferredCharge{
            DeferredCharge::Kind::kMemOrNet, bytes, mo.node, {}});
      }
    }
    return out;
  }

  // -- Broadcasts -----------------------------------------------------------

  /// Fetches a broadcast value. The one-time per-node transfer cannot be
  /// charged here (the node is unknown and the paid-set is shared state);
  /// the fetch is recorded and the scheduler charges it at launch.
  BlockData FetchBroadcast(int id) {
    broadcast_fetches_.push_back(id);
    return broadcasts_->data(id);
  }

  // -- DFS locality ---------------------------------------------------------

  /// Charges `bytes` as a network read unless the task lands on one of
  /// `replicas` (resolved at launch).
  void ChargeNetUnlessLocal(const std::vector<int>& replicas, uint64_t bytes) {
    deferred_charges_.push_back(DeferredCharge{
        DeferredCharge::Kind::kNetIfNoReplica, bytes, -1, replicas});
  }

  // -- Scheduler take-out ---------------------------------------------------

  std::vector<DeferredCharge> TakeDeferredCharges() {
    return std::move(deferred_charges_);
  }
  std::vector<int> TakeBroadcastFetches() {
    return std::move(broadcast_fetches_);
  }
  std::vector<CacheOp> TakeCacheLog() { return std::move(cache_log_); }
  std::map<int, CacheCounters> TakeCacheCounters() {
    return std::move(cache_counters_);
  }
  std::vector<MemOp> TakeMemLog() { return std::move(mem_log_); }

 private:
  /// Shared degradation path: charge the external-algorithm I/O for a
  /// `bytes`-sized working set that failed to reserve. Both shapes write the
  /// whole working set to local disk and read it back once; grace hash pays
  /// a rebuild over the spilled entries, external sort a merge pass.
  uint32_t SpillWorkingSet(uint64_t bytes, uint64_t records, bool sort_merge) {
    // Size spill runs by the task budget, not just the instantaneous
    // headroom: when an earlier structure already pinned the whole budget,
    // headroom approaches zero and per-headroom runs would degenerate to one
    // partition (and one charged seek) per byte. Real grace-hash/external
    // sort re-uses the operator's memory between runs, so a quarter-budget
    // floor keeps the run count proportional to bytes/budget.
    uint64_t headroom = mem_budget_ > mem_reserved_ ? mem_budget_ - mem_reserved_ : 0;
    uint64_t slice = std::max<uint64_t>(std::max(headroom, mem_budget_ / 4), 1);
    uint64_t parts64 = (bytes + slice - 1) / slice;
    uint32_t parts = static_cast<uint32_t>(
        std::min<uint64_t>(std::max<uint64_t>(parts64, 2), 1u << 20));
    work_.ser_bytes += bytes;
    work_.disk_write_bytes += bytes;
    work_.disk_read_bytes += bytes;
    work_.binary_deser_bytes += bytes;
    work_.disk_seeks += parts;
    if (sort_merge) {
      work_.rows_processed += records;
    } else {
      work_.hash_records += records;
    }
    spill_bytes_ += bytes;
    spill_partitions_ += parts;
    mem_log_.push_back(MemOp{MemOp::Kind::kSpill, bytes, false, parts});
    // One in-memory partition/run stays resident at a time (the operator's
    // ReleaseAll returns it); it can only occupy the headroom that is
    // actually left, even when the runs themselves are sized larger.
    uint64_t resident = std::min(bytes, headroom);
    if (resident > 0) GrowWorkingSet(resident);
    return parts;
  }
  int partition_;
  const EngineProfile* profile_;
  const BlockManager* block_manager_;
  const ShuffleManager* shuffle_manager_;
  const BroadcastRegistry* broadcasts_;
  double virtual_scale_;
  uint64_t rng_seed_;
  uint64_t mem_budget_;
  uint64_t mem_reserved_ = 0;
  uint64_t spill_bytes_ = 0;
  uint32_t spill_partitions_ = 0;
  std::vector<MemOp> mem_log_;
  std::optional<Random> rng_;
  TaskWork work_;
  std::vector<std::pair<int, int>> missing_inputs_;
  std::vector<DeferredCharge> deferred_charges_;
  std::vector<int> broadcast_fetches_;
  std::vector<CacheOp> cache_log_;
  std::map<int, CacheCounters> cache_counters_;  // per rdd id
  std::map<BlockKey, std::pair<BlockData, uint64_t>> overlay_;
};

}  // namespace shark

#endif  // SHARK_RDD_TASK_CONTEXT_H_
