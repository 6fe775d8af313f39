#ifndef SHARK_RDD_PAIR_RDD_H_
#define SHARK_RDD_PAIR_RDD_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cardinality.h"
#include "rdd/rdd.h"

namespace shark {

// ---------------------------------------------------------------------------
// Map-side shuffle dependencies
// ---------------------------------------------------------------------------

namespace internal_shuffle {

/// Charges the engine-profile-dependent cost of materializing map output
/// (§5 "Memory-based Shuffle": Shark keeps map outputs in memory; Hadoop
/// serializes, sorts and writes them to local disk).
inline void ChargeMapOutputWrite(uint64_t bytes, uint64_t records,
                                 uint64_t input_records, TaskContext* tctx) {
  if (tctx->profile().sort_before_shuffle) {
    tctx->work().sort_records +=
        tctx->profile().sort_full_map_input ? input_records : records;
  }
  if (tctx->profile().shuffle_through_disk) {
    tctx->work().ser_bytes += bytes;
    tctx->work().disk_write_bytes += bytes;
  }
}

/// MapReduce job chains materialize every reduce output to the replicated
/// DFS and read it back in the next job's map phase (§7 "Intermediate
/// Outputs"); general-DAG engines skip this entirely.
inline void ChargeStageMaterialization(uint64_t bytes, TaskContext* tctx) {
  if (!tctx->profile().materialize_stages_to_dfs || bytes == 0) return;
  tctx->work().ser_bytes += bytes;
  tctx->work().dfs_write_bytes += bytes;
  tctx->work().disk_read_bytes += bytes;
  tctx->work().binary_deser_bytes += bytes;
}

/// The charges every hash-combining map task makes before it ships its
/// groups: `record_hashes` is the key hash of every input record in input
/// order, `distinct` the number of groups. Charges the combine's hashing and
/// returns the factor each bucket's bytes are pre-multiplied by. The
/// combiner's output is bounded by the distinct keys the task sees. Fixed key
/// populations saturate (shuffle volume stays flat at virtual scale); growing
/// populations (unique-id-like keys) keep scaling. The split-overlap
/// statistics distinguish the two, and the factor pre-divides the reported
/// bytes so the cost model's uniform scaling yields faithful volumes.
inline double ChargeCombine(const std::vector<uint64_t>& record_hashes,
                            uint64_t distinct, TaskContext* tctx) {
  const uint64_t n = record_hashes.size();
  tctx->work().rows_processed += n;
  tctx->work().hash_records += n;
  SampleCardinality sample;
  sample.n = static_cast<double>(n);
  sample.d = static_cast<double>(distinct);
  CountSplitHalves(record_hashes, &sample);
  double growth = DistinctGrowthFactorSplit(sample, tctx->virtual_scale());
  return growth / std::max(tctx->virtual_scale(), 1.0);
}

/// The charges after a combining map task has bucketed its groups. The
/// combine table held one (key, combiner) pair per distinct key, `raw_bytes`
/// in all; when it exceeds the task's budget the combiner degrades to
/// grace-hash partitioning (spill I/O charged by the context). `out_bytes` is
/// the sum of the adjusted bucket bytes.
inline void ChargeCombineOutput(uint64_t raw_bytes, uint64_t out_bytes,
                                uint64_t distinct, uint64_t input_records,
                                TaskContext* tctx) {
  tctx->ReserveOrSpillHash(raw_bytes, distinct);
  tctx->ReleaseAllWorkingSet();
  ChargeMapOutputWrite(out_bytes, distinct, input_records, tctx);
}

}  // namespace internal_shuffle

/// Hash-partitions elements into buckets with a caller-supplied bucket
/// function; no map-side combining. Used for DISTRIBUTE BY, co-partitioned
/// loading, co-group (join) inputs and PDE pre-shuffles.
template <typename T>
class PlainShuffleDep final : public ShuffleDependency {
 public:
  using BucketFn = std::function<int(const T&)>;

  PlainShuffleDep(RddPtr<T> parent, int num_buckets, BucketFn bucket_fn)
      : ShuffleDependency(parent, num_buckets),
        bucket_fn_(std::move(bucket_fn)) {}

  MapOutput PartitionBlock(const BlockData& block,
                           TaskContext* tctx) const override {
    const auto& in = *std::static_pointer_cast<const std::vector<T>>(block);
    std::vector<uint32_t> bucket_of(in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      bucket_of[i] = static_cast<uint32_t>(bucket_fn_(in[i]));
    }
    std::vector<uint32_t> order;
    MapOutput out;
    out.buckets = OrderByBucket(bucket_of,
                                static_cast<uint32_t>(num_buckets_), &order);
    auto batch = std::make_shared<std::vector<T>>();
    batch->reserve(in.size());
    for (uint32_t i : order) batch->push_back(in[i]);
    out.on_disk = tctx->profile().shuffle_through_disk;
    uint64_t total_bytes = 0;
    for (MapBucket& run : out.buckets) {
      // Plain repartitioning scales linearly with the input: no adjustment.
      run.SetBytes(ApproxSizeOfRange(
          std::span<const T>(batch->data() + run.begin, run.records())));
      total_bytes += run.bytes;
    }
    out.batch = std::move(batch);
    tctx->work().rows_processed += in.size();
    internal_shuffle::ChargeMapOutputWrite(total_bytes, in.size(), in.size(),
                                           tctx);
    return out;
  }

 private:
  BucketFn bucket_fn_;
};

/// Convenience: hash-partition a key-value RDD by key.
template <typename K, typename V>
std::shared_ptr<PlainShuffleDep<std::pair<K, V>>> MakeHashPartitionDep(
    RddPtr<std::pair<K, V>> parent, int num_buckets) {
  using P = std::pair<K, V>;
  return std::make_shared<PlainShuffleDep<P>>(
      parent, num_buckets, [num_buckets](const P& p) {
        return static_cast<int>(KeyHash(p.first) %
                                static_cast<uint64_t>(num_buckets));
      });
}

/// Hash-partitions (K,V) pairs by key with map-side combining into combiner
/// type C (Spark's combineByKey); this is what makes large-group-count
/// aggregations shuffle only one record per (task, group).
template <typename K, typename V, typename C>
class CombiningShuffleDep final : public ShuffleDependency {
 public:
  using CreateFn = std::function<C(const V&)>;
  using MergeValueFn = std::function<void(C&, const V&)>;

  CombiningShuffleDep(RddPtr<std::pair<K, V>> parent, int num_buckets,
                      CreateFn create, MergeValueFn merge_value)
      : ShuffleDependency(parent, num_buckets),
        create_(std::move(create)),
        merge_value_(std::move(merge_value)) {}

  MapOutput PartitionBlock(const BlockData& block,
                           TaskContext* tctx) const override {
    const auto& in =
        *std::static_pointer_cast<const std::vector<std::pair<K, V>>>(block);
    // Combine across the whole task first, THEN split into buckets: the map
    // task ships at most one record per distinct key regardless of how
    // fine-grained the bucket count is. Groups are emitted in first-seen
    // order.
    std::vector<std::pair<K, C>> groups;
    std::vector<uint64_t> group_hashes;
    std::vector<uint64_t> record_hashes;
    record_hashes.reserve(in.size());
    std::unordered_map<K, size_t, KeyHasher<K>> index;
    for (const auto& [k, v] : in) {
      const uint64_t h = KeyHash(k);
      record_hashes.push_back(h);
      auto [it, fresh] = index.try_emplace(k, groups.size());
      if (fresh) {
        groups.emplace_back(k, create_(v));
        group_hashes.push_back(h);
      } else {
        merge_value_(groups[it->second].second, v);
      }
    }
    const uint64_t distinct = groups.size();
    const double byte_adjust =
        internal_shuffle::ChargeCombine(record_hashes, distinct, tctx);
    // Bucket by key hash; each bucket keeps first-seen order.
    std::vector<uint32_t> bucket_of(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      bucket_of[g] = static_cast<uint32_t>(
          group_hashes[g] % static_cast<uint64_t>(num_buckets_));
    }
    std::vector<uint32_t> order;
    MapOutput out;
    out.buckets = OrderByBucket(bucket_of,
                                static_cast<uint32_t>(num_buckets_), &order);
    auto batch = std::make_shared<std::vector<std::pair<K, C>>>();
    batch->reserve(groups.size());
    for (uint32_t g : order) batch->push_back(std::move(groups[g]));
    out.on_disk = tctx->profile().shuffle_through_disk;
    out.cost_scale = byte_adjust;
    uint64_t out_bytes = 0;
    uint64_t raw_bytes = 0;  // resident combine-table size, unadjusted
    for (MapBucket& run : out.buckets) {
      const uint64_t bytes = ApproxSizeOfRange(std::span<const std::pair<K, C>>(
          batch->data() + run.begin, run.records()));
      raw_bytes += bytes;
      run.SetBytes(
          static_cast<uint64_t>(static_cast<double>(bytes) * byte_adjust));
      out_bytes += run.bytes;
    }
    out.batch = std::move(batch);
    internal_shuffle::ChargeCombineOutput(raw_bytes, out_bytes, distinct,
                                          in.size(), tctx);
    return out;
  }

 private:
  CreateFn create_;
  MergeValueFn merge_value_;
};

// ---------------------------------------------------------------------------
// Reduce-side RDDs
// ---------------------------------------------------------------------------

/// Reduce partition -> set of fine-grained buckets it is responsible for.
/// Identity (one bucket per reducer) unless PDE coalesced buckets via
/// bin-packing (§3.1.2). Each list is strictly ascending (the order
/// FetchShuffleBuckets requires).
using BucketAssignment = std::vector<std::vector<int>>;

inline BucketAssignment IdentityAssignment(int num_buckets) {
  BucketAssignment a(static_cast<size_t>(num_buckets));
  for (int i = 0; i < num_buckets; ++i) a[static_cast<size_t>(i)] = {i};
  return a;
}

/// The one ordering rule of the reduce-side RDDs: one output record per key,
/// keys in first-seen (fetch) order. Maps a key to its record's index in
/// `out`, whose elements carry the key as `.first`; a key seen for the first
/// time gets the record `make()` appended. Indexed by key hash, so a key is
/// copied only into its record.
template <typename Out>
class FirstSeenIndex {
 public:
  explicit FirstSeenIndex(std::vector<Out>* out) : out_(out) {}

  /// The index of k's record and whether it was just appended.
  template <typename K, typename Make>
  std::pair<size_t, bool> FindOrAppend(const K& k, Make make) {
    const uint64_t h = KeyHash(k);
    auto [lo, hi] = index_.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if ((*out_)[it->second].first == k) return {it->second, false};
    }
    index_.emplace(h, out_->size());
    out_->push_back(make());
    return {out_->size() - 1, true};
  }

 private:
  std::vector<Out>* out_;
  std::unordered_multimap<uint64_t, size_t> index_;
};

/// Final merge of map-side combiners: one output record per key.
template <typename K, typename C>
class ShuffledReduceRdd final : public TypedRdd<std::pair<K, C>> {
 public:
  using MergeCombinersFn = std::function<void(C&, const C&)>;

  ShuffledReduceRdd(ClusterContext* ctx,
                    std::shared_ptr<ShuffleDependency> dep,
                    MergeCombinersFn merge, BucketAssignment assignment,
                    std::string label = "shuffledReduce")
      : TypedRdd<std::pair<K, C>>(ctx, std::move(label)),
        dep_(dep),
        merge_(std::move(merge)),
        assignment_(std::move(assignment)) {
    this->deps_.push_back(Dependency{nullptr, dep});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  typename TypedRdd<std::pair<K, C>>::Block Compute(
      int p, TaskContext* tctx) const override {
    double effective_records = 0.0;
    std::vector<ShuffleSlice> slices = tctx->FetchShuffleBuckets(
        dep_->shuffle_id(), assignment_[static_cast<size_t>(p)],
        &effective_records);
    // Keys in first-seen (fetch) order with their merged combiners: the
    // first sighting of a key is copied once, later ones are merged in place.
    typename TypedRdd<std::pair<K, C>>::Block out;
    FirstSeenIndex index(&out);
    uint64_t records_in = 0;
    // Per-record reduce charges use the cardinality-adjusted record count so
    // that the cost model's uniform scaling stays faithful.
    tctx->work().hash_records += static_cast<uint64_t>(effective_records);
    tctx->work().rows_processed += static_cast<uint64_t>(effective_records);
    for (const ShuffleSlice& s : slices) {
      const auto records = s.Records<std::pair<K, C>>();
      records_in += records.size();
      for (const auto& kc : records) {
        auto [i, fresh] = index.FindOrAppend(kc.first, [&] { return kc; });
        if (!fresh) merge_(out[i].second, kc.second);
      }
    }
    // The merge table and the reduce output hold one record per key —
    // cardinality-bounded, so both get the same distinct-growth adjustment
    // as the map-side combiner outputs.
    double adjust = DistinctGrowthFactor(static_cast<double>(records_in),
                                         static_cast<double>(out.size()),
                                         tctx->virtual_scale()) /
                    std::max(tctx->virtual_scale(), 1.0);
    const auto table_bytes = static_cast<uint64_t>(
        static_cast<double>(ApproxSizeOfRange(out)) * adjust);
    // External hash aggregation: past the task's budget the merge table
    // degrades to grace-hash partitions on local disk merged one at a time.
    tctx->ReserveOrSpillHash(table_bytes,
                             static_cast<uint64_t>(effective_records));
    tctx->ReleaseAllWorkingSet();
    internal_shuffle::ChargeStageMaterialization(table_bytes, tctx);
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> dep_;
  MergeCombinersFn merge_;
  BucketAssignment assignment_;
};

/// Group-by-key: one (key, all values) record per key, keys in first-seen
/// order.
template <typename K, typename V>
class ShuffledGroupRdd final
    : public TypedRdd<std::pair<K, std::vector<V>>> {
 public:
  ShuffledGroupRdd(ClusterContext* ctx, std::shared_ptr<ShuffleDependency> dep,
                   BucketAssignment assignment, std::string label = "groupBy")
      : TypedRdd<std::pair<K, std::vector<V>>>(ctx, std::move(label)),
        dep_(dep),
        assignment_(std::move(assignment)) {
    this->deps_.push_back(Dependency{nullptr, dep});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  typename TypedRdd<std::pair<K, std::vector<V>>>::Block Compute(
      int p, TaskContext* tctx) const override {
    std::vector<ShuffleSlice> slices = tctx->FetchShuffleBuckets(
        dep_->shuffle_id(), assignment_[static_cast<size_t>(p)]);
    typename TypedRdd<std::pair<K, std::vector<V>>>::Block out;
    FirstSeenIndex index(&out);
    uint64_t records_in = 0;
    for (const ShuffleSlice& s : slices) {
      const auto records = s.Records<std::pair<K, V>>();
      tctx->work().hash_records += records.size();
      tctx->work().rows_processed += records.size();
      records_in += records.size();
      for (const auto& [k, v] : records) {
        auto make = [&] { return std::make_pair(k, std::vector<V>()); };
        out[index.FindOrAppend(k, make).first].second.push_back(v);
      }
    }
    // The group table holds every value; large groups degrade to grace-hash
    // spill partitions past the task's budget.
    tctx->ReserveOrSpillHash(ApproxSizeOfRange(out), records_in);
    tctx->ReleaseAllWorkingSet();
    internal_shuffle::ChargeStageMaterialization(ApproxSizeOfRange(out), tctx);
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> dep_;
  BucketAssignment assignment_;
};

/// Shuffle (co-group) join input: for each key, the values from both sides.
/// Keys in first-seen order: the left buckets in fetch order, then keys seen
/// only on the right; each side's values in fetch order.
template <typename K, typename V, typename W>
class CoGroupedRdd final
    : public TypedRdd<std::pair<K, std::pair<std::vector<V>, std::vector<W>>>> {
 public:
  using Element = std::pair<K, std::pair<std::vector<V>, std::vector<W>>>;

  CoGroupedRdd(ClusterContext* ctx, std::shared_ptr<ShuffleDependency> left,
               std::shared_ptr<ShuffleDependency> right,
               BucketAssignment assignment, std::string label = "cogroup")
      : TypedRdd<Element>(ctx, std::move(label)),
        left_(left),
        right_(right),
        assignment_(std::move(assignment)) {
    SHARK_CHECK(left->num_buckets() == right->num_buckets());
    this->deps_.push_back(Dependency{nullptr, left});
    this->deps_.push_back(Dependency{nullptr, right});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  typename TypedRdd<Element>::Block Compute(int p,
                                            TaskContext* tctx) const override {
    const auto& my_buckets = assignment_[static_cast<size_t>(p)];
    std::vector<ShuffleSlice> lbs =
        tctx->FetchShuffleBuckets(left_->shuffle_id(), my_buckets);
    std::vector<ShuffleSlice> rbs =
        tctx->FetchShuffleBuckets(right_->shuffle_id(), my_buckets);
    typename TypedRdd<Element>::Block out;
    FirstSeenIndex index(&out);
    auto group = [&](const K& k) -> auto& {
      return out[index.FindOrAppend(k, [&] { return Element(k, {}); }).first]
          .second;
    };
    uint64_t left_ws = 0, left_records = 0;
    for (const ShuffleSlice& s : lbs) {
      const auto records = s.Records<std::pair<K, V>>();
      tctx->work().hash_records += records.size();
      tctx->work().rows_processed += records.size();
      left_ws += ApproxSizeOfRange(records);
      left_records += records.size();
      for (const auto& [k, v] : records) group(k).first.push_back(v);
    }
    // Join build table: reserve the left side, then grow by the right side;
    // whichever extension overruns the task's budget degrades to grace-hash
    // spill partitions.
    tctx->ReserveOrSpillHash(left_ws, left_records);
    uint64_t right_ws = 0, right_records = 0;
    for (const ShuffleSlice& s : rbs) {
      const auto records = s.Records<std::pair<K, W>>();
      tctx->work().hash_records += records.size();
      tctx->work().rows_processed += records.size();
      right_ws += ApproxSizeOfRange(records);
      right_records += records.size();
      for (const auto& [k, w] : records) group(k).second.push_back(w);
    }
    tctx->GrowOrSpillHash(right_ws, right_records);
    tctx->ReleaseAllWorkingSet();
    internal_shuffle::ChargeStageMaterialization(ApproxSizeOfRange(out), tctx);
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> left_;
  std::shared_ptr<ShuffleDependency> right_;
  BucketAssignment assignment_;
};

/// Reduce side of a plain repartition: concatenates assigned buckets.
template <typename T>
class RepartitionedRdd final : public TypedRdd<T> {
 public:
  RepartitionedRdd(ClusterContext* ctx, std::shared_ptr<ShuffleDependency> dep,
                   BucketAssignment assignment, std::string label = "repartition")
      : TypedRdd<T>(ctx, std::move(label)),
        dep_(dep),
        assignment_(std::move(assignment)) {
    this->deps_.push_back(Dependency{nullptr, dep});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  typename TypedRdd<T>::Block Compute(int p, TaskContext* tctx) const override {
    typename TypedRdd<T>::Block out;
    for (const ShuffleSlice& s : tctx->FetchShuffleBuckets(
             dep_->shuffle_id(), assignment_[static_cast<size_t>(p)])) {
      const auto records = s.Records<T>();
      out.insert(out.end(), records.begin(), records.end());
    }
    tctx->work().rows_processed += out.size();
    internal_shuffle::ChargeStageMaterialization(ApproxSizeOfRange(out), tctx);
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> dep_;
  BucketAssignment assignment_;
};

// ---------------------------------------------------------------------------
// Convenience factories
// ---------------------------------------------------------------------------

/// reduceByKey with map-side combining; one shuffle, `num_buckets` reducers.
template <typename K, typename V, typename MergeFn>
RddPtr<std::pair<K, V>> ReduceByKey(RddPtr<std::pair<K, V>> rdd, MergeFn merge,
                                    int num_buckets) {
  auto merge_value = [merge](V& acc, const V& v) { acc = merge(acc, v); };
  auto dep = std::make_shared<CombiningShuffleDep<K, V, V>>(
      rdd, num_buckets, [](const V& v) { return v; }, merge_value);
  return std::make_shared<ShuffledReduceRdd<K, V>>(
      rdd->context(), dep,
      [merge](V& acc, const V& v) { acc = merge(acc, v); },
      IdentityAssignment(num_buckets), "reduceByKey");
}

/// groupByKey without combining.
template <typename K, typename V>
RddPtr<std::pair<K, std::vector<V>>> GroupByKey(RddPtr<std::pair<K, V>> rdd,
                                                int num_buckets) {
  auto dep = MakeHashPartitionDep<K, V>(rdd, num_buckets);
  return std::make_shared<ShuffledGroupRdd<K, V>>(
      rdd->context(), dep, IdentityAssignment(num_buckets));
}

/// Inner equi-join via co-group (the "shuffle join" of Fig 4).
template <typename K, typename V, typename W>
RddPtr<std::pair<K, std::pair<V, W>>> ShuffleJoin(RddPtr<std::pair<K, V>> left,
                                                  RddPtr<std::pair<K, W>> right,
                                                  int num_buckets) {
  auto ldep = MakeHashPartitionDep<K, V>(left, num_buckets);
  auto rdep = MakeHashPartitionDep<K, W>(right, num_buckets);
  auto cogrouped = std::make_shared<CoGroupedRdd<K, V, W>>(
      left->context(), ldep, rdep, IdentityAssignment(num_buckets), "shuffleJoin");
  using CoElem = typename CoGroupedRdd<K, V, W>::Element;
  using Out = std::pair<K, std::pair<V, W>>;
  return cogrouped->FlatMap(
      [](const CoElem& e) {
        std::vector<Out> out;
        for (const V& v : e.second.first) {
          for (const W& w : e.second.second) {
            out.push_back(Out{e.first, {v, w}});
          }
        }
        return out;
      },
      "joinOutput");
}

}  // namespace shark

#endif  // SHARK_RDD_PAIR_RDD_H_
