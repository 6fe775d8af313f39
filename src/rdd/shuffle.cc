#include "rdd/shuffle.h"

#include <algorithm>

#include "common/logging.h"
#include "common/size_encoding.h"
#include "mem/memory_manager.h"

namespace shark {

void MapBucket::SetBytes(uint64_t b) {
  bytes = b;
  size_code = SizeEncoding::Encode(b);
}

uint64_t MapOutput::records() const {
  uint64_t total = 0;
  for (const MapBucket& b : buckets) total += b.records();
  return total;
}

uint64_t MapOutput::bytes() const {
  uint64_t total = 0;
  for (const MapBucket& b : buckets) total += b.bytes;
  return total;
}

std::vector<MapBucket> OrderByBucket(const std::vector<uint32_t>& bucket_of,
                                     uint32_t num_buckets,
                                     std::vector<uint32_t>* order) {
  const size_t n = bucket_of.size();
  SHARK_CHECK(n <= UINT32_MAX);
  order->resize(n);
  std::vector<MapBucket> runs;
  // Counting sort over the buckets.
  std::vector<uint32_t> next(num_buckets, 0);  // sizes, then fill positions
  size_t non_empty = 0;
  for (uint32_t b : bucket_of) non_empty += next[b]++ == 0 ? 1 : 0;
  runs.reserve(non_empty);
  uint32_t start = 0;
  for (uint32_t b = 0; b < num_buckets; ++b) {
    const uint32_t size = next[b];
    if (size > 0) runs.push_back(MapBucket{b, start, start + size, 0, 0});
    next[b] = start;
    start += size;
  }
  for (size_t i = 0; i < n; ++i) {
    (*order)[next[bucket_of[i]]++] = static_cast<uint32_t>(i);
  }
  return runs;
}

int ShuffleManager::RegisterShuffle(int num_map_partitions, int num_buckets) {
  SHARK_CHECK(num_map_partitions > 0 && num_buckets > 0);
  int id = next_id_++;
  ShuffleState state;
  state.num_buckets = num_buckets;
  state.outputs.resize(static_cast<size_t>(num_map_partitions));
  state.stats_recorded.assign(static_cast<size_t>(num_map_partitions), 0);
  state.stats.bucket_bytes.assign(static_cast<size_t>(num_buckets), 0);
  state.stats.bucket_records.assign(static_cast<size_t>(num_buckets), 0);
  shuffles_.emplace(id, std::move(state));
  return id;
}

bool ShuffleManager::IsRegistered(int shuffle_id) const {
  return shuffles_.count(shuffle_id) > 0;
}

const ShuffleManager::ShuffleState& ShuffleManager::GetState(
    int shuffle_id) const {
  auto it = shuffles_.find(shuffle_id);
  SHARK_CHECK(it != shuffles_.end());
  return it->second;
}

int ShuffleManager::NumBuckets(int shuffle_id) const {
  return GetState(shuffle_id).num_buckets;
}

int ShuffleManager::NumMapPartitions(int shuffle_id) const {
  return static_cast<int>(GetState(shuffle_id).outputs.size());
}

void ShuffleManager::PutMapOutput(int shuffle_id, int map_partition,
                                  MapOutput output) {
  auto it = shuffles_.find(shuffle_id);
  SHARK_CHECK(it != shuffles_.end());
  ShuffleState& state = it->second;
  auto& slot = state.outputs[static_cast<size_t>(map_partition)];
  bool recorded = state.stats_recorded[static_cast<size_t>(map_partition)] != 0;
  // Fold this task's sizes into the master's statistics. The task reported
  // each bucket's size as its lossy 1-byte log code (§3.1), so the optimizer
  // sees what a real Shark master would see. A re-execution after failure
  // does not double count.
  for (size_t i = 0; i < output.buckets.size(); ++i) {
    const MapBucket& b = output.buckets[i];
    SHARK_CHECK(b.begin < b.end &&
                static_cast<int>(b.bucket) < state.num_buckets &&
                (i == 0 || output.buckets[i - 1].bucket < b.bucket));
  }
  if (!recorded) {
    for (const MapBucket& b : output.buckets) {
      const uint64_t approx = SizeEncoding::Decode(b.size_code);
      state.stats.bucket_bytes[b.bucket] += approx;
      state.stats.total_bytes += approx;
      state.stats.bucket_records[b.bucket] += b.records();
      state.stats.total_records += b.records();
    }
    state.stats_recorded[static_cast<size_t>(map_partition)] = 1;
  }
  // Memory-served outputs occupy the node's shuffle-buffer share of the
  // memory budget while resident; disk-served outputs occupy none. A slot
  // being replaced (e.g. recomputed on a new node) gives its bytes back
  // first.
  ReleaseLedger(&slot);
  output.present = true;
  if (!output.on_disk && memory_manager_ != nullptr) {
    output.ledger_bytes = output.bytes();
    memory_manager_->AddShuffleBytes(output.node, output.ledger_bytes);
  } else {
    output.ledger_bytes = 0;
  }
  slot = std::move(output);
}

void ShuffleManager::ReleaseLedger(MapOutput* out) {
  if (out->ledger_bytes > 0 && memory_manager_ != nullptr && out->node >= 0) {
    memory_manager_->ReleaseShuffleBytes(out->node, out->ledger_bytes);
  }
  out->ledger_bytes = 0;
}

const MapOutput* ShuffleManager::GetMapOutput(int shuffle_id,
                                              int map_partition) const {
  const ShuffleState& state = GetState(shuffle_id);
  const MapOutput& out = state.outputs[static_cast<size_t>(map_partition)];
  // An output lost to a node death (DropNode leaves node >= 0 but clears
  // present and the buckets) must read as absent, not as an empty output —
  // otherwise a reduce-side fetch would silently consume cleared buckets
  // instead of triggering lineage recomputation.
  if (!out.present) return nullptr;
  return &out;
}

bool ShuffleManager::IsComplete(int shuffle_id) const {
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end()) return false;
  for (const auto& out : it->second.outputs) {
    if (!out.present) return false;
  }
  return true;
}

std::vector<int> ShuffleManager::MissingMapPartitions(int shuffle_id) const {
  const ShuffleState& state = GetState(shuffle_id);
  std::vector<int> missing;
  for (size_t i = 0; i < state.outputs.size(); ++i) {
    if (!state.outputs[i].present) missing.push_back(static_cast<int>(i));
  }
  return missing;
}

const ShuffleStats& ShuffleManager::Stats(int shuffle_id) const {
  return GetState(shuffle_id).stats;
}

void ShuffleManager::DropNode(int node) {
  for (auto& [id, state] : shuffles_) {
    for (auto& out : state.outputs) {
      if (out.present && out.node == node) {
        ReleaseLedger(&out);
        out.present = false;
        out.batch = nullptr;
        out.buckets.clear();
      }
    }
  }
}

void ShuffleManager::DropShuffle(int shuffle_id) {
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end()) return;
  for (auto& out : it->second.outputs) ReleaseLedger(&out);
  shuffles_.erase(it);
}

}  // namespace shark
