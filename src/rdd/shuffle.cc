#include "rdd/shuffle.h"

#include "common/logging.h"
#include "common/size_encoding.h"
#include "mem/memory_manager.h"

namespace shark {

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
  // Fold this task's sizes into the master's statistics. Sizes pass through
  // the lossy 1-byte log encoding (§3.1), so the optimizer sees what a real
  // Shark master would see. A re-execution after failure does not double
  // count.
  if (!recorded) {
    for (size_t b = 0; b < output.bucket_bytes.size(); ++b) {
      uint64_t approx = SizeEncoding::Decode(SizeEncoding::Encode(output.bucket_bytes[b]));
      state.stats.bucket_bytes[b] += approx;
      state.stats.total_bytes += approx;
      state.stats.bucket_records[b] += output.bucket_records[b];
      state.stats.total_records += output.bucket_records[b];
    }
    state.stats_recorded[static_cast<size_t>(map_partition)] = 1;
  }
  // Memory-served outputs occupy the node's shuffle-buffer share of the
  // memory budget while resident; disk-served outputs occupy none. A slot
  // being replaced (e.g. recomputed on a new node) gives its bytes back
  // first.
  ReleaseLedger(&slot);
  output.present = true;
  output.nonempty.assign((output.bucket_bytes.size() + 63) / 64, 0);
  for (size_t b = 0; b < output.bucket_bytes.size(); ++b) {
    if (output.bucket_bytes[b] != 0 || output.bucket_records[b] != 0) {
      output.nonempty[b / 64] |= uint64_t{1} << (b % 64);
    }
  }
  if (!output.on_disk && memory_manager_ != nullptr) {
    uint64_t total = 0;
    for (uint64_t b : output.bucket_bytes) total += b;
    output.ledger_bytes = total;
    memory_manager_->AddShuffleBytes(output.node, total);
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
