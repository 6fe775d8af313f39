#ifndef SHARK_SIM_CLUSTER_H_
#define SHARK_SIM_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sim/cost_model.h"

namespace shark {

/// State of one simulated worker node.
struct NodeState {
  bool alive = true;
  /// Multiplier on task durations; >1 models a straggler node.
  double slowdown = 1.0;
  /// Virtual time at which each core becomes free.
  std::vector<double> core_free_at;
};

/// A scheduled node failure (the Fig 9 experiment) or slowdown injection.
struct FaultEvent {
  enum class Kind { kKill, kSlowdown, kRecover };
  Kind kind = Kind::kKill;
  double time = 0.0;
  int node = 0;
  double slowdown_factor = 1.0;  // for kSlowdown
};

/// Virtual-time model of the cluster: N nodes x C cores, with fault
/// injection. The DAG scheduler drives this; the cluster only tracks node and
/// core availability in virtual time. All times are seconds of virtual time
/// since the context was created.
class Cluster {
 public:
  Cluster(int num_nodes, int cores_per_node);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int cores_per_node() const { return cores_per_node_; }
  int total_cores() const { return num_nodes() * cores_per_node_; }

  const NodeState& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  bool alive(int id) const { return nodes_[static_cast<size_t>(id)].alive; }
  double slowdown(int id) const { return nodes_[static_cast<size_t>(id)].slowdown; }

  /// Schedules a fault to be applied when virtual time reaches `event.time`.
  void InjectFault(const FaultEvent& event);

  /// Applies all faults with time <= now; returns ids of nodes newly killed.
  std::vector<int> ApplyFaultsUpTo(double now);

  /// Earliest time >= now at which some core on an alive node is free; of
  /// the cores free then, the lowest node, then the lowest core. Returns
  /// false if no node is alive. O(log total_cores).
  bool EarliestFreeCore(double now, double* when, int* node, int* core) const;

  /// Earliest free core on a specific node (must be alive).
  double EarliestFreeCoreOnNode(int node, int* core) const;

  /// Marks a core busy until `until`.
  void OccupyCore(int node, int core, double until);

  /// Resets all core availability to time 0 and revives all nodes. Used
  /// between independent experiments sharing a context.
  void Reset();

  /// Number of alive nodes.
  int AliveNodes() const;

  /// Cores on `node` still occupied at virtual time `now` (core_free_at in
  /// the strict future). Alive-ness is the caller's concern.
  int BusyCores(int node, double now) const;

 private:
  /// Rewrites the free-core index entries of `node`'s cores.
  void IndexNode(int node);
  void IndexCore(int node, int core);

  int cores_per_node_;
  std::vector<NodeState> nodes_;
  std::vector<FaultEvent> pending_faults_;  // sorted by time
  // Free-core index: a min-tree over every core in (node, core) order. Leaf
  // leaves_ + node * cores_per_node_ + core holds the core's free time
  // (+inf while its node is dead, and on padding leaves); each inner entry i
  // is the min of entries 2i and 2i + 1, so entry 1 is the earliest.
  size_t leaves_ = 1;
  std::vector<double> free_tree_;
};

}  // namespace shark

#endif  // SHARK_SIM_CLUSTER_H_
