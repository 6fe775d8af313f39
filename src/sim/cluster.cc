#include "sim/cluster.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace shark {

Cluster::Cluster(int num_nodes, int cores_per_node)
    : cores_per_node_(cores_per_node) {
  SHARK_CHECK(num_nodes > 0 && cores_per_node > 0);
  nodes_.resize(static_cast<size_t>(num_nodes));
  for (auto& n : nodes_) {
    n.core_free_at.assign(static_cast<size_t>(cores_per_node), 0.0);
  }
  while (leaves_ < static_cast<size_t>(total_cores())) leaves_ *= 2;
  free_tree_.assign(2 * leaves_, std::numeric_limits<double>::infinity());
  for (int ni = 0; ni < num_nodes; ++ni) IndexNode(ni);
}

void Cluster::IndexCore(int node, int core) {
  const NodeState& n = nodes_[static_cast<size_t>(node)];
  size_t i = leaves_ +
             static_cast<size_t>(node) * static_cast<size_t>(cores_per_node_) +
             static_cast<size_t>(core);
  free_tree_[i] = n.alive ? n.core_free_at[static_cast<size_t>(core)]
                          : std::numeric_limits<double>::infinity();
  for (i /= 2; i >= 1; i /= 2) {
    free_tree_[i] = std::min(free_tree_[2 * i], free_tree_[2 * i + 1]);
  }
}

void Cluster::IndexNode(int node) {
  for (int ci = 0; ci < cores_per_node_; ++ci) IndexCore(node, ci);
}

void Cluster::InjectFault(const FaultEvent& event) {
  // Sorted insert after any already-pending event with the same time, so
  // same-time faults apply in injection order (upper_bound keeps the new
  // event behind its equal-time predecessors). O(n) per insert instead of
  // the previous sort-per-insert, and stable by construction.
  auto it = std::upper_bound(pending_faults_.begin(), pending_faults_.end(),
                             event,
                             [](const FaultEvent& a, const FaultEvent& b) {
                               return a.time < b.time;
                             });
  pending_faults_.insert(it, event);
}

std::vector<int> Cluster::ApplyFaultsUpTo(double now) {
  std::vector<int> killed;
  size_t applied = 0;
  for (const FaultEvent& e : pending_faults_) {
    if (e.time > now) break;
    ++applied;
    auto& n = nodes_[static_cast<size_t>(e.node)];
    switch (e.kind) {
      case FaultEvent::Kind::kKill:
        if (n.alive) {
          n.alive = false;
          killed.push_back(e.node);
          IndexNode(e.node);
        }
        break;
      case FaultEvent::Kind::kSlowdown:
        n.slowdown = e.slowdown_factor;
        break;
      case FaultEvent::Kind::kRecover:
        n.alive = true;
        n.slowdown = 1.0;
        // A recovered node rejoins with free cores from now on.
        for (double& t : n.core_free_at) t = std::max(t, e.time);
        IndexNode(e.node);
        break;
    }
  }
  pending_faults_.erase(pending_faults_.begin(),
                        pending_faults_.begin() + static_cast<long>(applied));
  return killed;
}

bool Cluster::EarliestFreeCore(double now, double* when, int* node,
                               int* core) const {
  // Every alive core free by `at` ties at `at`; the leftmost such leaf is
  // the lowest (node, core).
  const double at = std::max(now, free_tree_[1]);
  if (at == std::numeric_limits<double>::infinity()) return false;
  size_t i = 1;
  while (i < leaves_) i = free_tree_[2 * i] <= at ? 2 * i : 2 * i + 1;
  const auto g = static_cast<int>(i - leaves_);
  *when = at;
  *node = g / cores_per_node_;
  *core = g % cores_per_node_;
  return true;
}

double Cluster::EarliestFreeCoreOnNode(int node, int* core) const {
  const NodeState& n = nodes_[static_cast<size_t>(node)];
  SHARK_CHECK(n.alive);
  double best = std::numeric_limits<double>::infinity();
  int best_core = 0;
  for (int ci = 0; ci < cores_per_node_; ++ci) {
    double t = n.core_free_at[static_cast<size_t>(ci)];
    if (t < best) {
      best = t;
      best_core = ci;
    }
  }
  *core = best_core;
  return best;
}

void Cluster::OccupyCore(int node, int core, double until) {
  auto& n = nodes_[static_cast<size_t>(node)];
  n.core_free_at[static_cast<size_t>(core)] = until;
  IndexCore(node, core);
}

void Cluster::Reset() {
  pending_faults_.clear();
  for (auto& n : nodes_) {
    n.alive = true;
    n.slowdown = 1.0;
    std::fill(n.core_free_at.begin(), n.core_free_at.end(), 0.0);
  }
  for (int ni = 0; ni < num_nodes(); ++ni) IndexNode(ni);
}

int Cluster::BusyCores(int node, double now) const {
  const NodeState& n = nodes_[static_cast<size_t>(node)];
  int busy = 0;
  for (double t : n.core_free_at) busy += t > now ? 1 : 0;
  return busy;
}

int Cluster::AliveNodes() const {
  int count = 0;
  for (const auto& n : nodes_) count += n.alive ? 1 : 0;
  return count;
}

}  // namespace shark
