#ifndef SHARK_COMMON_TRACE_H_
#define SHARK_COMMON_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.h"

namespace shark {

/// Locality class of one task launch, decided when the scheduler picks the
/// (node, core) placement.
enum class TaskLocality : uint8_t {
  kPreferred,  // ran on one of its preferred nodes (cache / DFS replica)
  kRemote,     // had a preference but ran elsewhere
  kAny         // no locality preference
};

/// How one task attempt ended.
enum class TaskEnd : uint8_t {
  kCommitted,     // output accepted
  kSuperseded,    // finished after a duplicate already committed
  kNodeDeath,     // aborted when its node died
  kMissingInput,  // result discarded; re-run after lineage recovery
};

const char* TaskLocalityName(TaskLocality locality);
const char* TaskEndName(TaskEnd end);

/// Compact "key=value" rendering of the nonzero counters of a TaskWork.
std::string WorkSummary(const TaskWork& work);

/// One task attempt: the full virtual-time lifecycle (queue -> launch ->
/// run -> finish), its placement, and the cost-model work breakdown the
/// simulator charged it.
struct TaskTrace {
  int task = 0;       // index within the stage's task set
  int partition = 0;  // partition it computed
  int attempt = 0;    // prior retries at launch time
  bool speculative = false;
  int node = -1;
  int core = -1;
  double queue_time = 0.0;   // entered the pending queue
  double launch_time = 0.0;  // core assignment decision
  double run_start = 0.0;    // after heartbeat quantization
  double finish_time = 0.0;  // completion, or abort time for kNodeDeath
  TaskLocality locality = TaskLocality::kAny;
  TaskEnd end = TaskEnd::kCommitted;
  uint64_t rows_out = 0;
  TaskWork work;  // placement-resolved counters charged at launch
};

/// A map stage's per-bucket byte sizes as the master saw them through the
/// 1-byte log encoding — the PDE skew signal (§3.1).
struct BucketSummary {
  int buckets = 0;  // 0 for result stages
  uint64_t min_bytes = 0;
  uint64_t p50_bytes = 0;
  uint64_t p95_bytes = 0;
  uint64_t max_bytes = 0;
  uint64_t total_bytes = 0;
  double skew = 0.0;  // max / mean; 1.0 = perfectly even, 0 = empty
  int culprit = -1;   // index of the fattest bucket
};

BucketSummary SummarizeBuckets(const std::vector<uint64_t>& bytes);

/// Nearest-rank quantile of an ascending vector; T{} when empty.
template <typename T>
T SortedQuantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  double rank = q * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// One committed task attempt.
struct StageCommit {
  double duration = 0.0;  // run start to finish, virtual seconds
  int partition = 0;
  int node = -1;
};

/// What the master collects about one scheduler task set. The scheduler
/// fills one for every set, traced or not; the skew report, JobMetrics, the
/// speculation median and the query profile all read it.
struct StageRecord {
  std::string label;
  bool is_map_stage = false;
  int shuffle_id = -1;  // map stages only
  double start_time = 0.0;
  double end_time = 0.0;  // latest commit (start_time before the first)
  std::vector<StageCommit> commits{};  // every commit, in commit order
  int launched = 0;        // attempts, retries and duplicates included
  int speculative = 0;     // speculative duplicate launches
  int node_deaths = 0;     // attempts aborted when their node died
  int missing_inputs = 0;  // attempts re-run after lineage recovery
  // Committed attempts only.
  uint64_t rows_out = 0;
  uint64_t bytes_out = 0;
  uint64_t spill_bytes = 0;
  uint64_t spill_partitions = 0;
  int spilled_tasks = 0;
  int disk_served_outputs = 0;  // map outputs served from local disk
  TaskWork work{};  // every launched attempt (what the job was charged)
  BucketSummary shuffle{};  // map stages, computed when the set finalizes

  int committed() const { return static_cast<int>(commits.size()); }
  int failed() const { return node_deaths + missing_inputs; }
};

/// Block-cache traffic of one stage's committed tasks, per RDD.
struct CacheCounters {
  uint64_t hit_blocks = 0;
  uint64_t hit_bytes = 0;
  uint64_t miss_blocks = 0;
  uint64_t miss_bytes = 0;  // bytes recomputed because the cache missed
  void Add(const CacheCounters& other);
};

/// One scheduler task set as the query profile shows it: a map stage, a
/// result stage, or a lineage recovery sub-stage (nested under the stage
/// whose task hit the loss). The record is the stage's; tracing adds the
/// nesting, every attempt, the event lines and per-RDD cache traffic.
struct StageTrace : StageRecord {
  int id = -1;
  int parent = -1;  // enclosing stage for recovery sub-stages, -1 = top level
  std::vector<TaskTrace> tasks;  // every attempt, in launch order
  std::vector<std::string> events;  // deaths, speculation, recovery
  std::map<int, CacheCounters> cache_by_rdd;
};

/// The per-query observability tree: every stage and task attempt the
/// scheduler ran for one query, in deterministic virtual-time order.
///
/// Determinism contract: recording happens in the scheduler's single-threaded
/// event loop and captures only virtual-time observables, so a profile (and
/// both renderings below) is byte-for-byte identical across host_threads
/// settings and across runs with the same seed and fault schedule.
struct QueryProfile {
  /// Stable identifier assigned by the submitter (server / client trace id);
  /// empty for queries run outside the serving path. Rendered only when set,
  /// so profiles without an id are byte-identical to pre-id builds.
  std::string query_id;
  double start_time = 0.0;
  double end_time = 0.0;
  uint64_t result_rows = 0;
  std::vector<StageTrace> stages;  // in BeginStage order
  /// rdd id -> table name for cached tables (filled by the SQL executor) so
  /// cache counters render per table.
  std::map<int, std::string> rdd_names;

  double duration() const { return end_time - start_time; }

  /// First stage whose label contains `label_part`; nullptr if none.
  const StageTrace* FindStage(const std::string& label_part) const;

  /// Cache traffic summed over all stages, per RDD.
  std::map<int, CacheCounters> CacheTotals() const;

  /// Human-readable per-stage/per-task report.
  std::string ToString() const;

  /// chrome://tracing trace_event JSON: one "process" per simulated node
  /// (plus a driver process holding stage spans and instant events), one
  /// "thread" per core; timestamps are virtual microseconds.
  std::string ToChromeTrace() const;
};

/// Owned by the cluster context; the scheduler records stages/tasks into the
/// active profile, the SQL executor brackets queries around it. All calls
/// happen on the driver thread (the scheduler's event loop is
/// single-threaded), so no synchronization is needed.
class TraceCollector {
 public:
  /// Starts a profile. Returns true if this call became the owner; a nested
  /// Begin (e.g. a subquery executed inside an active query) shares the
  /// outer profile and returns false.
  bool BeginQuery(double now);

  /// Finishes and returns the profile. Only the owner (the BeginQuery call
  /// that returned true) may call this; non-owners simply never end.
  std::shared_ptr<QueryProfile> EndQuery(double now);

  bool active() const { return profile_ != nullptr; }
  QueryProfile* profile() { return profile_.get(); }

  /// Trace id stamped onto profiles: the next BeginQuery (and the active
  /// profile, if any) records it as QueryProfile::query_id. Set by the
  /// JobManager when it admits a job carrying a query_id.
  void set_query_id(const std::string& id);
  const std::string& query_id() const { return query_id_; }

  /// Opens a stage with `stage`'s identity and start (nested under the
  /// innermost open stage, if any) and returns its id. Requires active().
  int BeginStage(const StageRecord& stage);
  /// Closes a stage, copying in its final record.
  void EndStage(int stage_id, const StageRecord& stage);

  /// Stage by id; invalidated by the next BeginStage (the vector may grow).
  StageTrace* stage(int stage_id);

 private:
  std::shared_ptr<QueryProfile> profile_;
  std::vector<int> open_;  // stack of open stage ids
  std::string query_id_;
};

}  // namespace shark

#endif  // SHARK_COMMON_TRACE_H_
