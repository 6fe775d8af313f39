#ifndef SHARK_RDD_SCHEDULER_H_
#define SHARK_RDD_SCHEDULER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "rdd/rdd.h"
#include "rdd/shuffle.h"

namespace shark {

class ClusterContext;
struct TaskSetState;

/// Aggregate metrics of one job (action) execution.
struct JobMetrics {
  double start_time = 0.0;
  double end_time = 0.0;
  double duration() const { return end_time - start_time; }

  int stages = 0;
  int tasks_launched = 0;
  int tasks_failed = 0;       // aborted by node failure
  int tasks_rerun_missing = 0;  // re-run after missing shuffle input
  int map_tasks_recovered = 0;  // lineage recomputation of lost map outputs
  int speculative_tasks = 0;
  TaskWork total_work;
  /// Node that produced each result partition (result stage only).
  std::vector<int> result_nodes;

  /// Folds a finished (or failed) stage's task counters and work in.
  void AddStage(const StageRecord& stage);
};

/// Identity and fair-share accounting of one query/job admitted to the
/// shared event loop. The scheduler never creates these for callers — the
/// JobManager owns one per cooperative job and installs it via
/// SetCurrentJobState on the job's thread; plain single-caller use falls
/// back to the scheduler's built-in default job.
struct JobState {
  /// Admission order; fairness tiebreak and deterministic identity.
  int job_seq = 0;
  std::string label;
  /// Inter-query weight: a job with weight 2 is entitled to twice the task
  /// occupancy of a weight-1 job when both have runnable tasks.
  double weight = 1.0;
  /// Accumulated virtual core occupancy (sum of committed+speculative task
  /// durations as launched). The fair-share policy launches the runnable
  /// set whose job has the smallest service_seconds / weight.
  double service_seconds = 0.0;
  /// True for JobManager-managed jobs whose threads park in ExecuteTaskSet
  /// and are resumed by the shared event loop via the coop hooks.
  bool cooperative = false;
  /// Per-job query-profile recorder; null falls back to the context-global
  /// collector (single-caller mode). With concurrent profiled queries each
  /// job's stages land in its own profile instead of whichever query opened
  /// a profile first.
  TraceCollector* trace = nullptr;
  /// Debris ledger: RDDs cached while this job was current. A failing query
  /// drops exactly its own entries (watermark-based cleanup would be wrong
  /// under concurrent admission, where id ranges interleave across jobs).
  /// Shuffles need no ledger: a shuffle lives exactly as long as its
  /// ShuffleDependency is reachable — from a live RDD graph, a cached table's
  /// lineage or an in-flight stage — and is dropped by the first
  /// ReleaseDeadShuffles after its lineage dies, success or failure.
  std::vector<int> owned_cache_rdd_ids;
};

/// The job the calling thread is executing on behalf of (set by the
/// JobManager around a cooperative job body), or nullptr on plain callers
/// and the event-loop driver thread.
JobState* CurrentJobState();
void SetCurrentJobState(JobState* job);

/// Runs RDD actions on the simulated cluster: builds stages at shuffle
/// boundaries, schedules tasks with data locality, and recovers from node
/// failures by lineage recomputation (§2.3). Deterministic given the
/// context's seed and fault schedule.
///
/// Multiple jobs can be in flight at once: every ExecuteTaskSet call
/// registers a task set with the shared event loop, which interleaves task
/// launches across all active sets under a weighted fair-share inter-query
/// policy. A plain caller (no JobManager) drives the loop itself until its
/// own set completes — with one active set the loop degenerates exactly to
/// the historical one-job behavior, so single-job virtual times are
/// bit-identical. Cooperative jobs park their thread instead and are
/// resumed by whoever drives the loop (the JobManager driver).
class DagScheduler {
 public:
  explicit DagScheduler(ClusterContext* ctx);
  ~DagScheduler();

  DagScheduler(const DagScheduler&) = delete;
  DagScheduler& operator=(const DagScheduler&) = delete;

  /// Computes all partitions of `rdd`, returning blocks in partition order.
  /// Ancestor shuffle stages are materialized first (and reused if already
  /// materialized by a previous job — the basis of partial DAG execution).
  Result<std::vector<BlockData>> RunJob(const std::shared_ptr<RddBase>& rdd);

  /// Computes only the given partitions (map pruning launches no tasks for
  /// pruned partitions).
  Result<std::vector<BlockData>> RunJobOnPartitions(
      const std::shared_ptr<RddBase>& rdd, const std::vector<int>& partitions);

  /// Materializes a shuffle's map stage (if not already) and returns the
  /// statistics observed by the master — the PDE entry point (§3.1).
  Result<ShuffleStats> EnsureShuffle(
      const std::shared_ptr<ShuffleDependency>& dep);

  /// Metrics of the most recent job *on this thread's call path*. Safe under
  /// cooperative multi-job execution because job threads run one at a time
  /// and read this immediately after their RunJob/EnsureShuffle returns,
  /// before the next park point hands control away.
  const JobMetrics& last_job() const { return last_job_; }

  // ---- Multi-job event loop (used by JobManager) ---------------------------

  /// What one DriveOnce call did.
  enum class DriveResult {
    kProcessed,  // handled one event (launch/death/completion/finalize)
    kDeferred,   // earliest event is after the time limit; nothing done
    kIdle,       // no active task sets at all
  };

  /// Hooks for cooperative jobs. `park` blocks the calling job thread until
  /// its awaited set finalizes; `resume` (called by the event loop on the
  /// driving thread) wakes a job whose set just finalized and blocks until
  /// that job parks again or finishes.
  struct CoopHooks {
    std::function<void(JobState*)> park;
    std::function<void(JobState*)> resume;
  };
  void set_coop_hooks(CoopHooks hooks) { coop_hooks_ = std::move(hooks); }

  /// Processes the single earliest pending event (launch, speculation,
  /// death or completion) across all active task sets, if it occurs at or
  /// before `time_limit`. Finalizing a set resumes its cooperative owner
  /// (which may register new sets) before returning. Only the JobManager
  /// driver (or a plain caller via ExecuteTaskSet's internal drive) may
  /// call this.
  Result<DriveResult> DriveOnce(double time_limit);

  /// True while any task set is registered with the event loop.
  bool HasActiveSets() const { return !active_sets_.empty(); }

  /// Quiesces host-parallel task-body precomputation and applies pending
  /// committed cache effects. MUST be called before mutating shared engine
  /// state (block cache, shuffle ledger) from outside the event loop — e.g.
  /// RddBase::Uncache or ReleaseDeadShuffles while other jobs are in
  /// flight. Cheap no-op when nothing is active.
  void QuiesceForSharedStateMutation();

  /// Drops every shuffle whose ShuffleDependency died since the last call
  /// (ShuffleManager::dead_queue), returning its map outputs' ledger bytes
  /// to the MemoryManager. Called at the end of every top-level statement
  /// (SharkSession) and job (JobManager), on the thread that holds the
  /// engine; quiesces first only when there is something to drop.
  void ReleaseDeadShuffles();

 private:
  friend struct TaskSetState;

  /// A task body's result. Bodies are pure functions of (partition, shared
  /// state frozen at stage start), so outcomes can be computed ahead of
  /// placement on any host thread; everything that depends on the eventual
  /// (node, launch order) — conditional read costs, the per-node broadcast
  /// paid-set, and cache mutations — is carried alongside and resolved by
  /// the scheduler at launch/commit time. Moved, never copied: the slot
  /// hands it to the launching attempt (ObtainOutcome).
  struct TaskOutcome {
    BlockData block;                  // result-stage payload
    MapOutput map_output;             // map-stage payload
    TaskWork work;                    // node-independent work counters
    uint64_t rows_out = 0;            // output rows (profile annotation)
    uint64_t bytes_out = 0;           // output bytes (map stages)
    std::vector<std::pair<int, int>> missing_inputs;
    std::vector<DeferredCharge> charges;   // resolved per launch
    std::vector<int> broadcast_fetches;    // charged per launch, per node
    std::vector<CacheOp> cache_log;        // replayed if the task commits
    std::map<int, CacheCounters> cache_counters;  // per-rdd hit/miss traffic
    std::vector<MemOp> mem_log;            // replayed if the task commits
    uint64_t spill_bytes = 0;              // working set spilled to disk
    uint32_t spill_partitions = 0;         // grace-hash partitions/sort runs
  };

  using TaskBody = std::function<TaskOutcome(int partition, TaskContext*)>;
  // Returns false if the committed output was immediately invalidated.
  using CommitFn = std::function<void(int partition, TaskOutcome&&, int node)>;
  // Partitions of the current task set whose committed output lives on a
  // node; used to re-run map tasks whose outputs die with their node.
  using LostOutputFn = std::function<std::vector<int>(int node)>;

  /// Event-driven execution of one set of tasks (one stage, or a recovery
  /// sub-stage). Handles locality, heartbeat quantization, failures,
  /// missing-input recovery and speculation; fills the set's StageRecord
  /// from `stage` (label, map flag, shuffle id), and records the stage into
  /// the owning job's TraceCollector when a profile is active. Registers
  /// the set with the shared event loop; plain callers drive the loop until
  /// the set finalizes, cooperative job threads park instead.
  Status ExecuteTaskSet(const std::vector<int>& partitions,
                        const std::function<std::vector<int>(int)>& preferred,
                        const TaskBody& body, const CommitFn& commit,
                        const LostOutputFn& lost_outputs, JobMetrics* metrics,
                        StageRecord stage);

  /// Registers dep in the id registry and runs its map tasks for the given
  /// parent partitions (lineage recomputation path).
  Status RunMapTasks(const std::shared_ptr<ShuffleDependency>& dep,
                     const std::vector<int>& map_partitions,
                     JobMetrics* metrics);

  /// Walks the lineage graph and materializes every incomplete ancestor
  /// shuffle, parents first.
  Status EnsureAncestorShuffles(const std::shared_ptr<RddBase>& rdd,
                                JobMetrics* metrics);

  /// Recomputes lost map outputs reported by a reduce task.
  Status RecoverMissing(const std::vector<std::pair<int, int>>& missing,
                        JobMetrics* metrics);

  void HandleNodeDeath(int node);

  // ---- shared event loop ---------------------------------------------------

  /// The job new work registered on this thread belongs to: the thread's
  /// own job, the recovery override, or the plain default job.
  JobState* ResolveJobForRegistration();
  /// Applies committed tasks' cache accesses in commit order.
  void FlushReplay();
  /// Computes `task`'s outcome into its slot (worker threads or inline).
  void ComputeSlot(TaskSetState* set, int task, long at_epoch);
  /// Yields `task`'s outcome, recomputing inline if the slot is stale.
  Status ObtainOutcome(TaskSetState* set, int task, TaskOutcome* out);
  void RegisterTaskSet(TaskSetState* set);
  void UnregisterTaskSet(TaskSetState* set);
  /// Drives the loop until `target` finalizes (plain callers and nested
  /// lineage-recovery stages).
  Status DriveUntilFinalized(TaskSetState* target);
  /// Closes a completed set: its bucket summary, the skew report, trace,
  /// JobMetrics and clock bookkeeping, removal from the active list, and
  /// resuming a cooperative owner.
  void FinalizeSet(TaskSetState* set);
  /// Fails a set (scheduling error): records the status, folds its record
  /// into JobMetrics, removes it, and resumes a cooperative owner. Never
  /// ends the stage (no skew report, no clock advance).
  void FailSet(TaskSetState* set, const Status& status);
  /// Applies node deaths at virtual time `at` across all non-suspended sets.
  void ProcessDeaths(const std::vector<int>& killed, double at);
  /// Cancels all precomputation, applies pending cache effects in commit
  /// order, advances the epoch and re-latches the task memory budget.
  void BumpEpoch();
  /// Launches `task` of `set` on (node, core) available at `avail`.
  Status Launch(TaskSetState* set, int task, int node, int core, double avail,
                bool speculative);
  /// Processes the completion of set->inflight[idx] at its finish time.
  Status ProcessCompletion(TaskSetState* set, size_t idx);
  /// Global pending/running counts across active sets (timeline samples).
  int TotalPending() const;
  int TotalRunning() const;
  /// True when job `a` should be served before job `b` under the weighted
  /// fair-share policy.
  static bool FairBefore(const JobState* a, const JobState* b);

  ClusterContext* ctx_;
  JobMetrics last_job_;
  std::map<int, std::weak_ptr<ShuffleDependency>> shuffle_registry_;
  // (node, heartbeat tick) -> tasks already started in that tick.
  std::map<std::pair<int, long>, int> heartbeat_slots_;
  // Monotonic task-set counter; seeds each task's private rng so results do
  // not depend on host-thread interleaving.
  uint64_t next_stage_seq_ = 0;

  // Task sets currently registered with the event loop, registration order.
  std::vector<TaskSetState*> active_sets_;
  // Committed tasks' cache accesses, in commit order, awaiting replay.
  std::vector<CacheOp> replay_log_;
  // Frozen-state epoch for host-parallel precomputation: outcomes computed
  // under an older epoch are recomputed inline at launch.
  long epoch_ = 0;
  // Per-task working-set budget, re-latched only at epoch bumps so all
  // concurrently computed task bodies see one frozen value.
  uint64_t task_mem_budget_ = 0;
  // Owning job for sets registered from inside the event loop (lineage
  // recovery runs on the driving thread, not the job's own thread).
  JobState* override_job_ = nullptr;
  // Identity for plain single-caller execution.
  JobState default_job_;
  CoopHooks coop_hooks_;
};

}  // namespace shark

#endif  // SHARK_RDD_SCHEDULER_H_
