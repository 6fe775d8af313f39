#ifndef SHARK_SQL_EXECUTOR_H_
#define SHARK_SQL_EXECUTOR_H_

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rdd/context.h"
#include "rdd/pair_rdd.h"
#include "relation/row.h"
#include "sql/catalog.h"
#include "sql/expr.h"
#include "sql/logical_plan.h"

namespace shark {

namespace vec {
struct VecScan;
}  // namespace vec

/// How join strategies are chosen (the Fig 8 experiment):
///  - kStatic: compile-time choice from catalog statistics only.
///  - kAdaptive: pre-shuffle both inputs, inspect observed sizes, then pick
///    map join vs shuffle join (pure PDE).
///  - kStaticAdaptive: use static hints to pre-shuffle only the likely-small
///    input; if it is small, broadcast it and never pre-shuffle the large
///    side (the paper's combined strategy, ~3x over static).
enum class JoinOptimization : uint8_t { kStatic, kAdaptive, kStaticAdaptive };

/// Execution tuning knobs.
struct ExecOptions {
  bool pde = true;            // run-time reducer selection & skew handling
  JoinOptimization join_opt = JoinOptimization::kStaticAdaptive;
  bool map_pruning = true;    // §3.5
  bool use_copartition = true;  // §3.4

  /// Vectorized batch-at-a-time execution over cached columnar tables:
  /// scan/filter/project/group-by pipelines decode column batches and run
  /// type-specialized kernels instead of materializing Rows per operator.
  /// Pure host-side optimization — virtual-time charges are identical to the
  /// row-at-a-time path, so benches report the same virtual_seconds with or
  /// without it. Applies to scans of memstore-cached tables; any other input
  /// takes the row path. Inside a batch, an instruction with no batch
  /// kernel falls back to per-row evaluation (CompiledExpr::EvalBatch).
  bool vectorized = true;

  /// Sargability rule: allow the planner to flip Scans on indexed cached
  /// tables into IndexRangeScan (B+-tree probe + row gather) when the cost
  /// model prefers it. Off = always full columnar scans — the fuzz
  /// indexed-on/off metamorphic variant toggles this.
  bool use_indexes = true;

  /// Fine-grained shuffle buckets (0: 2x total cores).
  int fine_buckets = 0;
  /// Reducer count when PDE is off (0: total cores, unless
  /// bytes_per_reducer is set).
  int static_reducers = 0;
  /// Hive-style static reducer heuristic: when PDE is off and
  /// static_reducers == 0, use ceil(scanned_virtual_bytes / this). 0 = off.
  uint64_t bytes_per_reducer = 0;
  /// Virtual bytes per reducer that PDE coalescing aims for. Small on
  /// purpose: sub-second tasks are nearly free on this engine, and §7 finds
  /// that over-partitioning beats careful reducer tuning (robustness to
  /// skew); the fine-grained bucket count still caps the reducer count.
  uint64_t reducer_target_bytes = 32ULL * 1024 * 1024;
  /// Broadcast (map join) threshold on the built table's virtual bytes.
  uint64_t broadcast_threshold_bytes = 1ULL << 30;

  /// Cost-based optimization: ANALYZE statistics drive DP join reordering in
  /// the planner and estimator-informed size beliefs in the executor.
  bool cbo = true;
  /// Forces the query's written left-deep join order (naive baseline for the
  /// bench and the fuzz plan-variant oracle). Also disables re-planning.
  bool force_left_deep = false;
  /// Mid-query re-optimization (PDE, §4): after a join step's shuffle stage,
  /// re-enumerate the remaining join order when observed cardinality deviates
  /// from the estimate by more than this factor (either direction).
  /// 0 disables re-planning.
  double replan_factor = 4.0;
  /// DP budget for join reordering; larger spines use the greedy order.
  int dp_max_relations = 10;

  /// Host threads computing task bodies: -1 = inherit the context's setting,
  /// 0 = one per hardware thread, 1 = serial reference path. Only host
  /// wall-clock changes — virtual-time results are identical either way.
  int host_threads = -1;
};

/// Per-query metrics surfaced to benches and tests.
struct QueryMetrics {
  double virtual_seconds = 0.0;
  int jobs = 0;
  int stages = 0;
  int tasks = 0;
  int tasks_failed = 0;
  int map_tasks_recovered = 0;
  int speculative_tasks = 0;
  TaskWork work;
  int partitions_scanned = 0;
  int partitions_pruned = 0;
  std::string join_strategy;
  int chosen_reducers = 0;
  /// Mid-query join-order re-optimizations triggered by PDE statistics.
  int replans = 0;

  void AddJob(const JobMetrics& job);
};

struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  QueryMetrics metrics;

  /// Per-stage/per-task execution trace (see common/trace.h). Set by
  /// Executor::Execute when it owns the profile bracket; null for queries
  /// executed inside an outer profiled query (their stages land in the
  /// outer profile).
  std::shared_ptr<const QueryProfile> profile;

  std::string ToString(size_t max_rows = 20) const;
};

/// Lowers an optimized logical plan onto the RDD engine and runs it. One
/// executor instance per query.
class Executor {
 public:
  /// Applies `options.host_threads` to the context, so every RDD this
  /// executor builds runs with it: queries, CTAS and sql2rdd alike.
  Executor(ClusterContext* ctx, Catalog* catalog, const UdfRegistry* udfs,
           const ExecOptions& options);

  /// Builds and collects the plan, returning rows plus metrics.
  Result<QueryResult> Execute(const PlanPtr& plan);

  /// Builds the RDD for a plan without collecting (sql2rdd, CTAS).
  Result<RddPtr<Row>> BuildRdd(const PlanPtr& plan);

  const QueryMetrics& metrics() const { return metrics_; }

 private:
  Result<QueryResult> ExecuteInner(const PlanPtr& plan);

  Result<RddPtr<Row>> BuildScan(const LogicalPlan& node);
  Result<RddPtr<Row>> BuildIndexScan(const LogicalPlan& node);
  Result<RddPtr<Row>> BuildFilter(const LogicalPlan& node);
  Result<RddPtr<Row>> BuildProject(const LogicalPlan& node);
  Result<RddPtr<Row>> BuildAggregate(const LogicalPlan& node);
  Result<RddPtr<Row>> BuildJoin(const PlanPtr& plan);
  Result<RddPtr<Row>> BuildSort(const LogicalPlan& node);
  Result<RddPtr<Row>> BuildLimit(const LogicalPlan& node);

  /// Record counts of one join step's inputs as observed by the master
  /// (§3.1's PDE statistics). A side is observed only when the chosen
  /// strategy pre-shuffled it.
  struct JoinSideObservation {
    std::optional<uint64_t> left_records;
    std::optional<uint64_t> right_records;
  };

  /// Joins two already-built row RDDs under `join_opt` in one pass: observe
  /// (pre-shuffle what the mode looks at), decide (broadcast a small inner
  /// build side), build (map join or shuffle join). Beliefs are in virtual
  /// bytes; `obs` (may be null) receives observed input record counts for
  /// mid-query re-optimization.
  Result<RddPtr<Row>> BuildJoinPair(RddPtr<Row> left, RddPtr<Row> right,
                                    std::vector<ExprPtr> left_keys,
                                    std::vector<ExprPtr> right_keys,
                                    JoinType join_type, int left_width,
                                    int right_width, const ExprPtr& residual,
                                    double left_belief, double right_belief,
                                    int static_reducers,
                                    JoinSideObservation* obs);

  /// Adaptive execution of an inner-join spine with mid-query
  /// re-optimization (§4): executes the cost-based join order step by step,
  /// feeds observed pre-shuffle cardinalities back into the estimates, and
  /// re-enumerates the remaining order when they deviate by more than
  /// `replan_factor`. Sets *applied=false (returning null) when the spine is
  /// not eligible.
  Result<RddPtr<Row>> BuildJoinSpine(const PlanPtr& plan, bool* applied);

  /// Static size belief for a join input in virtual bytes: catalog bytes for
  /// scans, the planner's cardinality estimate otherwise (under cbo), 1e30
  /// when unknown.
  double BeliefBytes(const LogicalPlan& child) const;

  /// Co-partitioned join fast path (§3.4); returns null when not applicable.
  Result<RddPtr<Row>> TryCoPartitionedJoin(const LogicalPlan& node);

  /// Prepares a vectorized scan of `node` (a kScan over a memstore-cached
  /// table): applies partition pruning, compiles the scan predicate, and
  /// fills `out`. Returns false — without touching metrics — when the
  /// vectorized path does not apply (flag off, table not cached in columnar
  /// form, or the predicate does not compile — the row path then reports
  /// the error).
  bool PrepareVecScan(const LogicalPlan& node, vec::VecScan* out);

  /// Partition pruning over a cached table (updates scan metrics); shared by
  /// the scalar scan and the vectorized fast paths.
  RddPtr<TablePartitionPtr> PruneCachedScan(TableInfo* info,
                                            const LogicalPlan& node);

  /// The `selected` partitions of a cached table (never none), labelled
  /// `label` when that is a strict subset; counts them as scanned and the
  /// rest as pruned.
  RddPtr<TablePartitionPtr> CachedPartitionSubset(TableInfo* info,
                                                  std::vector<int> selected,
                                                  const std::string& label);

  /// Filters rows by a predicate compiled once here (error if it does not
  /// compile); null predicate = no filter.
  Result<RddPtr<Row>> ApplyPredicate(RddPtr<Row> rows, const ExprPtr& predicate,
                                     const std::string& label);

  /// Run-time reducer selection is on: the option and the engine agree.
  bool Pde() const;
  int FineBuckets() const;
  /// PDE's reducer choice (§3.1) from the observed shuffles of one stage:
  /// ChooseNumReducers over their summed virtual bytes (each shuffle's
  /// bytes scaled and truncated on its own), at most `max_reducers`,
  /// recorded in the metrics; the fine buckets are coalesced to that count.
  BucketAssignment CoalesceObserved(
      std::initializer_list<const ShuffleStats*> observed, int max_reducers);
  /// Static reducer choice for the stage rooted at `node` (Hive heuristic
  /// when bytes_per_reducer is configured).
  int StaticReducers(const LogicalPlan& node) const;

  /// Runs EnsureShuffle and folds job metrics in.
  Result<ShuffleStats> EnsureShuffleTracked(
      const std::shared_ptr<ShuffleDependency>& dep);

  /// Collects an RDD and folds job metrics in.
  template <typename T>
  Result<std::vector<T>> CollectTracked(const RddPtr<T>& rdd) {
    auto rows = ctx_->Collect(rdd);
    if (rows.ok()) metrics_.AddJob(ctx_->scheduler().last_job());
    return rows;
  }

  ClusterContext* ctx_;
  Catalog* catalog_;
  const UdfRegistry* udfs_;
  ExecOptions options_;
  QueryMetrics metrics_;
};

/// True if the partition statistics admit rows satisfying every prunable
/// conjunct (exposed for tests).
bool PartitionMayMatch(const std::vector<ColumnStats>& stats,
                       const std::vector<ExprPtr>& conjuncts);

/// EXPLAIN ANALYZE rendering: the logical plan tree with each operator
/// annotated by the stages that executed it (virtual-time span, task counts,
/// rows/bytes out, shuffle bucket distribution, cache traffic, work
/// breakdown). Stages that match no operator (shuffle-stat probes, recovery
/// sub-stages of shared scans) are listed at the end.
std::string RenderAnalyzedPlan(const LogicalPlan& plan,
                               const QueryProfile& profile);

}  // namespace shark

#endif  // SHARK_SQL_EXECUTOR_H_
