#include "sql/executor.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/vectorized/join_table.h"
#include "exec/vectorized/vec_exec.h"
#include "index/btree.h"
#include "rdd/pair_rdd.h"
#include "sql/expr_compiler.h"
#include "sql/pde.h"
#include "sql/planner/join_reorder.h"

namespace shark {

namespace {

/// Extra per-row cost multiplier for predicates containing UDFs (their
/// evaluation is several times an interpreted builtin's cost).
uint64_t UdfExtraRows(const Expr& expr, const UdfRegistry* udfs) {
  if (udfs == nullptr) return 0;
  uint64_t extra = 0;
  if (expr.kind == ExprKind::kFuncCall) {
    if (const UdfRegistry::UdfInfo* info = udfs->Lookup(expr.name)) {
      extra += static_cast<uint64_t>(info->cpu_cost_factor);
    }
  }
  for (const auto& c : expr.children) extra += UdfExtraRows(*c, udfs);
  return extra;
}

/// Compiled programs of an expression list, shared by an operator's tasks.
using Programs = std::shared_ptr<const std::vector<CompiledExpr>>;

/// Compiles each expression once, when the operator's RDD is built.
Result<Programs> CompileAll(const std::vector<ExprPtr>& exprs,
                            const UdfRegistry* udfs) {
  ExprCompiler compiler(udfs);
  std::vector<CompiledExpr> programs;
  programs.reserve(exprs.size());
  for (const ExprPtr& e : exprs) {
    SHARK_ASSIGN_OR_RETURN(CompiledExpr program, compiler.Compile(*e));
    programs.push_back(std::move(program));
  }
  return std::make_shared<const std::vector<CompiledExpr>>(std::move(programs));
}

/// One field per program: a join or group key, or a projected row.
Row EvalKeyRow(const std::vector<CompiledExpr>& keys, const Row& row) {
  Row out;
  out.fields.reserve(keys.size());
  for (const CompiledExpr& k : keys) out.fields.push_back(k.Eval(row));
  return out;
}

/// A shuffle's observed bytes in virtual bytes, truncated.
uint64_t VirtualBytes(const ShuffleStats& stats, double virtual_scale) {
  return static_cast<uint64_t>(static_cast<double>(stats.total_bytes) *
                               virtual_scale);
}

/// Narrow-dependency local join of two co-partitioned row RDDs (§3.4): no
/// shuffle; partition i of the output joins partition i of each side.
class ZippedJoinRdd final : public TypedRdd<Row> {
 public:
  ZippedJoinRdd(RddPtr<Row> left, RddPtr<Row> right, Programs left_keys,
                Programs right_keys)
      : TypedRdd<Row>(left->context(), "copartitionJoin"),
        left_(left),
        right_(right),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)) {
    SHARK_CHECK(left->num_partitions() == right->num_partitions());
    deps_.push_back(Dependency{left, nullptr});
    deps_.push_back(Dependency{right, nullptr});
  }

  int num_partitions() const override { return left_->num_partitions(); }

  Block Compute(int p, TaskContext* tctx) const override {
    auto lrows = left_->GetOrCompute(p, tctx);
    auto rrows = right_->GetOrCompute(p, tctx);
    // Build over the smaller side, probe with the larger (§3.1.1).
    const bool left_build = lrows->size() <= rrows->size();
    const std::vector<Row>& build = left_build ? *lrows : *rrows;
    const std::vector<Row>& probe = left_build ? *rrows : *lrows;
    const vec::JoinBuild table(left_build ? *left_keys_ : *right_keys_,
                               build);
    tctx->work().hash_records += build.size() + probe.size();
    tctx->work().rows_processed += build.size() + probe.size();
    // The build table holds the whole smaller side; past the task's budget
    // the join degrades to grace-hash partitions on local disk.
    tctx->ReserveOrSpillHash(ApproxSizeOfRange(build), build.size());
    Block out;
    table.Probe(left_build ? *right_keys_ : *left_keys_, probe, left_build,
                &out);
    tctx->ReleaseAllWorkingSet();
    return out;
  }

 private:
  RddPtr<Row> left_;
  RddPtr<Row> right_;
  Programs left_keys_;
  Programs right_keys_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Map pruning (§3.5)
// ---------------------------------------------------------------------------

namespace {

const Expr* AsSlot(const Expr& e) {
  return e.kind == ExprKind::kSlot ? &e : nullptr;
}

const Expr* AsLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral ? &e : nullptr;
}

/// Checks one conjunct against partition stats; true = may match (cannot
/// prune on this conjunct).
bool ConjunctMayMatch(const std::vector<ColumnStats>& stats, const Expr& c) {
  auto stats_for = [&](int slot) -> const ColumnStats* {
    if (slot < 0 || slot >= static_cast<int>(stats.size())) return nullptr;
    return &stats[static_cast<size_t>(slot)];
  };
  if (c.kind == ExprKind::kBinary) {
    const Expr* l = c.children[0].get();
    const Expr* r = c.children[1].get();
    const Expr* slot = AsSlot(*l);
    const Expr* lit = AsLiteral(*r);
    BinaryOp op = c.binary_op;
    if (slot == nullptr && AsSlot(*r) != nullptr && AsLiteral(*l) != nullptr) {
      // literal OP slot: mirror the comparison.
      slot = AsSlot(*r);
      lit = AsLiteral(*l);
      switch (op) {
        case BinaryOp::kLt:
          op = BinaryOp::kGt;
          break;
        case BinaryOp::kLe:
          op = BinaryOp::kGe;
          break;
        case BinaryOp::kGt:
          op = BinaryOp::kLt;
          break;
        case BinaryOp::kGe:
          op = BinaryOp::kLe;
          break;
        default:
          break;
      }
    }
    if (slot == nullptr || lit == nullptr) return true;
    const ColumnStats* s = stats_for(slot->slot);
    if (s == nullptr) return true;
    const Value& v = lit->literal;
    switch (op) {
      case BinaryOp::kEq:
        return s->MayEqual(v);
      case BinaryOp::kLt:
      case BinaryOp::kLe:
        return s->MayIntersect(nullptr, &v);
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        return s->MayIntersect(&v, nullptr);
      default:
        return true;
    }
  }
  if (c.kind == ExprKind::kBetween && !c.negated) {
    const Expr* slot = AsSlot(*c.children[0]);
    const Expr* lo = AsLiteral(*c.children[1]);
    const Expr* hi = AsLiteral(*c.children[2]);
    if (slot == nullptr || lo == nullptr || hi == nullptr) return true;
    const ColumnStats* s = stats_for(slot->slot);
    if (s == nullptr) return true;
    return s->MayIntersect(&lo->literal, &hi->literal);
  }
  if (c.kind == ExprKind::kInList && !c.negated) {
    const Expr* slot = AsSlot(*c.children[0]);
    if (slot == nullptr) return true;
    const ColumnStats* s = stats_for(slot->slot);
    if (s == nullptr) return true;
    for (size_t i = 1; i < c.children.size(); ++i) {
      const Expr* lit = AsLiteral(*c.children[i]);
      if (lit == nullptr) return true;
      if (s->MayEqual(lit->literal)) return true;
    }
    return false;
  }
  return true;
}

}  // namespace

bool PartitionMayMatch(const std::vector<ColumnStats>& stats,
                       const std::vector<ExprPtr>& conjuncts) {
  for (const ExprPtr& c : conjuncts) {
    if (!ConjunctMayMatch(stats, *c)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// QueryMetrics / QueryResult
// ---------------------------------------------------------------------------

void QueryMetrics::AddJob(const JobMetrics& job) {
  jobs += 1;
  stages += job.stages;
  tasks += job.tasks_launched;
  tasks_failed += job.tasks_failed;
  map_tasks_recovered += job.map_tasks_recovered;
  speculative_tasks += job.speculative_tasks;
  work.Add(job.total_work);
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (int i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) out += "|";
    out += schema.field(i).name;
  }
  out += "\n";
  for (size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    out += rows[i].ToString() + "\n";
  }
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows)\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

bool Executor::Pde() const {
  return options_.pde && ctx_->profile().pde_enabled;
}

int Executor::FineBuckets() const {
  if (options_.fine_buckets > 0) return options_.fine_buckets;
  return 2 * ctx_->cluster().total_cores();
}

namespace {

/// Sum of catalog-known scan bytes under a plan node (Hive's heuristic input
/// size estimate).
uint64_t ScanBytesUnder(const LogicalPlan& node, Catalog* catalog) {
  if (node.kind == PlanKind::kScan) {
    auto info = catalog->Get(node.table);
    return info.ok() ? (*info)->approx_bytes : 0;
  }
  uint64_t total = 0;
  for (const auto& c : node.children) total += ScanBytesUnder(*c, catalog);
  return total;
}

}  // namespace

int Executor::StaticReducers(const LogicalPlan& node) const {
  if (options_.static_reducers > 0) return options_.static_reducers;
  if (options_.bytes_per_reducer > 0) {
    double virtual_bytes = static_cast<double>(ScanBytesUnder(node, catalog_)) *
                           ctx_->virtual_scale();
    auto reducers = static_cast<int64_t>(
        (virtual_bytes + static_cast<double>(options_.bytes_per_reducer) - 1) /
        static_cast<double>(options_.bytes_per_reducer));
    if (reducers < 1) reducers = 1;
    return static_cast<int>(reducers);
  }
  return ctx_->cluster().total_cores();
}

Result<ShuffleStats> Executor::EnsureShuffleTracked(
    const std::shared_ptr<ShuffleDependency>& dep) {
  SHARK_ASSIGN_OR_RETURN(ShuffleStats stats,
                         ctx_->scheduler().EnsureShuffle(dep));
  metrics_.AddJob(ctx_->scheduler().last_job());
  return stats;
}

BucketAssignment Executor::CoalesceObserved(
    std::initializer_list<const ShuffleStats*> observed, int max_reducers) {
  std::vector<uint64_t> bucket_bytes;
  uint64_t virtual_bytes = 0;
  for (const ShuffleStats* stats : observed) {
    bucket_bytes.resize(
        std::max(bucket_bytes.size(), stats->bucket_bytes.size()));
    for (size_t b = 0; b < stats->bucket_bytes.size(); ++b) {
      bucket_bytes[b] += stats->bucket_bytes[b];
    }
    virtual_bytes += VirtualBytes(*stats, ctx_->virtual_scale());
  }
  const int reducers = ChooseNumReducers(
      virtual_bytes, options_.reducer_target_bytes, max_reducers);
  metrics_.chosen_reducers = reducers;
  return CoalesceBuckets(bucket_bytes, reducers);
}

Result<RddPtr<Row>> Executor::ApplyPredicate(RddPtr<Row> rows,
                                             const ExprPtr& predicate,
                                             const std::string& label) {
  if (predicate == nullptr) return rows;
  SHARK_ASSIGN_OR_RETURN(CompiledExpr compiled,
                         ExprCompiler(udfs_).Compile(*predicate));
  auto program = std::make_shared<const CompiledExpr>(std::move(compiled));
  const uint64_t extra = UdfExtraRows(*predicate, udfs_);
  return RddPtr<Row>(rows->MapPartitions(
      [program, extra](int, const std::vector<Row>& in, TaskContext* tctx) {
        std::vector<Row> out;
        for (const Row& r : in) {
          if (program->EvalBool(r)) out.push_back(r);
        }
        tctx->work().rows_processed += vec::ExprChargeRows(in.size(), extra);
        return out;
      },
      label));
}

Executor::Executor(ClusterContext* ctx, Catalog* catalog,
                   const UdfRegistry* udfs, const ExecOptions& options)
    : ctx_(ctx), catalog_(catalog), udfs_(udfs), options_(options) {
  if (options_.host_threads >= 0) ctx_->set_host_threads(options_.host_threads);
}

Result<RddPtr<Row>> Executor::BuildRdd(const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanKind::kScan:
      return BuildScan(*plan);
    case PlanKind::kIndexScan:
      return BuildIndexScan(*plan);
    case PlanKind::kFilter:
      return BuildFilter(*plan);
    case PlanKind::kProject:
      return BuildProject(*plan);
    case PlanKind::kAggregate:
      return BuildAggregate(*plan);
    case PlanKind::kJoin:
      return BuildJoin(plan);
    case PlanKind::kSort:
      return BuildSort(*plan);
    case PlanKind::kLimit:
      return BuildLimit(*plan);
    case PlanKind::kUnion: {
      SHARK_ASSIGN_OR_RETURN(RddPtr<Row> left, BuildRdd(plan->children[0]));
      SHARK_ASSIGN_OR_RETURN(RddPtr<Row> right, BuildRdd(plan->children[1]));
      return RddPtr<Row>(std::make_shared<UnionRdd<Row>>(left, right));
    }
  }
  return Status::Internal("unknown plan kind");
}

/// Partition pruning (§3.5) over a cached table: returns the (possibly
/// subset) partition RDD to scan and updates the scan metrics. Shared by the
/// row-at-a-time scan and every vectorized fast path so both prune — and
/// count — identically.
RddPtr<TablePartitionPtr> Executor::PruneCachedScan(TableInfo* info,
                                                    const LogicalPlan& node) {
  int total = info->cached_rdd->num_partitions();
  std::vector<int> selected;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(node.scan_predicate);
  for (int p = 0; p < total; ++p) {
    if (options_.map_pruning && !conjuncts.empty() &&
        p < static_cast<int>(info->partition_stats.size()) &&
        !PartitionMayMatch(info->partition_stats[static_cast<size_t>(p)],
                           conjuncts)) {
      continue;
    }
    selected.push_back(p);
  }
  return CachedPartitionSubset(info, std::move(selected),
                               "prunedScan:" + node.table);
}

RddPtr<TablePartitionPtr> Executor::CachedPartitionSubset(
    TableInfo* info, std::vector<int> selected, const std::string& label) {
  const int total = info->cached_rdd->num_partitions();
  // Never prune to zero partitions: downstream shuffles require at least
  // one map partition, and an all-pruned scan still has to produce an
  // (empty) result.
  if (selected.empty() && total > 0) selected.push_back(0);
  const int scanned = static_cast<int>(selected.size());
  metrics_.partitions_scanned += scanned;
  metrics_.partitions_pruned += total - scanned;
  if (scanned == total) return info->cached_rdd;
  return std::make_shared<PartitionSubsetRdd<TablePartitionPtr>>(
      info->cached_rdd, std::move(selected), label);
}

bool Executor::PrepareVecScan(const LogicalPlan& node, vec::VecScan* out) {
  if (!options_.vectorized || node.kind != PlanKind::kScan) return false;
  auto info_or = catalog_->Get(node.table);
  if (!info_or.ok()) return false;
  TableInfo* info = *info_or;
  if (!info->is_cached() || !ctx_->profile().memory_store) return false;
  std::shared_ptr<const CompiledExpr> predicate;
  uint64_t extra = 0;
  if (node.scan_predicate != nullptr) {
    ExprCompiler compiler(udfs_);
    auto compiled = compiler.Compile(*node.scan_predicate);
    if (!compiled.ok()) return false;
    predicate = std::make_shared<const CompiledExpr>(std::move(*compiled));
    extra = UdfExtraRows(*node.scan_predicate, udfs_);
  }
  out->base = PruneCachedScan(info, node);
  out->schema = std::make_shared<const Schema>(info->schema);
  out->needed = std::make_shared<const std::vector<int>>(node.needed_columns);
  out->table = node.table;
  out->predicate = std::move(predicate);
  out->predicate_extra = extra;
  return true;
}

Result<RddPtr<Row>> Executor::BuildScan(const LogicalPlan& node) {
  // Vectorized fast path: fuse decode + filter when there is a predicate to
  // push down (a bare scan gains nothing over ToRows).
  if (node.scan_predicate != nullptr) {
    vec::VecScan vs;
    if (PrepareVecScan(node, &vs)) return vec::BuildVecScanFilter(vs);
  }
  SHARK_ASSIGN_OR_RETURN(TableInfo * info, catalog_->Get(node.table));
  bool use_memstore = info->is_cached() && ctx_->profile().memory_store;
  RddPtr<Row> rows;
  if (use_memstore) {
    RddPtr<TablePartitionPtr> base = PruneCachedScan(info, node);
    auto needed = std::make_shared<std::vector<int>>(node.needed_columns);
    rows = base->MapPartitions(
        [needed](int, const std::vector<TablePartitionPtr>& parts,
                 TaskContext* tctx) {
          std::vector<Row> out;
          for (const TablePartitionPtr& part : parts) {
            if (part == nullptr) continue;
            uint64_t bytes = 0;
            for (int c : *needed) bytes += part->ColumnBytes(c);
            tctx->work().mem_read_bytes += bytes;
            tctx->work().rows_processed += part->num_rows();
            std::vector<Row> rows_here = part->ToRows(needed.get());
            for (Row& r : rows_here) out.push_back(std::move(r));
          }
          return out;
        },
        "memScan:" + node.table);
  } else {
    if (info->dfs_file.empty()) {
      return Status::ExecutionError("table has no DFS storage and is not cached: " +
                                    node.table);
    }
    SHARK_ASSIGN_OR_RETURN(rows, ctx_->FromDfs<Row>(info->dfs_file));
  }
  return ApplyPredicate(rows, node.scan_predicate, "scanFilter:" + node.table);
}

Result<RddPtr<Row>> Executor::BuildIndexScan(const LogicalPlan& node) {
  SHARK_ASSIGN_OR_RETURN(TableInfo * info, catalog_->Get(node.table));
  const IndexInfo* index = nullptr;
  auto idx_it = info->indexes.find(ToLower(node.index_name));
  if (idx_it != info->indexes.end()) index = &idx_it->second;
  if (!info->is_cached() || !ctx_->profile().memory_store || index == nullptr ||
      index->tree == nullptr || !options_.use_indexes) {
    // The index vanished between planning and execution (DROP INDEX, UNCACHE)
    // or indexes are disabled: the residual predicate is the full original
    // scan predicate, so a plain scan is semantically identical.
    return BuildScan(node);
  }

  // Master-side probe. Postings are sorted by (partition, row) so the gather
  // order — and every charge — is independent of B+-tree internals.
  const Value* lo =
      node.index_lo != nullptr ? &node.index_lo->literal : nullptr;
  const Value* hi =
      node.index_hi != nullptr ? &node.index_hi->literal : nullptr;
  std::vector<IndexPosting> postings = index->tree->Scan(
      lo, node.index_lo_inclusive, hi, node.index_hi_inclusive);
  std::sort(postings.begin(), postings.end(),
            [](const IndexPosting& a, const IndexPosting& b) {
              return a.partition != b.partition ? a.partition < b.partition
                                                : a.row < b.row;
            });

  // Only partitions holding a matching posting get a gather task (the index
  // subsumes map pruning for the sargable range).
  const int total = info->cached_rdd->num_partitions();
  std::vector<int> selected;
  auto rows_by_pos = std::make_shared<std::vector<std::vector<uint32_t>>>();
  for (const IndexPosting& post : postings) {
    if (post.partition < 0 || post.partition >= total) continue;
    if (selected.empty() || selected.back() != post.partition) {
      selected.push_back(post.partition);
      rows_by_pos->emplace_back();
    }
    rows_by_pos->back().push_back(post.row);
  }
  // A partition the subset adds beyond `rows_by_pos` gathers no rows.
  RddPtr<TablePartitionPtr> base = CachedPartitionSubset(
      info, std::move(selected), "prunedIndexScan:" + node.table);

  // Scan contract: full table arity out, NULL for undecoded columns.
  const size_t arity = info->schema.fields().size();
  auto needed = std::make_shared<std::vector<int>>();
  if (node.needed_columns.empty()) {
    for (size_t c = 0; c < arity; ++c) needed->push_back(static_cast<int>(c));
  } else {
    *needed = node.needed_columns;
  }
  auto needed_mask = std::make_shared<std::vector<uint8_t>>(arity, 0);
  for (int c : *needed) {
    if (c >= 0 && static_cast<size_t>(c) < arity) {
      (*needed_mask)[static_cast<size_t>(c)] = 1;
    }
  }
  // Tree-descent cost, charged once per gather task. Row ids index the
  // concatenation of a block's partitions, mirroring the build job.
  const uint64_t probe_rows = static_cast<uint64_t>(index->tree->height()) + 1;

  // Per-row gather: IndexRangeScan is cost-gated to selective ranges, so
  // each task picks a few rows out of its partition.
  RddPtr<Row> rows = base->MapPartitions(
      [rows_by_pos, needed, needed_mask, probe_rows](
          int p, const std::vector<TablePartitionPtr>& parts,
          TaskContext* tctx) {
        static const std::vector<uint32_t> kNone;
        const std::vector<uint32_t>& want =
            static_cast<size_t>(p) < rows_by_pos->size()
                ? (*rows_by_pos)[static_cast<size_t>(p)]
                : kNone;
        std::vector<Row> out;
        out.reserve(want.size());
        uint64_t bytes = 0;
        size_t offset = 0, wi = 0;
        for (const TablePartitionPtr& part : parts) {
          if (part == nullptr) continue;
          const size_t n = part->num_rows();
          while (wi < want.size() && want[wi] < offset + n) {
            Row r = part->GetRow(static_cast<size_t>(want[wi] - offset));
            for (size_t c = 0; c < r.fields.size(); ++c) {
              if (c < needed_mask->size() && (*needed_mask)[c] == 0) {
                r.fields[c] = Value::Null();
              }
            }
            for (int c : *needed) {
              bytes += ApproxSizeOf(r.fields[static_cast<size_t>(c)]);
            }
            out.push_back(std::move(r));
            ++wi;
          }
          offset += n;
        }
        tctx->work().rows_processed += probe_rows + 2 * out.size();
        tctx->work().mem_read_bytes += bytes;
        return out;
      },
      "indexGather:" + node.table);
  // Residual re-check: the tree range over-approximates, the full original
  // predicate makes the result exact (and identical to a plain scan).
  return ApplyPredicate(rows, node.scan_predicate, "indexFilter:" + node.table);
}

Result<RddPtr<Row>> Executor::BuildFilter(const LogicalPlan& node) {
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> child, BuildRdd(node.children[0]));
  return ApplyPredicate(child, node.predicate, "filter");
}

Result<RddPtr<Row>> Executor::BuildProject(const LogicalPlan& node) {
  SHARK_ASSIGN_OR_RETURN(Programs programs,
                         CompileAll(node.project_exprs, udfs_));
  uint64_t extra = 0;
  for (const auto& e : node.project_exprs) extra += UdfExtraRows(*e, udfs_);
  // Vectorized fast path: fuse decode + filter + project over a cached scan.
  vec::VecScan vs;
  if (PrepareVecScan(*node.children[0], &vs)) {
    return vec::BuildVecScanProject(vs, programs, extra);
  }
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> child, BuildRdd(node.children[0]));
  return RddPtr<Row>(child->MapPartitions(
      [programs, extra](int, const std::vector<Row>& in, TaskContext* tctx) {
        std::vector<Row> out;
        out.reserve(in.size());
        for (const Row& r : in) out.push_back(EvalKeyRow(*programs, r));
        tctx->work().rows_processed += vec::ExprChargeRows(in.size(), extra);
        return out;
      },
      "project"));
}

Result<RddPtr<Row>> Executor::BuildAggregate(const LogicalPlan& node) {
  // Aggregate arguments compile into one flat list, call by call — the
  // layout AccumulateArgs consumes.
  std::vector<ExprPtr> arg_exprs;
  for (const AggCall& call : node.agg_calls) {
    arg_exprs.insert(arg_exprs.end(), call.args.begin(), call.args.end());
  }
  SHARK_ASSIGN_OR_RETURN(Programs groups, CompileAll(node.group_exprs, udfs_));
  SHARK_ASSIGN_OR_RETURN(Programs agg_args, CompileAll(arg_exprs, udfs_));
  auto calls = std::make_shared<const std::vector<AggCall>>(node.agg_calls);

  const bool pde = Pde();
  int buckets = pde ? FineBuckets() : StaticReducers(node);

  // Both map sides ship one flat GroupBatch per task to the one reducer.
  std::shared_ptr<ShuffleDependency> dep;
  vec::VecScan vs;
  if (PrepareVecScan(*node.children[0], &vs)) {
    // Vectorized scan->filter->group-by map side over the columnar store.
    dep = vec::MakeVecAggDep(vs, buckets, groups, agg_args, calls);
  } else {
    SHARK_ASSIGN_OR_RETURN(RddPtr<Row> child, BuildRdd(node.children[0]));
    dep = vec::MakeRowAggDep(child, buckets, groups, agg_args, calls);
  }

  BucketAssignment assignment;
  if (pde) {
    SHARK_ASSIGN_OR_RETURN(ShuffleStats stats, EnsureShuffleTracked(dep));
    assignment = CoalesceObserved({&stats}, buckets);
  } else {
    metrics_.chosen_reducers = buckets;
    assignment = IdentityAssignment(buckets);
  }
  return vec::BuildAggReduce(dep, calls, node.group_exprs.size(),
                             std::move(assignment));
}

Result<RddPtr<Row>> Executor::TryCoPartitionedJoin(const LogicalPlan& node) {
  if (!options_.use_copartition || !ctx_->profile().memory_store ||
      node.join_type != JoinType::kInner) {
    return RddPtr<Row>(nullptr);
  }
  const LogicalPlan& l = *node.children[0];
  const LogicalPlan& r = *node.children[1];
  if (l.kind != PlanKind::kScan || r.kind != PlanKind::kScan) {
    return RddPtr<Row>(nullptr);
  }
  auto li = catalog_->Get(l.table);
  auto ri = catalog_->Get(r.table);
  if (!li.ok() || !ri.ok()) return RddPtr<Row>(nullptr);
  TableInfo* lt = *li;
  TableInfo* rt = *ri;
  if (!lt->is_cached() || !rt->is_cached()) return RddPtr<Row>(nullptr);
  bool partners = EqualsIgnoreCase(lt->copartitioned_with, rt->name) ||
                  EqualsIgnoreCase(rt->copartitioned_with, lt->name);
  if (!partners) return RddPtr<Row>(nullptr);
  if (lt->num_partitions != rt->num_partitions) return RddPtr<Row>(nullptr);
  // The join keys must be exactly the distribute columns.
  if (node.left_keys.size() != 1 || node.right_keys.size() != 1) {
    return RddPtr<Row>(nullptr);
  }
  if (node.left_keys[0]->kind != ExprKind::kSlot ||
      node.left_keys[0]->slot != lt->distribute_key ||
      node.right_keys[0]->kind != ExprKind::kSlot ||
      node.right_keys[0]->slot != rt->distribute_key) {
    return RddPtr<Row>(nullptr);
  }

  // Build both scans without map pruning (partition alignment must hold).
  ExecOptions saved = options_;
  options_.map_pruning = false;
  auto left_rows = BuildScan(l);
  auto right_rows = BuildScan(r);
  options_ = saved;
  if (!left_rows.ok()) return left_rows.status();
  if (!right_rows.ok()) return right_rows.status();

  SHARK_ASSIGN_OR_RETURN(Programs lkeys, CompileAll(node.left_keys, udfs_));
  SHARK_ASSIGN_OR_RETURN(Programs rkeys, CompileAll(node.right_keys, udfs_));
  metrics_.join_strategy = "copartition join";
  auto joined =
      std::make_shared<ZippedJoinRdd>(*left_rows, *right_rows, lkeys, rkeys);
  return ApplyPredicate(RddPtr<Row>(joined), node.join_residual,
                        "joinResidual");
}

namespace {

/// The same cost environment the planner priced the plan under, rebuilt from
/// the executor's context so runtime re-planning uses identical estimates.
PlanCostEnv MakeCostEnv(ClusterContext* ctx, const Catalog* catalog,
                        const ExecOptions& options) {
  PlanCostEnv env;
  env.catalog = catalog;
  env.hardware = ctx->cost_model().hardware();
  env.profile = ctx->profile();
  env.virtual_scale = ctx->virtual_scale();
  env.total_cores = ctx->cluster().total_cores();
  env.broadcast_threshold_bytes = options.broadcast_threshold_bytes;
  return env;
}

}  // namespace

double Executor::BeliefBytes(const LogicalPlan& child) const {
  // Scans keep the catalog's measured size (the Fig 8 static belief);
  // other subtrees use the planner's cardinality estimate under cbo.
  // Post-filter selectivity of UDFs stays unknown — exactly the case PDE
  // addresses (§3.1.1).
  if (child.kind == PlanKind::kScan) {
    auto info = catalog_->Get(child.table);
    if (info.ok()) {
      return static_cast<double>((*info)->approx_bytes) * ctx_->virtual_scale();
    }
  }
  if (options_.cbo && child.est_rows >= 0) {
    PlanCostEnv env = MakeCostEnv(ctx_, catalog_, options_);
    return child.est_rows * EstimateRowBytes(child, env) *
           ctx_->virtual_scale();
  }
  return 1e30;  // unknown: assume large
}

Result<RddPtr<Row>> Executor::BuildJoin(const PlanPtr& plan) {
  const LogicalPlan& node = *plan;
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> copart, TryCoPartitionedJoin(node));
  if (copart != nullptr) return copart;

  // Whole-spine adaptive execution with mid-query re-optimization (§4):
  // eligible inner spines of >= 3 relations are executed step by step in the
  // cost-based order, re-enumerating the tail when observed cardinalities
  // drift from the estimates.
  if (options_.cbo && !options_.force_left_deep &&
      options_.replan_factor > 0 && Pde() &&
      options_.join_opt != JoinOptimization::kStatic &&
      node.join_type == JoinType::kInner) {
    bool applied = false;
    SHARK_ASSIGN_OR_RETURN(RddPtr<Row> spine, BuildJoinSpine(plan, &applied));
    if (applied) return spine;
  }

  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> left, BuildRdd(node.children[0]));
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> right, BuildRdd(node.children[1]));
  return BuildJoinPair(
      left, right, node.left_keys, node.right_keys, node.join_type,
      node.children[0]->num_output_columns(),
      node.children[1]->num_output_columns(), node.join_residual,
      BeliefBytes(*node.children[0]), BeliefBytes(*node.children[1]),
      StaticReducers(node), nullptr);
}

Result<RddPtr<Row>> Executor::BuildJoinPair(
    RddPtr<Row> left, RddPtr<Row> right, std::vector<ExprPtr> left_keys,
    std::vector<ExprPtr> right_keys, JoinType join_type, int left_width,
    int right_width, const ExprPtr& residual, double left_belief,
    double right_belief, int static_reducers, JoinSideObservation* obs) {
  // One join input: what is believed of it and, once it is pre-shuffled,
  // what the master observed.
  struct Side {
    RddPtr<Row> rows;
    Programs keys;
    const char* key_label;
    double belief;  // static size belief, virtual bytes
    std::shared_ptr<ShuffleDependency> dep = nullptr;
    ShuffleStats stats = {};  // set by the pre-shuffle
    uint64_t observed = 0;    // observed virtual bytes
  };
  SHARK_ASSIGN_OR_RETURN(Programs lkeys, CompileAll(left_keys, udfs_));
  SHARK_ASSIGN_OR_RETURN(Programs rkeys, CompileAll(right_keys, udfs_));
  Side sides[2] = {{std::move(left), lkeys, "joinKeyL", left_belief},
                   {std::move(right), rkeys, "joinKeyR", right_belief}};
  const bool inner = join_type == JoinType::kInner;
  const JoinOptimization mode =
      Pde() ? options_.join_opt : JoinOptimization::kStatic;
  static const char* const kModeNames[] = {"static", "adaptive",
                                           "static+adaptive"};

  // Hash-partitions a side's rows by join key into `buckets`.
  auto partition = [](Side& s, int buckets) {
    s.dep = vec::MakeJoinDep(s.rows, buckets, s.keys, s.key_label);
  };
  // Runs a side's map stage into the fine buckets, so the master sees its
  // size before anything depends on it (§3.1.1).
  auto pre_shuffle = [&](int side) -> Status {
    Side& s = sides[side];
    partition(s, FineBuckets());
    SHARK_ASSIGN_OR_RETURN(s.stats, EnsureShuffleTracked(s.dep));
    s.observed = VirtualBytes(s.stats, ctx_->virtual_scale());
    if (obs != nullptr) {
      (side == 0 ? obs->left_records : obs->right_records) =
          s.stats.total_records;
    }
    return Status::OK();
  };

  // 1. Observe. Static+adaptive pre-shuffles only the believed-small input
  // of an inner join, so a broadcast never launches tasks on the large one;
  // every other PDE lowering pre-shuffles both, left first.
  const int believed_small = left_belief <= right_belief ? 0 : 1;
  if (mode == JoinOptimization::kStaticAdaptive && inner) {
    SHARK_RETURN_NOT_OK(pre_shuffle(believed_small));
  } else if (mode != JoinOptimization::kStatic) {
    SHARK_RETURN_NOT_OK(pre_shuffle(0));
    SHARK_RETURN_NOT_OK(pre_shuffle(1));
  }

  // 2. Decide. A map join cannot emit the build side's unmatched rows, so
  // only inner joins broadcast. The build candidate is the smaller input by
  // observed bytes under adaptive and by belief otherwise; it broadcasts
  // when its known size (observed if pre-shuffled) is under the threshold.
  std::optional<int> build;
  if (inner) {
    const int candidate =
        mode == JoinOptimization::kAdaptive
            ? (sides[0].observed <= sides[1].observed ? 0 : 1)
            : believed_small;
    const Side& c = sides[candidate];
    const uint64_t threshold = options_.broadcast_threshold_bytes;
    if (c.dep != nullptr ? c.observed <= threshold
                         : c.belief <= static_cast<double>(threshold)) {
      build = candidate;
    }
  }

  // 3. Build.
  metrics_.join_strategy =
      std::string(build.has_value() ? "map join (" : "shuffle join (") +
      (inner ? kModeNames[static_cast<int>(mode)] : "outer") + ")";
  RddPtr<Row> joined;
  if (build.has_value()) {
    const Side& b = sides[*build];
    // Gather the build side: from its map outputs when it was pre-shuffled,
    // straight from its rows otherwise.
    SHARK_ASSIGN_OR_RETURN(std::vector<Row> build_rows,
                           CollectTracked(b.dep != nullptr
                                              ? vec::BuildJoinGather(b.dep)
                                              : b.rows));
    const int broadcast_id =
        ctx_->Broadcast(vec::JoinBuild(*b.keys, build_rows));
    const Side& probe = sides[1 - *build];
    joined = probe.rows->MapPartitions(
        [broadcast_id, probe_keys = probe.keys, build_is_left = *build == 0](
            int, const std::vector<Row>& in, TaskContext* tctx) {
          auto table = GetBroadcast<vec::JoinBuild>(tctx, broadcast_id);
          std::vector<Row> out;
          table->Probe(*probe_keys, in, build_is_left, &out);
          tctx->work().rows_processed += in.size();
          tctx->work().hash_records += in.size();
          return out;
        },
        "mapJoinProbe");
  } else {
    // Shuffle join: hash-partitioned straight into the static reducer
    // count, or PDE's reducer choice over both inputs' fine buckets.
    BucketAssignment assignment;
    if (mode == JoinOptimization::kStatic) {
      for (Side& s : sides) partition(s, static_reducers);
      metrics_.chosen_reducers = static_reducers;
      assignment = IdentityAssignment(static_reducers);
    } else {
      for (int side : {0, 1}) {
        if (sides[side].dep == nullptr) SHARK_RETURN_NOT_OK(pre_shuffle(side));
      }
      assignment = CoalesceObserved({&sides[0].stats, &sides[1].stats},
                                    FineBuckets());
    }
    joined = vec::BuildJoinReduce(sides[0].dep, sides[1].dep, join_type,
                                  left_width, right_width, assignment);
  }
  return ApplyPredicate(joined, residual, "joinResidual");
}

Result<RddPtr<Row>> Executor::BuildJoinSpine(const PlanPtr& plan,
                                             bool* applied) {
  *applied = false;
  CardinalityEstimator est(catalog_);
  JoinGraph g;
  if (!ExtractJoinGraph(plan, est, &g) || g.leaves.size() < 3) return RddPtr<Row>();
  const int n = static_cast<int>(g.leaves.size());
  PlanCostEnv env = MakeCostEnv(ctx_, catalog_, options_);

  JoinOrderResult r = n <= options_.dp_max_relations
                          ? ChooseJoinOrderDp(g, env)
                          : ChooseJoinOrderGreedy(g, env);
  if (r.cost < 0 || static_cast<int>(r.order.size()) != n) return RddPtr<Row>();
  std::vector<int> order = r.order;
  *applied = true;

  int total_width = 0;
  for (const JoinGraphLeaf& l : g.leaves) total_width += l.width;
  std::vector<Field> global_fields(static_cast<size_t>(total_width));
  for (const JoinGraphLeaf& l : g.leaves) {
    for (int w = 0; w < l.width; ++w) {
      global_fields[static_cast<size_t>(l.slot_begin + w)] =
          l.plan->output[static_cast<size_t>(w)];
    }
  }

  const JoinGraphLeaf& first = g.leaves[static_cast<size_t>(order[0])];
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> cur, BuildRdd(first.plan));
  std::vector<int> local_of_global(static_cast<size_t>(total_width), -1);
  for (int w = 0; w < first.width; ++w) {
    local_of_global[static_cast<size_t>(first.slot_begin + w)] = w;
  }
  uint32_t mask = 1u << order[0];
  int cur_width = first.width;
  std::vector<bool> pred_applied(g.preds.size(), false);

  // Conjunction of not-yet-applied predicates covered by `new_mask`, rebound
  // to the composite's local layout; accumulates their selectivity product.
  auto pending_residual = [&](uint32_t new_mask, double* sel) -> ExprPtr {
    std::vector<ExprPtr> residuals;
    for (size_t p = 0; p < g.preds.size(); ++p) {
      if (pred_applied[p]) continue;
      if ((g.preds[p].leaf_mask & new_mask) != g.preds[p].leaf_mask) continue;
      pred_applied[p] = true;
      if (sel != nullptr) *sel *= g.preds[p].selectivity;
      std::map<int, int> remap;
      std::set<int> slots;
      CollectSlots(*g.preds[p].expr, &slots);
      for (int s : slots) {
        remap[s] = local_of_global[static_cast<size_t>(s)];
      }
      residuals.push_back(RemapSlots(*g.preds[p].expr, remap));
    }
    return residuals.empty() ? nullptr : CombineConjuncts(residuals);
  };
  if (ExprPtr first_res = pending_residual(mask, nullptr)) {
    SHARK_ASSIGN_OR_RETURN(cur, ApplyPredicate(cur, first_res, "joinResidual"));
  }

  // Running composite estimate; observations overwrite it so downstream
  // step estimates inherit the correction.
  double cur_rows = g.SubsetRows(mask);
  double cur_row_width = first.row_width;

  // Re-enumerate the order of `remaining_ids` behind a pinned composite
  // pseudo-leaf (rows/width as given, covering `comp_mask`). Returns the
  // chosen order mapped back to original leaf ids, or empty when the
  // enumerator found nothing valid.
  auto replan_remaining =
      [&](double comp_rows, double comp_row_width, uint32_t comp_mask,
          const std::vector<int>& remaining_ids,
          const std::vector<bool>& applied) -> std::vector<int> {
    JoinGraph g2;
    JoinGraphLeaf comp;
    comp.rows = comp_rows;
    comp.row_width = comp_row_width;
    g2.leaves.push_back(comp);
    std::vector<int> new_index(static_cast<size_t>(n), -1);
    for (size_t j = 0; j < remaining_ids.size(); ++j) {
      new_index[static_cast<size_t>(remaining_ids[j])] =
          static_cast<int>(j) + 1;
      g2.leaves.push_back(g.leaves[static_cast<size_t>(remaining_ids[j])]);
    }
    for (const JoinGraphEdge& e : g.edges) {
      const bool a_in = (comp_mask >> e.a) & 1u;
      const bool b_in = (comp_mask >> e.b) & 1u;
      if (a_in && b_in) continue;
      JoinGraphEdge e2 = e;
      e2.a = a_in ? 0 : new_index[static_cast<size_t>(e.a)];
      e2.b = b_in ? 0 : new_index[static_cast<size_t>(e.b)];
      if (e2.a < 0 || e2.b < 0) continue;
      g2.edges.push_back(e2);
    }
    for (size_t p = 0; p < g.preds.size(); ++p) {
      if (applied[p]) continue;
      JoinGraphPred p2 = g.preds[p];
      uint32_t m2 = 0;
      bool mappable = true;
      for (int b = 0; b < n; ++b) {
        if (!((p2.leaf_mask >> b) & 1u)) continue;
        if ((comp_mask >> b) & 1u) {
          m2 |= 1u;
        } else if (new_index[static_cast<size_t>(b)] >= 0) {
          m2 |= 1u << new_index[static_cast<size_t>(b)];
        } else {
          mappable = false;
        }
      }
      if (!mappable) continue;
      p2.leaf_mask = m2;
      g2.preds.push_back(p2);
    }
    const int n2 = static_cast<int>(g2.leaves.size());
    JoinOrderResult r2 =
        n2 <= options_.dp_max_relations
            ? ChooseJoinOrderDp(g2, env, /*required_first=*/0)
            : ChooseJoinOrderGreedy(g2, env, /*required_first=*/0);
    if (r2.cost < 0 || static_cast<int>(r2.order.size()) != n2 ||
        r2.order[0] != 0) {
      return {};
    }
    std::vector<int> out;
    out.reserve(remaining_ids.size());
    for (int j = 1; j < n2; ++j) {
      out.push_back(
          remaining_ids[static_cast<size_t>(r2.order[static_cast<size_t>(j)] - 1)]);
    }
    return out;
  };

  // Each leaf's cardinality can be corrected (and its step aborted) at most
  // once; after the correction the re-enumeration sees the observed rows, so
  // the bound only guards against estimator pathologies.
  int aborts_left = n;
  for (int i = 1; i < n;) {
    const int li = order[i];
    const JoinGraphLeaf& leaf = g.leaves[static_cast<size_t>(li)];

    std::vector<ExprPtr> lkeys;
    std::vector<ExprPtr> rkeys;
    double step_sel = 1.0;
    for (const JoinGraphEdge& e : g.edges) {
      int comp_slot, leaf_slot;
      if (e.a == li && ((mask >> e.b) & 1u)) {
        leaf_slot = e.a_slot;
        comp_slot = e.b_slot;
      } else if (e.b == li && ((mask >> e.a) & 1u)) {
        leaf_slot = e.b_slot;
        comp_slot = e.a_slot;
      } else {
        continue;
      }
      step_sel *= e.selectivity;
      lkeys.push_back(
          MakeSlot(local_of_global[static_cast<size_t>(comp_slot)],
                   global_fields[static_cast<size_t>(comp_slot)].type));
      rkeys.push_back(
          MakeSlot(leaf_slot - leaf.slot_begin,
                   global_fields[static_cast<size_t>(leaf_slot)].type));
    }
    if (lkeys.empty()) {
      // DP/greedy orders are connected by construction.
      return Status::Internal("join spine step has no equi-key");
    }

    SHARK_ASSIGN_OR_RETURN(RddPtr<Row> leaf_rdd, BuildRdd(leaf.plan));

    const uint32_t new_mask = mask | (1u << li);
    // Snapshot the state this step mutates: an aborted step must leave no
    // trace (its join pair is still lazy — only the pre-shuffle map stages
    // have run, and those are sunk either way).
    const std::vector<int> log_saved = local_of_global;
    const std::vector<bool> preds_saved = pred_applied;
    for (int w = 0; w < leaf.width; ++w) {
      local_of_global[static_cast<size_t>(leaf.slot_begin + w)] =
          cur_width + w;
    }
    ExprPtr residual = pending_residual(new_mask, &step_sel);

    double comp_belief = cur_rows * cur_row_width * ctx_->virtual_scale();
    JoinSideObservation obsv;
    RddPtr<Row> prev = cur;
    SHARK_ASSIGN_OR_RETURN(
        cur, BuildJoinPair(cur, leaf_rdd, std::move(lkeys), std::move(rkeys),
                           JoinType::kInner, cur_width, leaf.width, residual,
                           comp_belief, BeliefBytes(*leaf.plan),
                           StaticReducers(*plan), &obsv));

    // Fold observed input sizes back into the estimates (§4's statistics
    // feedback) and measure how far off the beliefs were.
    double deviation = 1.0;
    auto fold = [&deviation](const std::optional<uint64_t>& records,
                             double estimate) {
      estimate = std::max(estimate, 1.0);
      if (!records.has_value()) return estimate;
      const double actual = std::max(static_cast<double>(*records), 1.0);
      deviation = std::max({deviation, actual / estimate, estimate / actual});
      return actual;
    };
    const double comp_in = fold(obsv.left_records, cur_rows);
    const double leaf_in = fold(obsv.right_records, leaf.rows);
    if (obsv.right_records.has_value()) {
      g.leaves[static_cast<size_t>(li)].rows = leaf_in;
    }

    const int remaining = n - 1 - i;
    if (deviation > options_.replan_factor && remaining >= 1 &&
        aborts_left > 0) {
      // Mid-query re-optimization. The pair above is still lazy: the
      // adaptive join only ran its pre-shuffle map stages to observe input
      // sizes, so the expensive reduce/probe work has not started. Put the
      // current leaf back into the pool with its observed cardinality and
      // re-enumerate; if the corrected order leads with a different leaf,
      // abandon the pair and take that order instead.
      std::vector<int> pool(order.begin() + i, order.end());
      std::vector<int> corrected = replan_remaining(
          obsv.left_records.has_value() ? comp_in : cur_rows, cur_row_width,
          mask, pool, preds_saved);
      if (!corrected.empty() && corrected[0] != li) {
        --aborts_left;
        cur = prev;
        local_of_global = log_saved;
        pred_applied = preds_saved;
        if (obsv.left_records.has_value()) cur_rows = comp_in;
        std::copy(corrected.begin(), corrected.end(), order.begin() + i);
        metrics_.replans += 1;
        continue;  // redo position i with the corrected order
      }
      if (remaining >= 2) {
        // Same leading leaf even with corrected cardinalities: keep the pair
        // and re-enumerate just the tail behind the joined composite.
        double joined_rows = std::max(1.0, comp_in * leaf_in * step_sel);
        std::vector<int> tail(order.begin() + i + 1, order.end());
        std::vector<int> reordered =
            replan_remaining(joined_rows, cur_row_width + leaf.row_width,
                             new_mask, tail, pred_applied);
        if (!reordered.empty()) {
          std::copy(reordered.begin(), reordered.end(),
                    order.begin() + i + 1);
          metrics_.replans += 1;
        }
      }
    }

    cur_rows = std::max(1.0, comp_in * leaf_in * step_sel);
    cur_row_width += leaf.row_width;
    cur_width += leaf.width;
    mask = new_mask;
    ++i;
  }

  // The spine's execution order concatenated columns in join order; restore
  // the node's declared layout when they differ.
  bool identity = true;
  for (int s = 0; s < total_width; ++s) {
    if (local_of_global[static_cast<size_t>(s)] != s) {
      identity = false;
      break;
    }
  }
  if (!identity) {
    auto remap = std::make_shared<std::vector<int>>(local_of_global);
    cur = RddPtr<Row>(cur->MapPartitions(
        [remap](int, const std::vector<Row>& in, TaskContext* tctx) {
          std::vector<Row> out;
          out.reserve(in.size());
          for (const Row& r : in) {
            Row o;
            o.fields.reserve(remap->size());
            for (int src : *remap) {
              o.fields.push_back(r.fields[static_cast<size_t>(src)]);
            }
            out.push_back(std::move(o));
          }
          tctx->work().rows_processed += in.size();
          return out;
        },
        "joinRestore"));
  }
  return cur;
}

Result<RddPtr<Row>> Executor::BuildSort(const LogicalPlan& node) {
  SHARK_ASSIGN_OR_RETURN(Programs keys, CompileAll(node.sort_exprs, udfs_));
  const vec::SortSpec spec{
      keys, std::make_shared<const std::vector<bool>>(node.sort_ascending),
      node.limit};
  // Columnar top-k: under a LIMIT over a projected cached scan, one fused
  // map task keeps each task's first rows on typed columns and builds only
  // those (ORDER BY always sorts a Project, the select list).
  RddPtr<Row> partial;
  const LogicalPlan& child = *node.children[0];
  if (node.limit >= 0 && child.kind == PlanKind::kProject) {
    SHARK_ASSIGN_OR_RETURN(Programs projects,
                           CompileAll(child.project_exprs, udfs_));
    vec::VecScan vs;
    if (PrepareVecScan(*child.children[0], &vs)) {
      uint64_t extra = 0;
      for (const auto& e : child.project_exprs) extra += UdfExtraRows(*e, udfs_);
      partial = vec::BuildVecTopK(vs, projects, extra, spec);
    }
  }
  auto sort_rows = [spec](int, const std::vector<Row>& in, TaskContext* tctx) {
    return vec::SortRows(in, spec, tctx);
  };
  if (partial == nullptr) {
    SHARK_ASSIGN_OR_RETURN(RddPtr<Row> rows, BuildRdd(node.children[0]));
    partial = rows->MapPartitions(sort_rows, "sortPartial");
  }

  // Per-partition (top-k) sort, then a single-reducer merge — Hive's ORDER
  // BY uses one reducer as well.
  auto dep = std::make_shared<PlainShuffleDep<Row>>(
      partial, 1, [](const Row&) { return 0; });
  auto gathered = std::make_shared<RepartitionedRdd<Row>>(
      ctx_, dep, BucketAssignment{{0}}, "sortGather");
  return RddPtr<Row>(gathered->MapPartitions(sort_rows, "sortFinal"));
}

Result<RddPtr<Row>> Executor::BuildLimit(const LogicalPlan& node) {
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> child, BuildRdd(node.children[0]));
  int64_t limit = node.limit;
  // LIMIT pushdown to individual partitions (§2.4); the driver applies the
  // final cut after collect.
  return RddPtr<Row>(child->MapPartitions(
      [limit](int, const std::vector<Row>& in, TaskContext* tctx) {
        const auto kept = static_cast<std::ptrdiff_t>(
            std::min<uint64_t>(in.size(), static_cast<uint64_t>(limit)));
        std::vector<Row> out(in.begin(), in.begin() + kept);
        tctx->work().rows_processed += out.size();
        return out;
      },
      "limit"));
}

Result<QueryResult> Executor::ExecuteInner(const PlanPtr& plan) {
  metrics_ = QueryMetrics();
  double start = ctx_->now();
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> rdd, BuildRdd(plan));
  SHARK_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectTracked(rdd));
  if (plan->limit >= 0 &&
      (plan->kind == PlanKind::kLimit || plan->kind == PlanKind::kSort) &&
      static_cast<int64_t>(rows.size()) > plan->limit) {
    rows.resize(static_cast<size_t>(plan->limit));
  }
  QueryResult result;
  result.schema = Schema(plan->output);
  result.rows = std::move(rows);
  metrics_.virtual_seconds = ctx_->now() - start;
  result.metrics = metrics_;
  return result;
}

Result<QueryResult> Executor::Execute(const PlanPtr& plan) {
  TraceCollector& tc = ctx_->trace_collector();
  // A nested Execute (subquery inside a profiled query) records its stages
  // into the outer profile; only the owner closes it.
  const bool owner = tc.BeginQuery(ctx_->now());
  Result<QueryResult> result = ExecuteInner(plan);
  if (!owner) return result;
  std::shared_ptr<QueryProfile> profile = tc.EndQuery(ctx_->now());
  if (!result.ok()) return result;
  profile->result_rows = result->rows.size();
  // Name cached RDDs after their tables so cache counters render readably.
  for (const std::string& name : catalog_->TableNames()) {
    auto info = catalog_->Get(name);
    if (info.ok() && (*info)->cached_rdd != nullptr) {
      profile->rdd_names[(*info)->cached_rdd->id()] = name;
    }
  }
  result->profile = profile;
  return result;
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE rendering
// ---------------------------------------------------------------------------

namespace {

void CollectPostOrder(const LogicalPlan* node,
                      std::vector<const LogicalPlan*>* out) {
  for (const auto& c : node->children) CollectPostOrder(c.get(), out);
  out->push_back(node);
}

/// Substrings an executing stage's label carries when it ran (part of) this
/// operator. Labels are the RDD labels the executor assigns in Build*.
std::vector<std::string> NodeStageKeys(const LogicalPlan& node) {
  switch (node.kind) {
    case PlanKind::kScan:
      return {"memScan:" + node.table,       "scanFilter:" + node.table,
              "prunedScan:" + node.table,    "dfs:warehouse/" + ToLower(node.table),
              "vecScanFilter:" + node.table, "vecScanProject:" + node.table};
    case PlanKind::kIndexScan:
      return {"indexGather:" + node.table, "prunedIndexScan:" + node.table,
              "indexFilter:" + node.table,
              // Fallback path when the index vanished before execution.
              "memScan:" + node.table, "scanFilter:" + node.table,
              "prunedScan:" + node.table};
    case PlanKind::kFilter:
      return {"filter"};
    case PlanKind::kProject:
      return {"project"};
    case PlanKind::kAggregate:
      return {"aggKey", "aggReduce", "aggFinalize"};
    case PlanKind::kJoin:
      return {"joinKey",         "joinOutput",      "mapJoinProbe",
              "gatherSmallSide", "copartitionJoin", "joinResidual",
              "joinRestore"};
    case PlanKind::kSort:
      // "sortPartial" also matches the columnar top-k's fused map task,
      // "sortPartial:vecScan:<table>", which scans, projects and sorts.
      return {"sortPartial", "sortGather", "sortFinal"};
    case PlanKind::kLimit:
      return {"limit"};
    case PlanKind::kUnion:
      return {};
  }
  return {};
}

/// Substrings of a fused map task's label when the task also ran this
/// operator, though the stage belongs to the operator it ends in: a Scan
/// runs inside "sortPartial:vecScan:<table>" (columnar top-k) and
/// "aggKey:vecScan:<table>" (vectorized group-by).
std::vector<std::string> NodeFusedKeys(const LogicalPlan& node) {
  if (node.kind == PlanKind::kScan) return {"vecScan:" + node.table};
  return {};
}

std::string StageAnnotation(const StageTrace& st, int indent,
                            const QueryProfile& profile) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s-> stage %d [%s] %.3fs..%.3fs tasks=%d",
                pad.c_str(), st.id, st.label.c_str(), st.start_time,
                st.end_time, st.committed());
  std::string out = buf;
  if (st.speculative > 0) out += " spec=" + std::to_string(st.speculative);
  if (st.failed() > 0) out += " failed=" + std::to_string(st.failed());
  out += " rows=" + std::to_string(st.rows_out);
  if (st.bytes_out > 0) out += " bytes=" + FormatBytes(st.bytes_out);
  out += "\n";
  if (st.shuffle.buckets > 0) {
    std::snprintf(buf, sizeof(buf),
                  "%s   shuffle: buckets=%d min=%s med=%s max=%s skew=%.2f\n",
                  pad.c_str(), st.shuffle.buckets,
                  FormatBytes(st.shuffle.min_bytes).c_str(),
                  FormatBytes(st.shuffle.p50_bytes).c_str(),
                  FormatBytes(st.shuffle.max_bytes).c_str(), st.shuffle.skew);
    out += buf;
  }
  for (const auto& [rdd_id, c] : st.cache_by_rdd) {
    auto it = profile.rdd_names.find(rdd_id);
    std::string name =
        it != profile.rdd_names.end() ? it->second : "rdd" + std::to_string(rdd_id);
    out += pad + "   cache[" + name + "]: hits=" + std::to_string(c.hit_blocks) +
           " (" + FormatBytes(c.hit_bytes) + ")";
    if (c.miss_blocks > 0) {
      out += " misses=" + std::to_string(c.miss_blocks) + " (" +
             FormatBytes(c.miss_bytes) + ")";
    }
    out += "\n";
  }
  out += pad + "   work: " + WorkSummary(st.work) + "\n";
  if (st.spilled_tasks > 0) {
    out += pad + "   spill: " + FormatBytes(st.spill_bytes) + " in " +
           std::to_string(st.spill_partitions) + " partitions across " +
           std::to_string(st.spilled_tasks) + " tasks\n";
  }
  if (st.disk_served_outputs > 0) {
    out += pad + "   shuffle-serve: disk outputs=" +
           std::to_string(st.disk_served_outputs) + "/" +
           std::to_string(st.committed()) + "\n";
  }
  for (const std::string& e : st.events) out += pad + "   event: " + e + "\n";
  return out;
}

using StagesByNode =
    std::map<const LogicalPlan*, std::vector<const StageTrace*>>;

void AppendAnalyzed(const LogicalPlan& node, int indent,
                    const StagesByNode& by_node, const StagesByNode& fused,
                    const QueryProfile& profile, std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  *out += pad + node.NodeString() + "\n";
  if (auto f = fused.find(&node); f != fused.end()) {
    for (const StageTrace* st : f->second) {
      *out += pad + "  -> fused into stage " + std::to_string(st->id) + " [" +
              st->label + "]\n";
    }
  }
  auto it = by_node.find(&node);
  if (it != by_node.end()) {
    // Estimated vs observed cardinality: the last stage matched to this
    // operator carries its output rows (earlier ones are map sides).
    if (node.est_rows >= 0 && !it->second.empty()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s  est_rows=%.0f actual_rows=%llu\n",
                    pad.c_str(), node.est_rows,
                    static_cast<unsigned long long>(
                        it->second.back()->rows_out));
      *out += buf;
    }
    for (const StageTrace* st : it->second) {
      *out += StageAnnotation(*st, indent + 1, profile);
    }
  }
  for (const auto& c : node.children) {
    AppendAnalyzed(*c, indent + 1, by_node, fused, profile, out);
  }
}

}  // namespace

std::string RenderAnalyzedPlan(const LogicalPlan& plan,
                               const QueryProfile& profile) {
  std::vector<const LogicalPlan*> nodes;
  CollectPostOrder(&plan, &nodes);
  // Assign each stage to the deepest operator whose label keys match; a
  // "shuffleMap:x" stage executed operator x's map side. Other operators
  // the stage's fused task ran point to it.
  StagesByNode by_node;
  StagesByNode fused;
  std::vector<const StageTrace*> unmatched;
  for (const StageTrace& st : profile.stages) {
    std::string label = st.label;
    constexpr const char kMapPrefix[] = "shuffleMap:";
    if (label.rfind(kMapPrefix, 0) == 0) {
      label = label.substr(sizeof(kMapPrefix) - 1);
    }
    const LogicalPlan* target = nullptr;
    for (const LogicalPlan* n : nodes) {
      for (const std::string& key : NodeStageKeys(*n)) {
        if (label.find(key) != std::string::npos) {
          target = n;
          break;
        }
      }
      if (target != nullptr) break;
    }
    if (target == nullptr) {
      unmatched.push_back(&st);
      continue;
    }
    by_node[target].push_back(&st);
    for (const LogicalPlan* n : nodes) {
      for (const std::string& key : NodeFusedKeys(*n)) {
        if (n != target && label.find(key) != std::string::npos) {
          fused[n].push_back(&st);
          break;
        }
      }
    }
  }
  std::string out;
  AppendAnalyzed(plan, 0, by_node, fused, profile, &out);
  if (!unmatched.empty()) {
    out += "other stages:\n";
    for (const StageTrace* st : unmatched) {
      out += StageAnnotation(*st, 1, profile);
    }
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "total: %.3fs, %d stages, %llu result rows\n",
                profile.duration(), static_cast<int>(profile.stages.size()),
                static_cast<unsigned long long>(profile.result_rows));
  out += buf;
  return out;
}

}  // namespace shark
