#include "sql/analyzer.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace shark {

namespace {

/// Collects aggregate calls during select-list rewriting over an Aggregate.
struct AggContext {
  std::vector<ExprPtr> group_exprs;   // bound over the aggregate's input
  std::vector<ExprPtr> call_exprs;    // bound kAggCall expressions
  std::vector<AggCall> calls;
};

AggCall::Fn AggFnFromName(const std::string& name, bool distinct, bool star) {
  if (name == "COUNT") {
    if (star) return AggCall::Fn::kCountStar;
    return distinct ? AggCall::Fn::kCountDistinct : AggCall::Fn::kCount;
  }
  if (name == "SUM") return AggCall::Fn::kSum;
  if (name == "AVG") return AggCall::Fn::kAvg;
  if (name == "MIN") return AggCall::Fn::kMin;
  return AggCall::Fn::kMax;
}

TypeKind AggOutType(AggCall::Fn fn, const std::vector<ExprPtr>& args) {
  switch (fn) {
    case AggCall::Fn::kCountStar:
    case AggCall::Fn::kCount:
    case AggCall::Fn::kCountDistinct:
      return TypeKind::kInt64;
    case AggCall::Fn::kAvg:
      return TypeKind::kDouble;
    case AggCall::Fn::kSum:
      return args.empty() || args[0]->type == TypeKind::kInt64
                 ? TypeKind::kInt64
                 : TypeKind::kDouble;
    case AggCall::Fn::kMin:
    case AggCall::Fn::kMax:
      return args.empty() ? TypeKind::kNull : args[0]->type;
  }
  return TypeKind::kNull;
}

/// Rewrites a bound expression to reference the output of an Aggregate node:
/// group expressions become slots [0, G), aggregate calls become slots
/// [G, G+A). New aggregate calls are appended to the context.
Result<ExprPtr> RewriteOverAggregate(const ExprPtr& bound, AggContext* ctx) {
  for (size_t g = 0; g < ctx->group_exprs.size(); ++g) {
    if (bound->Equals(*ctx->group_exprs[g])) {
      return MakeSlot(static_cast<int>(g), bound->type);
    }
  }
  if (bound->kind == ExprKind::kAggCall) {
    for (size_t a = 0; a < ctx->call_exprs.size(); ++a) {
      if (bound->Equals(*ctx->call_exprs[a])) {
        return MakeSlot(static_cast<int>(ctx->group_exprs.size() + a),
                        ctx->calls[a].out_type);
      }
    }
    AggCall call;
    call.fn = AggFnFromName(bound->name, bound->distinct, bound->star);
    call.args = bound->children;
    call.out_type = AggOutType(call.fn, call.args);
    ctx->calls.push_back(call);
    ctx->call_exprs.push_back(bound);
    return MakeSlot(
        static_cast<int>(ctx->group_exprs.size() + ctx->calls.size() - 1),
        call.out_type);
  }
  if (bound->kind == ExprKind::kSlot || bound->kind == ExprKind::kColumnRef) {
    return Status::AnalysisError("expression '" + bound->ToString() +
                                 "' is neither grouped nor aggregated");
  }
  ExprPtr out = CloneExpr(*bound);
  for (auto& child : out->children) {
    SHARK_ASSIGN_OR_RETURN(child, RewriteOverAggregate(child, ctx));
  }
  return out;
}

std::string OutputName(const SelectItem& item, const ExprPtr& bound,
                       size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr && item.expr->kind == ExprKind::kColumnRef) {
    return item.expr->name;
  }
  if (bound != nullptr && bound->kind == ExprKind::kSlot) {
    return "_c" + std::to_string(index);
  }
  return item.expr != nullptr ? item.expr->ToString()
                              : "_c" + std::to_string(index);
}

bool IsBuiltinFunction(const std::string& name) {
  static const char* kBuiltins[] = {
      "SUBSTR", "SUBSTRING", "LOWER",   "UPPER", "LENGTH", "ABS",
      "YEAR",   "CONCAT",    "ROUND",   "COALESCE", "IF",  "FLOOR",
      "CEIL",   "CEILING",   "SQRT",    "POW",   "POWER",  "TRIM",
      "MONTH",  "DAY"};
  for (const char* b : kBuiltins) {
    if (name == b) return true;
  }
  return false;
}

TypeKind BuiltinReturnType(const std::string& name,
                           const std::vector<ExprPtr>& args) {
  if (name == "SUBSTR" || name == "SUBSTRING" || name == "LOWER" ||
      name == "UPPER" || name == "CONCAT") {
    return TypeKind::kString;
  }
  if (name == "LENGTH" || name == "YEAR" || name == "MONTH" ||
      name == "DAY" || name == "FLOOR" || name == "CEIL" ||
      name == "CEILING") {
    return TypeKind::kInt64;
  }
  if (name == "ROUND" || name == "SQRT" || name == "POW" || name == "POWER") {
    return TypeKind::kDouble;
  }
  if (name == "TRIM") return TypeKind::kString;
  if (name == "ABS" || name == "COALESCE") {
    return args.empty() ? TypeKind::kDouble : args[0]->type;
  }
  if (name == "IF") {
    return args.size() >= 2 ? args[1]->type : TypeKind::kNull;
  }
  return TypeKind::kNull;
}

}  // namespace

Status Analyzer::InferType(Expr* e) const {
  for (auto& c : e->children) SHARK_RETURN_NOT_OK(InferType(c.get()));
  switch (e->kind) {
    case ExprKind::kLiteral:
      e->type = e->literal.kind();
      break;
    case ExprKind::kSlot:
      break;  // set at binding
    case ExprKind::kColumnRef:
      return Status::Internal("unbound column ref in InferType");
    case ExprKind::kUnary:
      e->type = e->unary_op == UnaryOp::kNot ? TypeKind::kBool
                                             : e->children[0]->type;
      break;
    case ExprKind::kBinary:
      switch (e->binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kMod:
          e->type = (e->children[0]->type == TypeKind::kDouble ||
                     e->children[1]->type == TypeKind::kDouble)
                        ? TypeKind::kDouble
                        : TypeKind::kInt64;
          break;
        case BinaryOp::kDiv:
          e->type = TypeKind::kDouble;
          break;
        default:
          e->type = TypeKind::kBool;
          break;
      }
      break;
    case ExprKind::kFuncCall: {
      if (udfs_ != nullptr) {
        if (const UdfRegistry::UdfInfo* info = udfs_->Lookup(e->name)) {
          e->type = info->return_type;
          break;
        }
      }
      if (!IsBuiltinFunction(e->name)) {
        return Status::AnalysisError("unknown function: " + e->name);
      }
      e->type = BuiltinReturnType(e->name, e->children);
      break;
    }
    case ExprKind::kAggCall:
      e->type = AggOutType(AggFnFromName(e->name, e->distinct, e->star),
                           e->children);
      break;
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
    case ExprKind::kLike:
      e->type = TypeKind::kBool;
      break;
    case ExprKind::kCase:
      e->type = e->children.size() >= 2 ? e->children[1]->type
                                        : TypeKind::kNull;
      break;
  }
  return Status::OK();
}

Status Analyzer::BindInPlace(Expr* e, const Scope& scope) const {
  if (e->kind == ExprKind::kColumnRef) {
    int found = -1;
    std::string qual = ToLower(e->qualifier);
    for (size_t i = 0; i < scope.size(); ++i) {
      if (!EqualsIgnoreCase(scope[i].name, e->name)) continue;
      if (!qual.empty() && scope[i].qualifier != qual) continue;
      if (found >= 0) {
        return Status::AnalysisError("ambiguous column: " + e->ToString());
      }
      found = static_cast<int>(i);
    }
    if (found < 0) {
      return Status::AnalysisError("unknown column: " + e->ToString());
    }
    e->kind = ExprKind::kSlot;
    e->slot = found;
    e->type = scope[static_cast<size_t>(found)].type;
    e->qualifier.clear();
    e->name.clear();
    return Status::OK();
  }
  for (auto& c : e->children) SHARK_RETURN_NOT_OK(BindInPlace(c.get(), scope));
  return Status::OK();
}

Result<ExprPtr> Analyzer::BindExpr(const ExprPtr& ast, const Scope& scope) const {
  ExprPtr bound = CloneExpr(*ast);
  SHARK_RETURN_NOT_OK(BindInPlace(bound.get(), scope));
  SHARK_RETURN_NOT_OK(InferType(bound.get()));
  return bound;
}

Result<PlanPtr> Analyzer::AnalyzeTableRef(const TableRef& ref,
                                          Scope* scope) const {
  if (ref.subquery != nullptr) {
    SHARK_ASSIGN_OR_RETURN(PlanPtr sub, AnalyzeSelect(*ref.subquery));
    std::string qual = ToLower(ref.alias);
    for (const Field& f : sub->output) {
      scope->push_back(ScopeColumn{qual, f.name, f.type});
    }
    return sub;
  }
  SHARK_ASSIGN_OR_RETURN(const TableInfo* info, catalog_->Get(ref.name));
  PlanPtr scan = MakePlan(PlanKind::kScan);
  scan->table = info->name;
  scan->output = info->schema.fields();
  for (int c = 0; c < info->schema.num_fields(); ++c) {
    scan->needed_columns.push_back(c);
  }
  std::string qual = ToLower(ref.alias.empty() ? ref.name : ref.alias);
  for (const Field& f : info->schema.fields()) {
    scope->push_back(ScopeColumn{qual, f.name, f.type});
  }
  return scan;
}

Result<PlanPtr> Analyzer::AnalyzeSelect(const SelectStmt& stmt) const {
  // ---- FROM and JOINs -----------------------------------------------------
  Scope scope;
  SHARK_ASSIGN_OR_RETURN(PlanPtr plan, AnalyzeTableRef(stmt.from, &scope));

  struct JoinInfo {
    PlanPtr node;
    int left_width;   // slots below this boundary belong to the left side
    int right_width;
    bool from_comma;  // keys must be recovered from WHERE
  };
  std::vector<JoinInfo> join_spine;

  for (const JoinClause& jc : stmt.joins) {
    int left_width = static_cast<int>(scope.size());
    SHARK_ASSIGN_OR_RETURN(PlanPtr right, AnalyzeTableRef(jc.table, &scope));
    int right_width = static_cast<int>(scope.size()) - left_width;

    PlanPtr join = MakePlan(PlanKind::kJoin);
    join->join_type = jc.type;
    join->children = {plan, right};
    for (const ScopeColumn& c : scope) {
      join->output.push_back(Field{c.name, c.type});
    }

    JoinInfo info{join, left_width, right_width, jc.condition == nullptr};
    if (jc.condition != nullptr) {
      SHARK_ASSIGN_OR_RETURN(ExprPtr cond, BindExpr(jc.condition, scope));
      std::vector<ExprPtr> residual;
      for (const ExprPtr& conj : SplitConjuncts(cond)) {
        bool used_as_key = false;
        if (conj->kind == ExprKind::kBinary &&
            conj->binary_op == BinaryOp::kEq) {
          std::set<int> lslots, rslots;
          CollectSlots(*conj->children[0], &lslots);
          CollectSlots(*conj->children[1], &rslots);
          auto all_below = [&](const std::set<int>& s) {
            return !s.empty() && *s.rbegin() < left_width;
          };
          auto all_at_or_above = [&](const std::set<int>& s) {
            return !s.empty() && *s.begin() >= left_width;
          };
          ExprPtr lk, rk;
          if (all_below(lslots) && all_at_or_above(rslots)) {
            lk = conj->children[0];
            rk = conj->children[1];
          } else if (all_below(rslots) && all_at_or_above(lslots)) {
            lk = conj->children[1];
            rk = conj->children[0];
          }
          if (lk != nullptr) {
            std::map<int, int> shift;
            for (int s = left_width; s < static_cast<int>(scope.size()); ++s) {
              shift[s] = s - left_width;
            }
            join->left_keys.push_back(lk);
            join->right_keys.push_back(RemapSlots(*rk, shift));
            used_as_key = true;
          }
        }
        if (!used_as_key) residual.push_back(conj);
      }
      join->join_residual = CombineConjuncts(residual);
      if (join->left_keys.empty()) {
        return Status::AnalysisError(
            "join without an equi-key condition is not supported");
      }
    }
    join_spine.push_back(info);
    plan = join;
  }

  // ---- WHERE ---------------------------------------------------------------
  std::vector<ExprPtr> where_conjuncts;
  if (stmt.where != nullptr) {
    SHARK_ASSIGN_OR_RETURN(ExprPtr where, BindExpr(stmt.where, scope));
    where_conjuncts = SplitConjuncts(where);
  }

  // Recover equi-keys for comma joins from WHERE conjuncts.
  for (JoinInfo& info : join_spine) {
    if (!info.from_comma) continue;
    int boundary = info.left_width;
    int upper = info.left_width + info.right_width;
    for (auto it = where_conjuncts.begin(); it != where_conjuncts.end();) {
      const ExprPtr& conj = *it;
      bool took = false;
      if (conj->kind == ExprKind::kBinary && conj->binary_op == BinaryOp::kEq) {
        std::set<int> lslots, rslots;
        CollectSlots(*conj->children[0], &lslots);
        CollectSlots(*conj->children[1], &rslots);
        auto left_side = [&](const std::set<int>& s) {
          return !s.empty() && *s.rbegin() < boundary;
        };
        auto right_side = [&](const std::set<int>& s) {
          return !s.empty() && *s.begin() >= boundary && *s.rbegin() < upper;
        };
        ExprPtr lk, rk;
        if (left_side(lslots) && right_side(rslots)) {
          lk = conj->children[0];
          rk = conj->children[1];
        } else if (left_side(rslots) && right_side(lslots)) {
          lk = conj->children[1];
          rk = conj->children[0];
        }
        if (lk != nullptr) {
          std::map<int, int> shift;
          for (int s = boundary; s < upper; ++s) shift[s] = s - boundary;
          info.node->left_keys.push_back(lk);
          info.node->right_keys.push_back(RemapSlots(*rk, shift));
          took = true;
        }
      }
      it = took ? where_conjuncts.erase(it) : it + 1;
    }
    if (info.node->left_keys.empty()) {
      return Status::AnalysisError(
          "comma join without an equality predicate linking the tables");
    }
  }

  if (!where_conjuncts.empty()) {
    PlanPtr filter = MakePlan(PlanKind::kFilter);
    filter->children = {plan};
    filter->output = plan->output;
    filter->predicate = CombineConjuncts(where_conjuncts);
    plan = filter;
  }

  // ---- Select list / aggregation -------------------------------------------
  // Expand stars and bind every select item over the FROM scope.
  std::vector<SelectItem> items;
  std::vector<ExprPtr> bound_items;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      std::string qual = ToLower(item.star_qualifier);
      for (size_t i = 0; i < scope.size(); ++i) {
        if (!qual.empty() && scope[i].qualifier != qual) continue;
        SelectItem expanded;
        expanded.alias = scope[i].name;
        expanded.expr = MakeColumnRef(scope[i].qualifier, scope[i].name);
        items.push_back(expanded);
        bound_items.push_back(
            MakeSlot(static_cast<int>(i), scope[i].type));
      }
      if (!qual.empty() && (items.empty() ||
                            items.back().alias.empty())) {
        // fallthrough; unknown qualifier caught by empty expansion below
      }
      continue;
    }
    items.push_back(item);
    SHARK_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(item.expr, scope));
    bound_items.push_back(bound);
  }
  if (items.empty()) return Status::AnalysisError("empty select list");

  bool has_agg = !stmt.group_by.empty();
  for (const ExprPtr& e : bound_items) has_agg = has_agg || ContainsAggregate(*e);
  if (stmt.having != nullptr) has_agg = true;

  // Pre-rewrite copies for ORDER BY structural matching.
  std::vector<ExprPtr> items_over_scope = bound_items;
  ExprPtr bound_having;
  if (has_agg) {
    AggContext agg_ctx;
    for (const ExprPtr& g : stmt.group_by) {
      SHARK_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(g, scope));
      agg_ctx.group_exprs.push_back(bound);
    }
    // Rewrite select items over the aggregate output.
    std::vector<ExprPtr> rewritten;
    for (ExprPtr& e : bound_items) {
      SHARK_ASSIGN_OR_RETURN(ExprPtr r, RewriteOverAggregate(e, &agg_ctx));
      rewritten.push_back(r);
    }
    if (stmt.having != nullptr) {
      SHARK_ASSIGN_OR_RETURN(ExprPtr bh, BindExpr(stmt.having, scope));
      SHARK_ASSIGN_OR_RETURN(bound_having, RewriteOverAggregate(bh, &agg_ctx));
    }
    PlanPtr agg = MakePlan(PlanKind::kAggregate);
    agg->children = {plan};
    agg->group_exprs = agg_ctx.group_exprs;
    agg->agg_calls = agg_ctx.calls;
    for (size_t g = 0; g < agg_ctx.group_exprs.size(); ++g) {
      agg->output.push_back(Field{"_g" + std::to_string(g),
                                  agg_ctx.group_exprs[g]->type});
    }
    for (size_t a = 0; a < agg_ctx.calls.size(); ++a) {
      agg->output.push_back(
          Field{"_a" + std::to_string(a), agg_ctx.calls[a].out_type});
    }
    plan = agg;
    bound_items = std::move(rewritten);
  }

  if (bound_having != nullptr) {
    PlanPtr filter = MakePlan(PlanKind::kFilter);
    filter->children = {plan};
    filter->output = plan->output;
    filter->predicate = bound_having;
    plan = filter;
  }

  // ---- Projection -----------------------------------------------------------
  PlanPtr project = MakePlan(PlanKind::kProject);
  project->children = {plan};
  project->project_exprs = bound_items;
  for (size_t i = 0; i < items.size(); ++i) {
    project->output.push_back(
        Field{OutputName(items[i], bound_items[i], i), bound_items[i]->type});
  }
  plan = project;

  // ---- DISTINCT --------------------------------------------------------------
  if (stmt.distinct) {
    PlanPtr agg = MakePlan(PlanKind::kAggregate);
    agg->children = {plan};
    agg->output = plan->output;
    for (int i = 0; i < plan->num_output_columns(); ++i) {
      agg->group_exprs.push_back(MakeSlot(i, plan->output[static_cast<size_t>(i)].type));
    }
    plan = agg;
  }

  // ---- ORDER BY / LIMIT -------------------------------------------------------
  if (!stmt.order_by.empty()) {
    Scope out_scope;
    for (const Field& f : plan->output) {
      out_scope.push_back(ScopeColumn{"", f.name, f.type});
    }
    PlanPtr sort = MakePlan(PlanKind::kSort);
    sort->children = {plan};
    sort->output = plan->output;
    for (const OrderItem& item : stmt.order_by) {
      auto bound = BindExpr(item.expr, out_scope);
      // An aggregate binds over the output scope whenever its arguments do
      // (COUNT(*) always), but the sort evaluates keys per row, not per
      // group: an aggregate key must match a select item.
      if (!bound.ok() || ContainsAggregate(**bound)) {
        // Structural match against the select expressions, both in their
        // post-aggregate form and as originally bound over the FROM scope
        // (so ORDER BY SUM(a) matches a SUM(a) select item).
        SHARK_ASSIGN_OR_RETURN(ExprPtr over_input, BindExpr(item.expr, scope));
        int found = -1;
        for (size_t i = 0; i < items_over_scope.size(); ++i) {
          // Match only against the items as bound over the FROM scope —
          // over_input lives in that frame. Comparing against the
          // post-aggregate rewrites (bound_items) would collide slot
          // indices across frames: ORDER BY a.c0 (input slot 0) must not
          // match an aggregate-output slot 0 that holds a different column.
          if (over_input->Equals(*items_over_scope[i])) {
            found = static_cast<int>(i);
            break;
          }
        }
        if (found < 0) {
          return Status::AnalysisError(
              "ORDER BY expression must appear in the select list: " +
              item.expr->ToString());
        }
        sort->sort_exprs.push_back(
            MakeSlot(found, plan->output[static_cast<size_t>(found)].type));
      } else {
        sort->sort_exprs.push_back(*bound);
      }
      sort->sort_ascending.push_back(item.ascending);
    }
    sort->limit = stmt.limit;
    plan = sort;
  } else if (stmt.limit >= 0) {
    PlanPtr limit = MakePlan(PlanKind::kLimit);
    limit->children = {plan};
    limit->output = plan->output;
    limit->limit = stmt.limit;
    plan = limit;
  }

  if (stmt.union_all != nullptr) {
    SHARK_ASSIGN_OR_RETURN(PlanPtr rest, AnalyzeSelect(*stmt.union_all));
    if (rest->num_output_columns() != plan->num_output_columns()) {
      return Status::AnalysisError(
          "UNION ALL branches have different column counts");
    }
    PlanPtr u = MakePlan(PlanKind::kUnion);
    u->children = {plan, rest};
    u->output = plan->output;
    plan = u;
  }
  return plan;
}

}  // namespace shark
