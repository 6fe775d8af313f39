#ifndef SHARK_SQL_EXPR_H_
#define SHARK_SQL_EXPR_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relation/row.h"
#include "sql/ast.h"

namespace shark {

/// User-defined scalar functions (§4: UDFs are first-class; their unknown
/// selectivity is what motivates PDE). `cpu_cost_factor` scales the per-row
/// evaluation charge relative to a builtin.
class UdfRegistry {
 public:
  using ScalarFn = std::function<Value(const std::vector<Value>&)>;

  struct UdfInfo {
    ScalarFn fn;
    TypeKind return_type = TypeKind::kNull;
    double cpu_cost_factor = 5.0;
  };

  Status Register(const std::string& name, UdfInfo info);
  const UdfInfo* Lookup(const std::string& name) const;

 private:
  std::map<std::string, UdfInfo> udfs_;  // upper-cased names
};

/// Evaluates a bound expression (no kColumnRef nodes) against a row.
/// SQL semantics: NULL propagates through operators; comparisons with NULL
/// yield NULL (rendered as a null Value).
Value EvalExpr(const Expr& expr, const Row& row, const UdfRegistry* udfs);

/// Predicate evaluation: NULL and NULL-typed results count as false.
bool EvalPredicate(const Expr& expr, const Row& row, const UdfRegistry* udfs);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Evaluates a builtin scalar function by (upper-case) name. Unknown names
/// yield NULL; the analyzer guarantees only known names reach execution.
Value EvalBuiltin(const std::string& name, const std::vector<Value>& args);

/// Splits a predicate into top-level AND conjuncts.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

/// AND-combines conjuncts (nullptr when empty).
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

/// Collects the slot indices referenced by an expression.
void CollectSlots(const Expr& expr, std::set<int>* slots);

/// True if the expression contains an aggregate call.
bool ContainsAggregate(const Expr& expr);

/// True if the expression contains a user-defined function call (unknown
/// selectivity — relevant to the PDE join optimizer).
bool ContainsUdf(const Expr& expr, const UdfRegistry& udfs);

/// Deep copy.
ExprPtr CloneExpr(const Expr& expr);

/// Rewrites slot indices through `mapping` (old slot -> new slot); slots
/// absent from the mapping are left untouched.
ExprPtr RemapSlots(const Expr& expr, const std::map<int, int>& mapping);

}  // namespace shark

#endif  // SHARK_SQL_EXPR_H_
