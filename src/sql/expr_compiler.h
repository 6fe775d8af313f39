#ifndef SHARK_SQL_EXPR_COMPILER_H_
#define SHARK_SQL_EXPR_COMPILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sql/expr.h"

namespace shark {

namespace vec {
struct ColumnBatch;
struct ColumnVector;
}  // namespace vec

/// Scalar binary-op evaluation shared by the interpreter-compiled programs
/// and the vectorized kernels' per-row fallback: SQL three-valued AND/OR,
/// NULL propagation, wrapping BIGINT arithmetic, exact mixed-type compares.
Value EvalBinaryScalar(BinaryOp op, const Value& l, const Value& r);

/// Compilation of expression evaluators (§5 "Bytecode Compilation of
/// Expression Evaluators"): the paper observes that interpreting the
/// Hive-generated evaluator trees dominates CPU time for in-memory data and
/// describes compilation as work in progress. This module completes that
/// idea for this engine: the executor flattens every bound Expr tree once per
/// operator, when it builds the RDD, into a postfix instruction sequence
/// executed on a small value stack — no recursion, no per-node shared_ptr
/// chasing, constants pre-materialized and LIKE patterns pre-validated. It is
/// the executor's only row evaluator; the tree interpreter (EvalExpr) is kept
/// for constant folding and the reference oracle.
///
/// Short-circuit note: AND/OR compile to full evaluation of both operands
/// with three-valued combination. Expressions are pure (UDFs included), so
/// results are identical to the interpreter's.
class CompiledExpr {
 public:
  /// Evaluates against a row.
  Value Eval(const Row& row) const;

  /// Predicate form: NULL counts as false.
  bool EvalBool(const Row& row) const {
    Value v = Eval(row);
    return !v.is_null() && v.bool_v();
  }

  /// Batched evaluation over rows [begin, end) of `batch`, writing one result
  /// per row into `out`. Ops with typed kernels (slot/const loads, compares,
  /// arithmetic, AND/OR, IS NULL, SUBSTR) run column-at-a-time; everything
  /// else falls back to per-row scalar evaluation of that instruction, so
  /// results are identical to Eval() on the materialized rows. Defined in
  /// exec/vectorized/eval_batch.cc.
  void EvalBatch(const vec::ColumnBatch& batch, size_t begin, size_t end,
                 vec::ColumnVector* out) const;

  size_t num_instructions() const { return code_.size(); }

 private:
  friend class ExprCompiler;

  enum class Op : uint8_t {
    kConst,      // push constants_[arg]
    kSlot,       // push row[arg]
    // Fused fast paths (no Value copies): compare row[arg] with
    // constants_[arg2] using BinaryOp(arg3).
    kCmpSlotConst,
    // row[arg] BETWEEN constants_[arg2] AND constants_[arg2+1]; arg3=negated.
    kBetweenSlotConst,
    kNeg,        // unary minus
    kNot,        // logical not
    kBinary,     // arg = BinaryOp; pops rhs, lhs
    kBuiltin,    // arg = builtin name index, arg2 = argc
    kUdf,        // arg = udf index, arg2 = argc
    kBetween,    // pops hi, lo, v; arg = negated
    kInList,     // arg2 = list size; pops items then v; arg = negated
    kIsNull,     // arg = negated
    kLike,       // arg = negated; rhs pattern on stack
    kCase,       // arg2 = #when branches, arg = has_else; all values on stack
  };

  struct Instruction {
    Op op;
    int32_t arg = 0;
    int32_t arg2 = 0;
    int32_t arg3 = 0;
  };

  std::vector<Instruction> code_;
  /// Operand-stack depth this program needs (an upper bound); Eval and
  /// EvalBatch size their stacks to it.
  size_t max_depth_ = 0;
  std::vector<Value> constants_;
  std::vector<std::string> builtin_names_;
  std::vector<const UdfRegistry::UdfInfo*> udfs_;
};

/// Compiles bound expressions. Lives as long as any CompiledExpr it produced
/// only through the UdfRegistry it references.
class ExprCompiler {
 public:
  explicit ExprCompiler(const UdfRegistry* udfs) : udfs_(udfs) {}

  /// Compiles a bound expression; fails only on unbound column refs or
  /// aggregate calls (which never reach row-level evaluation).
  Result<CompiledExpr> Compile(const Expr& expr) const;

 private:
  Status Emit(const Expr& expr, CompiledExpr* out) const;

  const UdfRegistry* udfs_;
};

}  // namespace shark

#endif  // SHARK_SQL_EXPR_COMPILER_H_
