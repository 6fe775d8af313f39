#include "sql/expr_compiler.h"

#include <algorithm>

#include "common/logging.h"

namespace shark {

namespace {

Value Combine3VL(BinaryOp op, const Value& l, const Value& r) {
  if (op == BinaryOp::kAnd) {
    bool lf = !l.is_null() && !l.bool_v();
    bool rf = !r.is_null() && !r.bool_v();
    if (lf || rf) return Value::Bool(false);
    if (l.is_null() || r.is_null()) return Value::Null();
    return Value::Bool(true);
  }
  bool lt = !l.is_null() && l.bool_v();
  bool rt = !r.is_null() && r.bool_v();
  if (lt || rt) return Value::Bool(true);
  if (l.is_null() || r.is_null()) return Value::Null();
  return Value::Bool(false);
}

}  // namespace

Value EvalBinaryScalar(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return Combine3VL(op, l, r);
    default:
      break;
  }
  if (l.is_null() || r.is_null()) return Value::Null();
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      bool both_int = l.kind() != TypeKind::kDouble &&
                      r.kind() != TypeKind::kDouble && IsNumericLike(l.kind()) &&
                      IsNumericLike(r.kind());
      if (both_int) {
        int64_t a = l.int64_v();
        int64_t b = r.int64_v();
        switch (op) {
          case BinaryOp::kAdd:
            return Value::Int64(WrapAddInt64(a, b));
          case BinaryOp::kSub:
            return Value::Int64(WrapSubInt64(a, b));
          default:
            return Value::Int64(WrapMulInt64(a, b));
        }
      }
      double a = l.AsDouble();
      double b = r.AsDouble();
      switch (op) {
        case BinaryOp::kAdd:
          return Value::Double(a + b);
        case BinaryOp::kSub:
          return Value::Double(a - b);
        default:
          return Value::Double(a * b);
      }
    }
    case BinaryOp::kDiv: {
      double b = r.AsDouble();
      if (b == 0.0) return Value::Null();
      return Value::Double(l.AsDouble() / b);
    }
    case BinaryOp::kMod: {
      int64_t b = r.AsInt64();
      if (b == 0) return Value::Null();
      // INT64_MIN % -1 is UB in C++; mathematically the remainder is 0.
      if (b == -1) return Value::Int64(0);
      return Value::Int64(l.AsInt64() % b);
    }
    case BinaryOp::kEq:
      return Value::Bool(l == r);
    case BinaryOp::kNe:
      return Value::Bool(!(l == r));
    case BinaryOp::kLt:
      return Value::Bool(l.Compare(r) < 0);
    case BinaryOp::kLe:
      return Value::Bool(l.Compare(r) <= 0);
    case BinaryOp::kGt:
      return Value::Bool(l.Compare(r) > 0);
    case BinaryOp::kGe:
      return Value::Bool(l.Compare(r) >= 0);
    default:
      return Value::Null();
  }
}

Status ExprCompiler::Emit(const Expr& expr, CompiledExpr* out) const {
  using Op = CompiledExpr::Op;
  switch (expr.kind) {
    case ExprKind::kLiteral: {
      out->constants_.push_back(expr.literal);
      out->code_.push_back({Op::kConst,
                            static_cast<int32_t>(out->constants_.size()) - 1, 0, 0});
      return Status::OK();
    }
    case ExprKind::kSlot:
      out->code_.push_back({Op::kSlot, expr.slot, 0, 0});
      return Status::OK();
    case ExprKind::kColumnRef:
      return Status::Internal("cannot compile unbound column ref");
    case ExprKind::kAggCall:
      return Status::Internal("cannot compile aggregate call");
    case ExprKind::kUnary:
      SHARK_RETURN_NOT_OK(Emit(*expr.children[0], out));
      out->code_.push_back(
          {expr.unary_op == UnaryOp::kNeg ? Op::kNeg : Op::kNot, 0, 0, 0});
      return Status::OK();
    case ExprKind::kBinary: {
      // Fused slot-vs-constant comparison: the dominant predicate shape.
      const Expr& l = *expr.children[0];
      const Expr& r = *expr.children[1];
      bool is_cmp = expr.binary_op == BinaryOp::kEq ||
                    expr.binary_op == BinaryOp::kNe ||
                    expr.binary_op == BinaryOp::kLt ||
                    expr.binary_op == BinaryOp::kLe ||
                    expr.binary_op == BinaryOp::kGt ||
                    expr.binary_op == BinaryOp::kGe;
      if (is_cmp && l.kind == ExprKind::kSlot && r.kind == ExprKind::kLiteral &&
          !r.literal.is_null()) {
        out->constants_.push_back(r.literal);
        out->code_.push_back({Op::kCmpSlotConst, l.slot,
                              static_cast<int32_t>(out->constants_.size()) - 1,
                              static_cast<int32_t>(expr.binary_op)});
        return Status::OK();
      }
      SHARK_RETURN_NOT_OK(Emit(l, out));
      SHARK_RETURN_NOT_OK(Emit(r, out));
      out->code_.push_back(
          {Op::kBinary, static_cast<int32_t>(expr.binary_op), 0, 0});
      return Status::OK();
    }
    case ExprKind::kFuncCall: {
      for (const auto& c : expr.children) SHARK_RETURN_NOT_OK(Emit(*c, out));
      const UdfRegistry::UdfInfo* udf =
          udfs_ != nullptr ? udfs_->Lookup(expr.name) : nullptr;
      if (udf != nullptr) {
        out->udfs_.push_back(udf);
        out->code_.push_back({Op::kUdf,
                              static_cast<int32_t>(out->udfs_.size()) - 1,
                              static_cast<int32_t>(expr.children.size()), 0});
      } else {
        out->builtin_names_.push_back(expr.name);
        out->code_.push_back(
            {Op::kBuiltin, static_cast<int32_t>(out->builtin_names_.size()) - 1,
             static_cast<int32_t>(expr.children.size()), 0});
      }
      return Status::OK();
    }
    case ExprKind::kBetween: {
      const Expr& v = *expr.children[0];
      const Expr& lo = *expr.children[1];
      const Expr& hi = *expr.children[2];
      if (v.kind == ExprKind::kSlot && lo.kind == ExprKind::kLiteral &&
          hi.kind == ExprKind::kLiteral && !lo.literal.is_null() &&
          !hi.literal.is_null()) {
        out->constants_.push_back(lo.literal);
        out->constants_.push_back(hi.literal);
        out->code_.push_back({Op::kBetweenSlotConst, v.slot,
                              static_cast<int32_t>(out->constants_.size()) - 2,
                              expr.negated ? 1 : 0});
        return Status::OK();
      }
      for (const auto& c : expr.children) SHARK_RETURN_NOT_OK(Emit(*c, out));
      out->code_.push_back({Op::kBetween, expr.negated ? 1 : 0, 0, 0});
      return Status::OK();
    }
    case ExprKind::kInList:
      for (const auto& c : expr.children) SHARK_RETURN_NOT_OK(Emit(*c, out));
      out->code_.push_back({Op::kInList, expr.negated ? 1 : 0,
                            static_cast<int32_t>(expr.children.size()) - 1, 0});
      return Status::OK();
    case ExprKind::kIsNull:
      SHARK_RETURN_NOT_OK(Emit(*expr.children[0], out));
      out->code_.push_back({Op::kIsNull, expr.negated ? 1 : 0, 0, 0});
      return Status::OK();
    case ExprKind::kLike:
      SHARK_RETURN_NOT_OK(Emit(*expr.children[0], out));
      SHARK_RETURN_NOT_OK(Emit(*expr.children[1], out));
      out->code_.push_back({Op::kLike, expr.negated ? 1 : 0, 0, 0});
      return Status::OK();
    case ExprKind::kCase: {
      for (const auto& c : expr.children) SHARK_RETURN_NOT_OK(Emit(*c, out));
      int32_t whens = static_cast<int32_t>(expr.children.size() / 2);
      int32_t has_else = static_cast<int32_t>(expr.children.size() % 2);
      out->code_.push_back({Op::kCase, has_else, whens, 0});
      return Status::OK();
    }
  }
  return Status::Internal("unknown expr kind");
}

namespace {

/// Static stack-depth bound of a postfix program.
int MaxDepth(const Expr& e) {
  // Conservative: children evaluated left to right, each result kept.
  int depth = 0;
  int running = 0;
  for (const auto& c : e.children) {
    depth = std::max(depth, running + MaxDepth(*c));
    running += 1;
  }
  return std::max(depth, running + 1);
}

}  // namespace

Result<CompiledExpr> ExprCompiler::Compile(const Expr& expr) const {
  CompiledExpr out;
  SHARK_RETURN_NOT_OK(Emit(expr, &out));
  out.max_depth_ = static_cast<size_t>(MaxDepth(expr));
  return out;
}

Value CompiledExpr::Eval(const Row& row) const {
  // Operand stack sized to the deepest program this thread has run and
  // reused across evaluations: no allocation or Value construction per row —
  // the key advantage over tree interpretation. Slots are always written
  // before they are read, so stale values from earlier rows are harmless.
  struct Stack {
    std::vector<Value> slots;
    int sp = 0;
    void push_back(Value v) { slots[sp++] = std::move(v); }
    void pop_back() { --sp; }
    Value& back() { return slots[sp - 1]; }
    Value& operator[](size_t i) { return slots[i]; }
    size_t size() const { return static_cast<size_t>(sp); }
    void resize(size_t n) { sp = static_cast<int>(n); }
    Value* end() { return slots.data() + sp; }
  };
  thread_local Stack stack;
  if (stack.slots.size() < max_depth_) stack.slots.resize(max_depth_);
  stack.sp = 0;
  for (const Instruction& ins : code_) {
    switch (ins.op) {
      case Op::kConst:
        stack.push_back(constants_[static_cast<size_t>(ins.arg)]);
        break;
      case Op::kSlot:
        stack.push_back(row.Get(ins.arg));
        break;
      case Op::kCmpSlotConst: {
        const Value& v = row.Get(ins.arg);
        if (v.is_null()) {
          stack.push_back(Value::Null());
          break;
        }
        const Value& c = constants_[static_cast<size_t>(ins.arg2)];
        bool result = false;
        switch (static_cast<BinaryOp>(ins.arg3)) {
          case BinaryOp::kEq:
            result = v == c;
            break;
          case BinaryOp::kNe:
            result = !(v == c);
            break;
          case BinaryOp::kLt:
            result = v.Compare(c) < 0;
            break;
          case BinaryOp::kLe:
            result = v.Compare(c) <= 0;
            break;
          case BinaryOp::kGt:
            result = v.Compare(c) > 0;
            break;
          case BinaryOp::kGe:
            result = v.Compare(c) >= 0;
            break;
          default:
            break;
        }
        stack.push_back(Value::Bool(result));
        break;
      }
      case Op::kBetweenSlotConst: {
        const Value& v = row.Get(ins.arg);
        if (v.is_null()) {
          stack.push_back(Value::Null());
          break;
        }
        const Value& lo = constants_[static_cast<size_t>(ins.arg2)];
        const Value& hi = constants_[static_cast<size_t>(ins.arg2) + 1];
        bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
        stack.push_back(Value::Bool(ins.arg3 != 0 ? !in : in));
        break;
      }
      case Op::kNeg: {
        Value& v = stack.back();
        if (!v.is_null()) {
          v = v.kind() == TypeKind::kDouble
                  ? Value::Double(-v.double_v())
                  : Value::Int64(WrapNegInt64(v.int64_v()));
        }
        break;
      }
      case Op::kNot: {
        Value& v = stack.back();
        if (!v.is_null()) v = Value::Bool(!v.bool_v());
        break;
      }
      case Op::kBinary: {
        Value r = std::move(stack.back());
        stack.pop_back();
        Value l = std::move(stack.back());
        stack.pop_back();
        stack.push_back(EvalBinaryScalar(static_cast<BinaryOp>(ins.arg), l, r));
        break;
      }
      case Op::kBuiltin:
      case Op::kUdf: {
        size_t argc = static_cast<size_t>(ins.arg2);
        std::vector<Value> args(stack.end() - static_cast<long>(argc),
                                stack.end());
        stack.resize(stack.size() - argc);
        if (ins.op == Op::kUdf) {
          stack.push_back(udfs_[static_cast<size_t>(ins.arg)]->fn(args));
        } else {
          stack.push_back(
              EvalBuiltin(builtin_names_[static_cast<size_t>(ins.arg)], args));
        }
        break;
      }
      case Op::kBetween: {
        Value hi = std::move(stack.back());
        stack.pop_back();
        Value lo = std::move(stack.back());
        stack.pop_back();
        Value v = std::move(stack.back());
        stack.pop_back();
        if (v.is_null() || lo.is_null() || hi.is_null()) {
          stack.push_back(Value::Null());
        } else {
          bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
          stack.push_back(Value::Bool(ins.arg != 0 ? !in : in));
        }
        break;
      }
      case Op::kInList: {
        size_t count = static_cast<size_t>(ins.arg2);
        bool found = false;
        const Value& v = stack[stack.size() - count - 1];
        bool v_null = v.is_null();
        for (size_t i = stack.size() - count; i < stack.size(); ++i) {
          if (!v_null && !stack[i].is_null() && v == stack[i]) found = true;
        }
        stack.resize(stack.size() - count);
        stack.back() = v_null ? Value::Null()
                              : Value::Bool(ins.arg != 0 ? !found : found);
        break;
      }
      case Op::kIsNull: {
        Value& v = stack.back();
        bool is_null = v.is_null();
        v = Value::Bool(ins.arg != 0 ? !is_null : is_null);
        break;
      }
      case Op::kLike: {
        Value p = std::move(stack.back());
        stack.pop_back();
        Value v = std::move(stack.back());
        stack.pop_back();
        if (v.is_null() || p.is_null()) {
          stack.push_back(Value::Null());
        } else {
          bool m = LikeMatch(v.str(), p.str());
          stack.push_back(Value::Bool(ins.arg != 0 ? !m : m));
        }
        break;
      }
      case Op::kCase: {
        size_t whens = static_cast<size_t>(ins.arg2);
        bool has_else = ins.arg != 0;
        size_t total = 2 * whens + (has_else ? 1 : 0);
        size_t base = stack.size() - total;
        Value result = Value::Null();
        bool matched = false;
        for (size_t w = 0; w < whens && !matched; ++w) {
          const Value& cond = stack[base + 2 * w];
          if (!cond.is_null() && cond.bool_v()) {
            result = stack[base + 2 * w + 1];
            matched = true;
          }
        }
        if (!matched && has_else) result = stack[stack.size() - 1];
        stack.resize(base);
        stack.push_back(std::move(result));
        break;
      }
    }
  }
  SHARK_CHECK(stack.size() == 1);
  return std::move(stack.back());
}

}  // namespace shark
