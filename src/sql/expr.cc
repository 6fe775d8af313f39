#include "sql/expr.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace shark {

Status UdfRegistry::Register(const std::string& name, UdfInfo info) {
  std::string key = ToUpper(name);
  if (udfs_.count(key) > 0) {
    return Status::AlreadyExists("udf already registered: " + name);
  }
  udfs_.emplace(std::move(key), std::move(info));
  return Status::OK();
}

const UdfRegistry::UdfInfo* UdfRegistry::Lookup(const std::string& name) const {
  auto it = udfs_.find(ToUpper(name));
  return it == udfs_.end() ? nullptr : &it->second;
}

namespace {

Value EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  bool both_int = l.kind() != TypeKind::kDouble && r.kind() != TypeKind::kDouble &&
                  IsNumericLike(l.kind()) && IsNumericLike(r.kind());
  if (op == BinaryOp::kMod) {
    int64_t d = r.AsInt64();
    if (d == 0) return Value::Null();
    // INT64_MIN % -1 is UB in C++; mathematically the remainder is 0.
    if (d == -1) return Value::Int64(0);
    return Value::Int64(l.AsInt64() % d);
  }
  if (both_int && op != BinaryOp::kDiv) {
    int64_t a = l.int64_v();
    int64_t b = r.int64_v();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int64(WrapAddInt64(a, b));
      case BinaryOp::kSub:
        return Value::Int64(WrapSubInt64(a, b));
      case BinaryOp::kMul:
        return Value::Int64(WrapMulInt64(a, b));
      default:
        break;
    }
  }
  double a = l.AsDouble();
  double b = r.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Double(a + b);
    case BinaryOp::kSub:
      return Value::Double(a - b);
    case BinaryOp::kMul:
      return Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Value::Null();
      return Value::Double(a / b);
    default:
      break;
  }
  return Value::Null();
}

Value EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  int c = l.Compare(r);
  bool result = false;
  switch (op) {
    case BinaryOp::kEq:
      result = l == r;
      break;
    case BinaryOp::kNe:
      result = !(l == r);
      break;
    case BinaryOp::kLt:
      result = c < 0;
      break;
    case BinaryOp::kLe:
      result = c <= 0;
      break;
    case BinaryOp::kGt:
      result = c > 0;
      break;
    case BinaryOp::kGe:
      result = c >= 0;
      break;
    default:
      break;
  }
  return Value::Bool(result);
}

Value EvalBuiltinFunction(const std::string& name,
                          const std::vector<Value>& args);

}  // namespace

Value EvalBuiltin(const std::string& name, const std::vector<Value>& args) {
  return EvalBuiltinFunction(name, args);
}

namespace {

Value EvalBuiltinFunction(const std::string& name,
                          const std::vector<Value>& args) {
  if (name == "SUBSTR" || name == "SUBSTRING") {
    if (args.size() < 2 || args[0].is_null() || args[1].is_null()) {
      return Value::Null();
    }
    const std::string& s = args[0].str();
    int64_t start = args[1].AsInt64();  // 1-based, SQL style
    int64_t len = args.size() >= 3 && !args[2].is_null()
                      ? args[2].AsInt64()
                      : static_cast<int64_t>(s.size());
    if (start < 1) start = 1;
    if (start > static_cast<int64_t>(s.size()) || len <= 0) {
      return Value::String("");
    }
    return Value::String(
        s.substr(static_cast<size_t>(start - 1),
                 static_cast<size_t>(len)));
  }
  if (name == "LOWER") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    return Value::String(ToLower(args[0].str()));
  }
  if (name == "UPPER") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    return Value::String(ToUpper(args[0].str()));
  }
  if (name == "LENGTH") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    return Value::Int64(static_cast<int64_t>(args[0].str().size()));
  }
  if (name == "ABS") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    if (args[0].kind() == TypeKind::kDouble) {
      return Value::Double(std::fabs(args[0].double_v()));
    }
    // llabs(INT64_MIN) is UB; wrap-negate gives INT64_MIN back, matching
    // the engine's wrapping BIGINT semantics.
    int64_t v = args[0].int64_v();
    return Value::Int64(v < 0 ? WrapNegInt64(v) : v);
  }
  if (name == "YEAR") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    // Extract the year from a DATE value.
    std::string s = Value::FormatDate(args[0].int64_v());
    int64_t y = 0;
    ParseInt64(s.substr(0, 4), &y);
    return Value::Int64(y);
  }
  if (name == "CONCAT") {
    std::string out;
    for (const Value& a : args) {
      if (a.is_null()) return Value::Null();
      out += a.ToString();
    }
    return Value::String(std::move(out));
  }
  if (name == "ROUND") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    double scale = 1.0;
    if (args.size() >= 2 && !args[1].is_null()) {
      scale = std::pow(10.0, static_cast<double>(args[1].AsInt64()));
    }
    return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (name == "COALESCE") {
    for (const Value& a : args) {
      if (!a.is_null()) return a;
    }
    return Value::Null();
  }
  if (name == "IF") {
    if (args.size() < 3) return Value::Null();
    return !args[0].is_null() && args[0].bool_v() ? args[1] : args[2];
  }
  if (name == "FLOOR") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    return Value::Int64(SaturatingDoubleToInt64(std::floor(args[0].AsDouble())));
  }
  if (name == "CEIL" || name == "CEILING") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    return Value::Int64(SaturatingDoubleToInt64(std::ceil(args[0].AsDouble())));
  }
  if (name == "SQRT") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    double v = args[0].AsDouble();
    return v < 0 ? Value::Null() : Value::Double(std::sqrt(v));
  }
  if (name == "POW" || name == "POWER") {
    if (args.size() < 2 || args[0].is_null() || args[1].is_null()) {
      return Value::Null();
    }
    return Value::Double(std::pow(args[0].AsDouble(), args[1].AsDouble()));
  }
  if (name == "TRIM") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    return Value::String(std::string(TrimWhitespace(args[0].str())));
  }
  if (name == "MONTH" || name == "DAY") {
    if (args.empty() || args[0].is_null()) return Value::Null();
    std::string s = Value::FormatDate(args[0].int64_v());
    int64_t v = 0;
    ParseInt64(name == "MONTH" ? s.substr(5, 2) : s.substr(8, 2), &v);
    return Value::Int64(v);
  }
  return Value::Null();
}

}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard match: % = any sequence, _ = any single char.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    // A pattern '%' is always the wildcard, even against a text '%'.
    if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (p < pattern.size() &&
               (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Value EvalExpr(const Expr& expr, const Row& row, const UdfRegistry* udfs) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kSlot:
      return row.Get(expr.slot);
    case ExprKind::kColumnRef:
      SHARK_CHECK(false);  // analyzer must bind all column refs
      return Value::Null();
    case ExprKind::kUnary: {
      Value v = EvalExpr(*expr.children[0], row, udfs);
      if (v.is_null()) return Value::Null();
      if (expr.unary_op == UnaryOp::kNeg) {
        if (v.kind() == TypeKind::kDouble) return Value::Double(-v.double_v());
        return Value::Int64(WrapNegInt64(v.int64_v()));
      }
      return Value::Bool(!v.bool_v());
    }
    case ExprKind::kBinary: {
      BinaryOp op = expr.binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        Value l = EvalExpr(*expr.children[0], row, udfs);
        // SQL three-valued logic with short circuit.
        if (op == BinaryOp::kAnd) {
          if (!l.is_null() && !l.bool_v()) return Value::Bool(false);
          Value r = EvalExpr(*expr.children[1], row, udfs);
          if (!r.is_null() && !r.bool_v()) return Value::Bool(false);
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(true);
        }
        if (!l.is_null() && l.bool_v()) return Value::Bool(true);
        Value r = EvalExpr(*expr.children[1], row, udfs);
        if (!r.is_null() && r.bool_v()) return Value::Bool(true);
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Bool(false);
      }
      Value l = EvalExpr(*expr.children[0], row, udfs);
      Value r = EvalExpr(*expr.children[1], row, udfs);
      switch (op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return EvalArithmetic(op, l, r);
        default:
          return EvalComparison(op, l, r);
      }
    }
    case ExprKind::kFuncCall: {
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& c : expr.children) args.push_back(EvalExpr(*c, row, udfs));
      if (udfs != nullptr) {
        if (const UdfRegistry::UdfInfo* info = udfs->Lookup(expr.name)) {
          return info->fn(args);
        }
      }
      return EvalBuiltinFunction(expr.name, args);
    }
    case ExprKind::kAggCall:
      SHARK_CHECK(false);  // aggregates are evaluated by the aggregation operator
      return Value::Null();
    case ExprKind::kBetween: {
      Value v = EvalExpr(*expr.children[0], row, udfs);
      Value lo = EvalExpr(*expr.children[1], row, udfs);
      Value hi = EvalExpr(*expr.children[2], row, udfs);
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      return Value::Bool(expr.negated ? !in : in);
    }
    case ExprKind::kInList: {
      Value v = EvalExpr(*expr.children[0], row, udfs);
      if (v.is_null()) return Value::Null();
      bool found = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        Value item = EvalExpr(*expr.children[i], row, udfs);
        if (!item.is_null() && v == item) {
          found = true;
          break;
        }
      }
      return Value::Bool(expr.negated ? !found : found);
    }
    case ExprKind::kIsNull: {
      Value v = EvalExpr(*expr.children[0], row, udfs);
      bool is_null = v.is_null();
      return Value::Bool(expr.negated ? !is_null : is_null);
    }
    case ExprKind::kLike: {
      Value v = EvalExpr(*expr.children[0], row, udfs);
      Value p = EvalExpr(*expr.children[1], row, udfs);
      if (v.is_null() || p.is_null()) return Value::Null();
      bool m = LikeMatch(v.str(), p.str());
      return Value::Bool(expr.negated ? !m : m);
    }
    case ExprKind::kCase: {
      size_t i = 0;
      for (; i + 1 < expr.children.size(); i += 2) {
        Value cond = EvalExpr(*expr.children[i], row, udfs);
        if (!cond.is_null() && cond.bool_v()) {
          return EvalExpr(*expr.children[i + 1], row, udfs);
        }
      }
      if (i < expr.children.size()) {  // ELSE branch
        return EvalExpr(*expr.children[i], row, udfs);
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

bool EvalPredicate(const Expr& expr, const Row& row, const UdfRegistry* udfs) {
  Value v = EvalExpr(expr, row, udfs);
  return !v.is_null() && v.bool_v();
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind == ExprKind::kBinary && expr->binary_op == BinaryOp::kAnd) {
    for (const auto& c : expr->children) {
      auto sub = SplitConjuncts(c);
      out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
  }
  out.push_back(expr);
  return out;
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const auto& c : conjuncts) {
    out = out == nullptr ? c : MakeBinary(BinaryOp::kAnd, out, c);
    if (out != nullptr && out->kind == ExprKind::kBinary) {
      out->type = TypeKind::kBool;
    }
  }
  return out;
}

void CollectSlots(const Expr& expr, std::set<int>* slots) {
  if (expr.kind == ExprKind::kSlot) slots->insert(expr.slot);
  for (const auto& c : expr.children) CollectSlots(*c, slots);
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kAggCall) return true;
  for (const auto& c : expr.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

bool ContainsUdf(const Expr& expr, const UdfRegistry& udfs) {
  if (expr.kind == ExprKind::kFuncCall && udfs.Lookup(expr.name) != nullptr) {
    return true;
  }
  for (const auto& c : expr.children) {
    if (ContainsUdf(*c, udfs)) return true;
  }
  return false;
}

ExprPtr CloneExpr(const Expr& expr) {
  auto out = std::make_shared<Expr>(expr);
  out->children.clear();
  for (const auto& c : expr.children) out->children.push_back(CloneExpr(*c));
  return out;
}

ExprPtr RemapSlots(const Expr& expr, const std::map<int, int>& mapping) {
  ExprPtr out = CloneExpr(expr);
  std::function<void(Expr*)> visit = [&](Expr* e) {
    if (e->kind == ExprKind::kSlot) {
      auto it = mapping.find(e->slot);
      if (it != mapping.end()) e->slot = it->second;
    }
    for (auto& c : e->children) visit(c.get());
  };
  visit(out.get());
  return out;
}

}  // namespace shark
