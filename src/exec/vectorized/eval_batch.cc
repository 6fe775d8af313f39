/// CompiledExpr::EvalBatch: column-at-a-time execution of the postfix
/// programs that CompiledExpr::Eval interprets row-at-a-time. Every
/// instruction either runs a type-specialized kernel over the window or
/// falls back to per-row evaluation of *that instruction only* (gathering
/// exact Values and running the same code Eval runs), so the two paths are
/// value-identical by construction. Lives here rather than in sql/ so the
/// vectorized module owns all batch code; it is a member of CompiledExpr for
/// access to the compiled program.

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "exec/vectorized/column_batch.h"
#include "sql/expr_compiler.h"

namespace shark {

namespace {

using vec::ColumnVector;
using Storage = vec::ColumnVector::Storage;

/// Value category of an operand, collapsing BOOLEAN/BIGINT/DATE (shared
/// int64 payload and comparison rules) into one integer category.
enum class Cat : uint8_t { kInt, kDbl, kStr, kNull, kGen };

ColumnVector AllNullVec(size_t n) {
  ColumnVector v;
  v.storage = Storage::kAllNull;
  v.type = TypeKind::kNull;
  v.n = n;
  return v;
}

ColumnVector MakeTyped(TypeKind t, Storage s, size_t n) {
  ColumnVector v;
  v.type = t;
  v.storage = s;
  v.n = n;
  switch (s) {
    case Storage::kInt64:
      v.ints.resize(n);
      v.nulls.assign(n, 0);
      break;
    case Storage::kDouble:
      v.doubles.resize(n);
      v.nulls.assign(n, 0);
      break;
    case Storage::kString:
      v.strs.resize(n);
      v.nulls.assign(n, 0);
      break;
    case Storage::kGeneric:
      v.values.resize(n);
      break;
    case Storage::kAllNull:
      break;
  }
  return v;
}

/// A stack operand: a borrowed slot column (indexed from the window base),
/// an owned kernel result (indexed from 0), or a uniform constant.
struct Ent {
  const ColumnVector* col = nullptr;
  ColumnVector owned;
  bool uniform = false;
  Value uval;
};

/// Flat read-only view of an operand for the kernels: one indexing scheme
/// regardless of borrowed/owned/uniform shape.
struct OpView {
  Cat cat = Cat::kGen;
  const ColumnVector* v = nullptr;
  size_t off = 0;
  bool uniform = false;
  Value uval;
  const uint8_t* np = nullptr;
  const int64_t* ip = nullptr;
  const double* dp = nullptr;
  const std::string_view* sp = nullptr;
  const Value* gp = nullptr;

  bool IsNull(size_t i) const {
    if (uniform) return uval.is_null();
    if (cat == Cat::kGen) return gp[off + i].is_null();
    return np != nullptr && np[off + i] != 0;
  }
  int64_t I(size_t i) const { return uniform ? uval.int64_v() : ip[off + i]; }
  double D(size_t i) const { return uniform ? uval.double_v() : dp[off + i]; }
  std::string_view S(size_t i) const {
    return uniform ? std::string_view(uval.str()) : sp[off + i];
  }
  /// The bytes Value::str() returns for the cell (empty for non-strings),
  /// for a string or generic operand.
  std::string_view Text(size_t i) const {
    if (uniform) return uval.str();
    return cat == Cat::kGen ? std::string_view(gp[off + i].str()) : sp[off + i];
  }
  /// Exact Value of the cell, as the row path would see it.
  Value Get(size_t i) const { return uniform ? uval : v->ValueAt(off + i); }
};

OpView UniformView(const Value& val) {
  OpView w;
  w.uniform = true;
  w.uval = val;
  switch (val.kind()) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      w.cat = Cat::kInt;
      break;
    case TypeKind::kDouble:
      w.cat = Cat::kDbl;
      break;
    case TypeKind::kString:
      w.cat = Cat::kStr;
      break;
    default:
      w.cat = Cat::kNull;
      break;
  }
  return w;
}

OpView ColumnView(const ColumnVector& cv, size_t off) {
  OpView w;
  w.v = &cv;
  w.off = off;
  w.np = cv.nulls.empty() ? nullptr : cv.nulls.data();
  switch (cv.storage) {
    case Storage::kInt64:
      w.cat = Cat::kInt;
      w.ip = cv.ints.data();
      break;
    case Storage::kDouble:
      w.cat = Cat::kDbl;
      w.dp = cv.doubles.data();
      break;
    case Storage::kString:
      w.cat = Cat::kStr;
      w.sp = cv.strs.data();
      break;
    case Storage::kGeneric:
      w.cat = Cat::kGen;
      w.gp = cv.values.data();
      break;
    case Storage::kAllNull:
      // Behaves exactly like a uniform NULL constant.
      w.cat = Cat::kNull;
      w.uniform = true;
      w.uval = Value::Null();
      break;
  }
  return w;
}

OpView ViewOf(const Ent& e, size_t base) {
  if (e.uniform) return UniformView(e.uval);
  if (e.col != nullptr) return ColumnView(*e.col, base);
  return ColumnView(e.owned, 0);
}

inline bool ApplyCmpOp(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    default:
      return cmp >= 0;  // kGe
  }
}

/// Comparison kernel. The per-cell `cmp` values reproduce Value::Compare
/// (NaN after all numerics, NaN == NaN, exact BIGINT-vs-DOUBLE ordering,
/// numerics before strings); for every non-null category pair cmp == 0 is
/// equivalent to Value::operator==, so kEq/kNe share the same loop.
template <typename CmpFn>
void CmpLoop(const OpView& l, const OpView& r, BinaryOp op, size_t n,
             ColumnVector* out, CmpFn cmp) {
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      out->nulls[i] = 1;
    } else {
      out->ints[i] = ApplyCmpOp(op, cmp(i)) ? 1 : 0;
    }
  }
}

bool CmpKernel(const OpView& l, const OpView& r, BinaryOp op, size_t n,
               ColumnVector* out) {
  if (l.cat == Cat::kGen || r.cat == Cat::kGen) return false;
  if (l.cat == Cat::kNull || r.cat == Cat::kNull) {
    *out = AllNullVec(n);
    return true;
  }
  *out = MakeTyped(TypeKind::kBool, Storage::kInt64, n);
  if (l.cat == Cat::kInt && r.cat == Cat::kInt) {
    CmpLoop(l, r, op, n, out, [&](size_t i) {
      int64_t a = l.I(i), b = r.I(i);
      return a < b ? -1 : a > b ? 1 : 0;
    });
  } else if (l.cat == Cat::kDbl && r.cat == Cat::kDbl) {
    CmpLoop(l, r, op, n, out, [&](size_t i) {
      double a = l.D(i), b = r.D(i);
      bool an = std::isnan(a), bn = std::isnan(b);
      if (an || bn) return (an && bn) ? 0 : (an ? 1 : -1);
      return a < b ? -1 : a > b ? 1 : 0;
    });
  } else if (l.cat == Cat::kInt && r.cat == Cat::kDbl) {
    CmpLoop(l, r, op, n, out, [&](size_t i) {
      double b = r.D(i);
      if (std::isnan(b)) return -1;
      return CompareInt64Double(l.I(i), b);
    });
  } else if (l.cat == Cat::kDbl && r.cat == Cat::kInt) {
    CmpLoop(l, r, op, n, out, [&](size_t i) {
      double a = l.D(i);
      if (std::isnan(a)) return 1;
      return -CompareInt64Double(r.I(i), a);
    });
  } else if (l.cat == Cat::kStr && r.cat == Cat::kStr) {
    CmpLoop(l, r, op, n, out, [&](size_t i) {
      int c = l.S(i).compare(r.S(i));
      return c < 0 ? -1 : c > 0 ? 1 : 0;
    });
  } else if (l.cat == Cat::kStr) {
    CmpLoop(l, r, op, n, out, [](size_t) { return 1; });
  } else {
    CmpLoop(l, r, op, n, out, [](size_t) { return -1; });
  }
  return true;
}

bool ArithKernel(const OpView& l, const OpView& r, BinaryOp op, size_t n,
                 ColumnVector* out) {
  if (l.cat == Cat::kNull || r.cat == Cat::kNull) {
    *out = AllNullVec(n);
    return true;
  }
  bool lnum = l.cat == Cat::kInt || l.cat == Cat::kDbl;
  bool rnum = r.cat == Cat::kInt || r.cat == Cat::kDbl;
  if (!lnum || !rnum) return false;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
      if (l.cat == Cat::kInt && r.cat == Cat::kInt) {
        *out = MakeTyped(TypeKind::kInt64, Storage::kInt64, n);
        for (size_t i = 0; i < n; ++i) {
          if (l.IsNull(i) || r.IsNull(i)) {
            out->nulls[i] = 1;
            continue;
          }
          int64_t a = l.I(i), b = r.I(i);
          out->ints[i] = op == BinaryOp::kAdd   ? WrapAddInt64(a, b)
                         : op == BinaryOp::kSub ? WrapSubInt64(a, b)
                                                : WrapMulInt64(a, b);
        }
      } else {
        *out = MakeTyped(TypeKind::kDouble, Storage::kDouble, n);
        for (size_t i = 0; i < n; ++i) {
          if (l.IsNull(i) || r.IsNull(i)) {
            out->nulls[i] = 1;
            continue;
          }
          double a = l.cat == Cat::kInt ? static_cast<double>(l.I(i)) : l.D(i);
          double b = r.cat == Cat::kInt ? static_cast<double>(r.I(i)) : r.D(i);
          out->doubles[i] = op == BinaryOp::kAdd   ? a + b
                            : op == BinaryOp::kSub ? a - b
                                                   : a * b;
        }
      }
      return true;
    case BinaryOp::kDiv: {
      *out = MakeTyped(TypeKind::kDouble, Storage::kDouble, n);
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          out->nulls[i] = 1;
          continue;
        }
        double b = r.cat == Cat::kInt ? static_cast<double>(r.I(i)) : r.D(i);
        if (b == 0.0) {
          out->nulls[i] = 1;
          continue;
        }
        double a = l.cat == Cat::kInt ? static_cast<double>(l.I(i)) : l.D(i);
        out->doubles[i] = a / b;
      }
      return true;
    }
    case BinaryOp::kMod: {
      *out = MakeTyped(TypeKind::kInt64, Storage::kInt64, n);
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          out->nulls[i] = 1;
          continue;
        }
        int64_t b = r.cat == Cat::kInt ? r.I(i) : SaturatingDoubleToInt64(r.D(i));
        if (b == 0) {
          out->nulls[i] = 1;
          continue;
        }
        int64_t a = l.cat == Cat::kInt ? l.I(i) : SaturatingDoubleToInt64(l.D(i));
        out->ints[i] = b == -1 ? 0 : a % b;
      }
      return true;
    }
    default:
      return false;
  }
}

/// Three-valued AND/OR over boolean int-storage operands (Combine3VL's
/// truth table).
bool AndOrKernel(const OpView& l, const OpView& r, bool is_and, size_t n,
                 ColumnVector* out) {
  auto boolish = [](const OpView& w) {
    return w.cat == Cat::kInt || w.cat == Cat::kNull;
  };
  if (!boolish(l) || !boolish(r)) return false;
  *out = MakeTyped(TypeKind::kBool, Storage::kInt64, n);
  for (size_t i = 0; i < n; ++i) {
    bool ln = l.IsNull(i), rn = r.IsNull(i);
    bool lb = !ln && l.I(i) != 0;
    bool rb = !rn && r.I(i) != 0;
    if (is_and) {
      bool lf = !ln && !lb;
      bool rf = !rn && !rb;
      if (lf || rf) {
        out->ints[i] = 0;
      } else if (ln || rn) {
        out->nulls[i] = 1;
      } else {
        out->ints[i] = 1;
      }
    } else {
      if (lb || rb) {
        out->ints[i] = 1;
      } else if (ln || rn) {
        out->nulls[i] = 1;
      } else {
        out->ints[i] = 0;
      }
    }
  }
  return true;
}

/// [NOT] LIKE over string views: text and pattern are string or generic
/// operands (columns or constants), matched in place without copying either
/// into a Value. The result is a typed BOOLEAN column; NULL text or pattern
/// gives NULL. Numeric operands take the per-row fallback.
bool LikeKernel(const OpView& text, const OpView& pattern, bool neg, size_t n,
                ColumnVector* out) {
  auto textual = [](const OpView& w) {
    return w.cat == Cat::kStr || w.cat == Cat::kGen || w.cat == Cat::kNull;
  };
  if (!textual(text) || !textual(pattern)) return false;
  if (text.cat == Cat::kNull || pattern.cat == Cat::kNull) {
    *out = AllNullVec(n);
    return true;
  }
  *out = MakeTyped(TypeKind::kBool, Storage::kInt64, n);
  for (size_t i = 0; i < n; ++i) {
    if (text.IsNull(i) || pattern.IsNull(i)) {
      out->nulls[i] = 1;
    } else {
      out->ints[i] = LikeMatch(text.Text(i), pattern.Text(i)) != neg ? 1 : 0;
    }
  }
  return true;
}

}  // namespace

void CompiledExpr::EvalBatch(const vec::ColumnBatch& batch, size_t begin,
                             size_t end, vec::ColumnVector* out) const {
  const size_t n = end - begin;
  std::vector<Ent> stack;
  stack.reserve(max_depth_);
  auto push_owned = [&stack](ColumnVector v) {
    stack.emplace_back();
    stack.back().owned = std::move(v);
  };
  auto push_uniform = [&stack](const Value& v) {
    stack.emplace_back();
    stack.back().uniform = true;
    stack.back().uval = v;
  };
  // Per-row fallback for a whole instruction: exact Values in, exact Values
  // out via `fn(i)`.
  auto per_row = [&](auto fn) {
    ColumnVector res = MakeTyped(TypeKind::kNull, Storage::kGeneric, n);
    for (size_t i = 0; i < n; ++i) res.values[i] = fn(i);
    return res;
  };

  for (const Instruction& ins : code_) {
    switch (ins.op) {
      case Op::kConst:
        push_uniform(constants_[static_cast<size_t>(ins.arg)]);
        break;
      case Op::kSlot: {
        stack.emplace_back();
        stack.back().col = &batch.cols[static_cast<size_t>(ins.arg)];
        break;
      }
      case Op::kCmpSlotConst: {
        OpView l = ColumnView(batch.cols[static_cast<size_t>(ins.arg)], begin);
        const Value& c = constants_[static_cast<size_t>(ins.arg2)];
        OpView r = UniformView(c);
        BinaryOp op = static_cast<BinaryOp>(ins.arg3);
        ColumnVector res;
        if (!CmpKernel(l, r, op, n, &res)) {
          res = per_row([&](size_t i) { return EvalBinaryScalar(op, l.Get(i), c); });
        }
        push_owned(std::move(res));
        break;
      }
      case Op::kBetweenSlotConst: {
        OpView w = ColumnView(batch.cols[static_cast<size_t>(ins.arg)], begin);
        const Value& lo = constants_[static_cast<size_t>(ins.arg2)];
        const Value& hi = constants_[static_cast<size_t>(ins.arg2) + 1];
        bool neg = ins.arg3 != 0;
        ColumnVector res;
        bool fast = false;
        if (w.cat == Cat::kInt && UniformView(lo).cat == Cat::kInt &&
            UniformView(hi).cat == Cat::kInt) {
          res = MakeTyped(TypeKind::kBool, Storage::kInt64, n);
          int64_t a = lo.int64_v(), b = hi.int64_v();
          for (size_t i = 0; i < n; ++i) {
            if (w.IsNull(i)) {
              res.nulls[i] = 1;
              continue;
            }
            int64_t v = w.I(i);
            bool in = v >= a && v <= b;
            res.ints[i] = (neg ? !in : in) ? 1 : 0;
          }
          fast = true;
        } else if (w.cat == Cat::kDbl && lo.kind() == TypeKind::kDouble &&
                   hi.kind() == TypeKind::kDouble && !std::isnan(lo.double_v()) &&
                   !std::isnan(hi.double_v())) {
          res = MakeTyped(TypeKind::kBool, Storage::kInt64, n);
          double a = lo.double_v(), b = hi.double_v();
          for (size_t i = 0; i < n; ++i) {
            if (w.IsNull(i)) {
              res.nulls[i] = 1;
              continue;
            }
            double v = w.D(i);
            // NaN sorts after every numeric: Compare(v, hi) > 0, so not "in".
            bool in = !std::isnan(v) && v >= a && v <= b;
            res.ints[i] = (neg ? !in : in) ? 1 : 0;
          }
          fast = true;
        } else if (w.cat == Cat::kStr && lo.kind() == TypeKind::kString &&
                   hi.kind() == TypeKind::kString) {
          res = MakeTyped(TypeKind::kBool, Storage::kInt64, n);
          std::string_view a = lo.str(), b = hi.str();
          for (size_t i = 0; i < n; ++i) {
            if (w.IsNull(i)) {
              res.nulls[i] = 1;
              continue;
            }
            std::string_view v = w.S(i);
            bool in = v.compare(a) >= 0 && v.compare(b) <= 0;
            res.ints[i] = (neg ? !in : in) ? 1 : 0;
          }
          fast = true;
        }
        if (!fast) {
          res = per_row([&](size_t i) {
            Value v = w.Get(i);
            if (v.is_null()) return Value::Null();
            bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
            return Value::Bool(neg ? !in : in);
          });
        }
        push_owned(std::move(res));
        break;
      }
      case Op::kNeg: {
        Ent e = std::move(stack.back());
        stack.pop_back();
        OpView w = ViewOf(e, begin);
        ColumnVector res;
        if (w.cat == Cat::kNull) {
          res = AllNullVec(n);
        } else if (w.cat == Cat::kInt) {
          res = MakeTyped(TypeKind::kInt64, Storage::kInt64, n);
          for (size_t i = 0; i < n; ++i) {
            if (w.IsNull(i)) {
              res.nulls[i] = 1;
            } else {
              res.ints[i] = WrapNegInt64(w.I(i));
            }
          }
        } else if (w.cat == Cat::kDbl) {
          res = MakeTyped(TypeKind::kDouble, Storage::kDouble, n);
          for (size_t i = 0; i < n; ++i) {
            if (w.IsNull(i)) {
              res.nulls[i] = 1;
            } else {
              res.doubles[i] = -w.D(i);
            }
          }
        } else {
          res = per_row([&](size_t i) {
            Value v = w.Get(i);
            if (v.is_null()) return v;
            return v.kind() == TypeKind::kDouble
                       ? Value::Double(-v.double_v())
                       : Value::Int64(WrapNegInt64(v.int64_v()));
          });
        }
        push_owned(std::move(res));
        break;
      }
      case Op::kNot: {
        Ent e = std::move(stack.back());
        stack.pop_back();
        OpView w = ViewOf(e, begin);
        ColumnVector res;
        if (w.cat == Cat::kNull) {
          res = AllNullVec(n);
        } else if (w.cat == Cat::kInt) {
          res = MakeTyped(TypeKind::kBool, Storage::kInt64, n);
          for (size_t i = 0; i < n; ++i) {
            if (w.IsNull(i)) {
              res.nulls[i] = 1;
            } else {
              res.ints[i] = w.I(i) != 0 ? 0 : 1;
            }
          }
        } else {
          res = per_row([&](size_t i) {
            Value v = w.Get(i);
            if (v.is_null()) return v;
            return Value::Bool(!v.bool_v());
          });
        }
        push_owned(std::move(res));
        break;
      }
      case Op::kBinary: {
        Ent re = std::move(stack.back());
        stack.pop_back();
        Ent le = std::move(stack.back());
        stack.pop_back();
        OpView l = ViewOf(le, begin);
        OpView r = ViewOf(re, begin);
        BinaryOp op = static_cast<BinaryOp>(ins.arg);
        ColumnVector res;
        bool done;
        if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
          done = AndOrKernel(l, r, op == BinaryOp::kAnd, n, &res);
        } else if (op == BinaryOp::kAdd || op == BinaryOp::kSub ||
                   op == BinaryOp::kMul || op == BinaryOp::kDiv ||
                   op == BinaryOp::kMod) {
          done = ArithKernel(l, r, op, n, &res);
        } else {
          done = CmpKernel(l, r, op, n, &res);
        }
        if (!done) {
          res = per_row(
              [&](size_t i) { return EvalBinaryScalar(op, l.Get(i), r.Get(i)); });
        }
        push_owned(std::move(res));
        break;
      }
      case Op::kBuiltin:
      case Op::kUdf: {
        size_t argc = static_cast<size_t>(ins.arg2);
        std::vector<OpView> avs;
        avs.reserve(argc);
        for (size_t a = stack.size() - argc; a < stack.size(); ++a) {
          avs.push_back(ViewOf(stack[a], begin));
        }
        ColumnVector res;
        bool fast = false;
        if (ins.op == Op::kBuiltin) {
          const std::string& name = builtin_names_[static_cast<size_t>(ins.arg)];
          // SUBSTR kernel: produces subviews of the input views, so the
          // source must be a real column (a uniform constant's storage dies
          // with this instruction).
          if ((name == "SUBSTR" || name == "SUBSTRING") &&
              (argc == 2 || argc == 3) && avs[0].cat == Cat::kStr &&
              !avs[0].uniform) {
            const OpView& s = avs[0];
            const OpView& a1 = avs[1];
            res = MakeTyped(TypeKind::kString, Storage::kString, n);
            for (size_t i = 0; i < n; ++i) {
              if (s.IsNull(i) || a1.IsNull(i)) {
                res.nulls[i] = 1;
                continue;
              }
              std::string_view sv = s.S(i);
              int64_t start = a1.Get(i).AsInt64();
              int64_t len = static_cast<int64_t>(sv.size());
              if (argc == 3 && !avs[2].IsNull(i)) len = avs[2].Get(i).AsInt64();
              if (start < 1) start = 1;
              if (start > static_cast<int64_t>(sv.size()) || len <= 0) {
                res.strs[i] = std::string_view();
                continue;
              }
              res.strs[i] = sv.substr(static_cast<size_t>(start - 1),
                                      static_cast<size_t>(len));
            }
            fast = true;
          }
          if (!fast) {
            res = per_row([&](size_t i) {
              std::vector<Value> args;
              args.reserve(argc);
              for (const OpView& w : avs) args.push_back(w.Get(i));
              return EvalBuiltin(name, args);
            });
          }
        } else {
          const UdfRegistry::UdfInfo* udf = udfs_[static_cast<size_t>(ins.arg)];
          res = per_row([&](size_t i) {
            std::vector<Value> args;
            args.reserve(argc);
            for (const OpView& w : avs) args.push_back(w.Get(i));
            return udf->fn(args);
          });
        }
        stack.resize(stack.size() - argc);
        push_owned(std::move(res));
        break;
      }
      case Op::kBetween: {
        OpView hi = ViewOf(stack[stack.size() - 1], begin);
        OpView lo = ViewOf(stack[stack.size() - 2], begin);
        OpView v = ViewOf(stack[stack.size() - 3], begin);
        bool neg = ins.arg != 0;
        ColumnVector res = per_row([&](size_t i) {
          Value vv = v.Get(i), lv = lo.Get(i), hv = hi.Get(i);
          if (vv.is_null() || lv.is_null() || hv.is_null()) return Value::Null();
          bool in = vv.Compare(lv) >= 0 && vv.Compare(hv) <= 0;
          return Value::Bool(neg ? !in : in);
        });
        stack.resize(stack.size() - 3);
        push_owned(std::move(res));
        break;
      }
      case Op::kInList: {
        size_t count = static_cast<size_t>(ins.arg2);
        bool neg = ins.arg != 0;
        OpView v = ViewOf(stack[stack.size() - count - 1], begin);
        std::vector<OpView> items;
        items.reserve(count);
        for (size_t a = stack.size() - count; a < stack.size(); ++a) {
          items.push_back(ViewOf(stack[a], begin));
        }
        ColumnVector res = per_row([&](size_t i) {
          Value vv = v.Get(i);
          bool v_null = vv.is_null();
          bool found = false;
          for (const OpView& it : items) {
            Value iv = it.Get(i);
            if (!v_null && !iv.is_null() && vv == iv) found = true;
          }
          return v_null ? Value::Null() : Value::Bool(neg ? !found : found);
        });
        stack.resize(stack.size() - count - 1);
        push_owned(std::move(res));
        break;
      }
      case Op::kIsNull: {
        Ent e = std::move(stack.back());
        stack.pop_back();
        OpView w = ViewOf(e, begin);
        bool neg = ins.arg != 0;
        ColumnVector res = MakeTyped(TypeKind::kBool, Storage::kInt64, n);
        for (size_t i = 0; i < n; ++i) {
          bool is_null = w.IsNull(i);
          res.ints[i] = (neg ? !is_null : is_null) ? 1 : 0;
        }
        push_owned(std::move(res));
        break;
      }
      case Op::kLike: {
        OpView p = ViewOf(stack[stack.size() - 1], begin);
        OpView v = ViewOf(stack[stack.size() - 2], begin);
        bool neg = ins.arg != 0;
        ColumnVector res;
        if (!LikeKernel(v, p, neg, n, &res)) {
          res = per_row([&](size_t i) {
            Value vv = v.Get(i), pv = p.Get(i);
            if (vv.is_null() || pv.is_null()) return Value::Null();
            bool m = LikeMatch(vv.str(), pv.str());
            return Value::Bool(neg ? !m : m);
          });
        }
        stack.resize(stack.size() - 2);
        push_owned(std::move(res));
        break;
      }
      case Op::kCase: {
        size_t whens = static_cast<size_t>(ins.arg2);
        bool has_else = ins.arg != 0;
        size_t total = 2 * whens + (has_else ? 1 : 0);
        size_t base = stack.size() - total;
        std::vector<OpView> vs;
        vs.reserve(total);
        for (size_t a = base; a < stack.size(); ++a) {
          vs.push_back(ViewOf(stack[a], begin));
        }
        ColumnVector res = per_row([&](size_t i) {
          for (size_t w = 0; w < whens; ++w) {
            Value cond = vs[2 * w].Get(i);
            if (!cond.is_null() && cond.bool_v()) return vs[2 * w + 1].Get(i);
          }
          return has_else ? vs[total - 1].Get(i) : Value::Null();
        });
        stack.resize(base);
        push_owned(std::move(res));
        break;
      }
    }
  }
  SHARK_CHECK(stack.size() == 1);

  Ent e = std::move(stack.back());
  if (e.uniform) {
    if (e.uval.is_null()) {
      *out = AllNullVec(n);
    } else {
      ColumnVector v;
      v.storage = Storage::kGeneric;
      v.type = e.uval.kind();
      v.n = n;
      v.values.assign(n, e.uval);
      *out = std::move(v);
    }
  } else if (e.col != nullptr) {
    const ColumnVector& src = *e.col;
    ColumnVector v;
    v.type = src.type;
    v.storage = src.storage;
    v.n = n;
    if (!src.nulls.empty()) {
      v.nulls.assign(src.nulls.begin() + static_cast<long>(begin),
                     src.nulls.begin() + static_cast<long>(end));
    }
    switch (src.storage) {
      case Storage::kInt64:
        v.ints.assign(src.ints.begin() + static_cast<long>(begin),
                      src.ints.begin() + static_cast<long>(end));
        break;
      case Storage::kDouble:
        v.doubles.assign(src.doubles.begin() + static_cast<long>(begin),
                         src.doubles.begin() + static_cast<long>(end));
        break;
      case Storage::kString:
        v.strs.assign(src.strs.begin() + static_cast<long>(begin),
                      src.strs.begin() + static_cast<long>(end));
        break;
      case Storage::kGeneric:
        v.values.assign(src.values.begin() + static_cast<long>(begin),
                        src.values.begin() + static_cast<long>(end));
        break;
      case Storage::kAllNull:
        break;
    }
    *out = std::move(v);
  } else {
    *out = std::move(e.owned);
  }
}

}  // namespace shark
