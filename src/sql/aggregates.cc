#include "sql/aggregates.h"

namespace shark {

uint64_t ApproxSizeOf(const AggCell& cell) {
  uint64_t total = 32 + ApproxSizeOf(cell.acc);
  for (const Row& r : cell.distinct) total += ApproxSizeOf(r);
  return total;
}

uint64_t ApproxSizeOf(const AggState& state) {
  uint64_t total = 24;
  for (const AggCell& c : state.cells) total += ApproxSizeOf(c);
  return total;
}

AggState InitAggState(const std::vector<AggCall>& calls) {
  AggState state;
  state.cells.resize(calls.size());
  return state;
}

namespace {

/// Folds a single evaluated argument value into one cell; every function
/// except kCountDistinct (which needs the full argument tuple).
void AccumulateValue(const AggCall& call, const Value& v, AggCell* cell) {
  switch (call.fn) {
    case AggCall::Fn::kCountStar:
      cell->count += 1;
      break;
    case AggCall::Fn::kCount:
      if (!v.is_null()) cell->count += 1;
      break;
    case AggCall::Fn::kSum:
    case AggCall::Fn::kAvg:
      if (!v.is_null()) {
        if (!cell->inited) {
          cell->acc = call.out_type == TypeKind::kInt64 && call.fn == AggCall::Fn::kSum
                          ? Value::Int64(v.AsInt64())
                          : Value::Double(v.AsDouble());
          cell->inited = true;
        } else if (cell->acc.kind() == TypeKind::kInt64) {
          cell->acc = Value::Int64(WrapAddInt64(cell->acc.int64_v(), v.AsInt64()));
        } else {
          cell->acc = Value::Double(cell->acc.double_v() + v.AsDouble());
        }
        cell->count += 1;
      }
      break;
    case AggCall::Fn::kMin:
      if (!v.is_null() && (!cell->inited || v.Compare(cell->acc) < 0)) {
        cell->acc = v;
        cell->inited = true;
      }
      break;
    case AggCall::Fn::kMax:
      if (!v.is_null() && (!cell->inited || v.Compare(cell->acc) > 0)) {
        cell->acc = v;
        cell->inited = true;
      }
      break;
    case AggCall::Fn::kCountDistinct:
      break;  // handled by caller (needs the full arg tuple)
  }
}

}  // namespace

void AccumulateArgs(const std::vector<AggCall>& calls, std::vector<Value>* args,
                    AggState* state) {
  static const Value kNoArg = Value::Null();
  size_t next = 0;
  for (size_t i = 0; i < calls.size(); ++i) {
    const AggCall& call = calls[i];
    AggCell& cell = state->cells[i];
    const size_t argc = call.args.size();
    if (call.fn == AggCall::Fn::kCountDistinct) {
      Row tuple;
      bool any_null = false;
      for (size_t a = 0; a < argc; ++a) {
        Value& v = (*args)[next + a];
        any_null = any_null || v.is_null();
        tuple.fields.push_back(std::move(v));
      }
      if (!any_null) cell.distinct.insert(std::move(tuple));
    } else {
      AccumulateValue(call, argc == 0 ? kNoArg : (*args)[next], &cell);
    }
    next += argc;
  }
}

void AccumulateRow(const std::vector<AggCall>& calls, const Row& row,
                   const UdfRegistry* udfs, AggState* state) {
  std::vector<Value> args;
  for (const AggCall& call : calls) {
    for (const ExprPtr& arg : call.args) {
      args.push_back(EvalExpr(*arg, row, udfs));
    }
  }
  AccumulateArgs(calls, &args, state);
}

void MergeAggStates(const std::vector<AggCall>& calls, const AggState& from,
                    AggState* into) {
  for (size_t i = 0; i < calls.size(); ++i) {
    const AggCall& call = calls[i];
    const AggCell& src = from.cells[i];
    AggCell& dst = into->cells[i];
    switch (call.fn) {
      case AggCall::Fn::kCountStar:
      case AggCall::Fn::kCount:
        dst.count += src.count;
        break;
      case AggCall::Fn::kSum:
      case AggCall::Fn::kAvg:
        if (src.inited) {
          if (!dst.inited) {
            dst.acc = src.acc;
            dst.inited = true;
          } else if (dst.acc.kind() == TypeKind::kInt64) {
            dst.acc = Value::Int64(WrapAddInt64(dst.acc.int64_v(), src.acc.int64_v()));
          } else {
            dst.acc = Value::Double(dst.acc.double_v() + src.acc.AsDouble());
          }
          dst.count += src.count;
        }
        break;
      case AggCall::Fn::kMin:
        if (src.inited && (!dst.inited || src.acc.Compare(dst.acc) < 0)) {
          dst.acc = src.acc;
          dst.inited = true;
        }
        break;
      case AggCall::Fn::kMax:
        if (src.inited && (!dst.inited || src.acc.Compare(dst.acc) > 0)) {
          dst.acc = src.acc;
          dst.inited = true;
        }
        break;
      case AggCall::Fn::kCountDistinct:
        for (const Row& r : src.distinct) dst.distinct.insert(r);
        break;
    }
  }
}

Row FinalizeAggRow(const std::vector<AggCall>& calls, const Row& group_key,
                   const AggState& state) {
  Row out = group_key;
  for (size_t i = 0; i < calls.size(); ++i) {
    const AggCall& call = calls[i];
    const AggCell& cell = state.cells[i];
    switch (call.fn) {
      case AggCall::Fn::kCountStar:
      case AggCall::Fn::kCount:
        out.fields.push_back(Value::Int64(cell.count));
        break;
      case AggCall::Fn::kCountDistinct:
        out.fields.push_back(
            Value::Int64(static_cast<int64_t>(cell.distinct.size())));
        break;
      case AggCall::Fn::kSum:
      case AggCall::Fn::kMin:
      case AggCall::Fn::kMax:
        out.fields.push_back(cell.inited ? cell.acc : Value::Null());
        break;
      case AggCall::Fn::kAvg:
        out.fields.push_back(cell.count > 0
                                 ? Value::Double(cell.acc.AsDouble() /
                                                 static_cast<double>(cell.count))
                                 : Value::Null());
        break;
    }
  }
  return out;
}

}  // namespace shark
