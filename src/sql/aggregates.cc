#include "sql/aggregates.h"

namespace shark {

namespace {

/// Whether MIN/MAX candidate `v` replaces the current extreme (ties keep it).
bool Improves(AggCall::Fn fn, const Value& v, const Value& current) {
  const int c = v.Compare(current);
  return fn == AggCall::Fn::kMin ? c < 0 : c > 0;
}

}  // namespace

void FoldArgs(const AggCall& call, Value* args, const AggCellRef& cell) {
  switch (call.fn) {
    case AggCall::Fn::kCountStar:
      *cell.count += 1;
      break;
    case AggCall::Fn::kCount:
      if (!args[0].is_null()) *cell.count += 1;
      break;
    case AggCall::Fn::kSum:
    case AggCall::Fn::kAvg:
      if (args[0].is_null()) break;
      if (IntSumCall(call)) {
        SumFold(args[0].AsInt64(), cell.inited, cell.int_sum, cell.count);
      } else {
        SumFold(args[0].AsDouble(), cell.inited, cell.double_sum, cell.count);
      }
      break;
    case AggCall::Fn::kMin:
    case AggCall::Fn::kMax: {
      const Value& v = args[0];
      if (v.is_null()) break;
      if (*cell.inited != 0 && !Improves(call.fn, v, *cell.extreme)) break;
      *cell.extreme = std::move(args[0]);
      *cell.inited = 1;
      break;
    }
    case AggCall::Fn::kCountDistinct: {
      Row tuple;
      tuple.fields.reserve(call.args.size());
      for (size_t a = 0; a < call.args.size(); ++a) {
        if (args[a].is_null()) return;
        tuple.fields.push_back(std::move(args[a]));
      }
      cell.distinct->insert(std::move(tuple));
      break;
    }
  }
}

void MergeCell(const AggCall& call, const ConstAggCellRef& src,
               const AggCellRef& dst) {
  switch (call.fn) {
    case AggCall::Fn::kCountStar:
    case AggCall::Fn::kCount:
      *dst.count += *src.count;
      break;
    case AggCall::Fn::kSum:
    case AggCall::Fn::kAvg:
      if (*src.inited == 0) break;
      if (IntSumCall(call)) {
        *dst.int_sum = *dst.inited != 0 ? SumPlus(*dst.int_sum, *src.int_sum)
                                        : *src.int_sum;
      } else {
        *dst.double_sum = *dst.inited != 0
                              ? SumPlus(*dst.double_sum, *src.double_sum)
                              : *src.double_sum;
      }
      *dst.inited = 1;
      *dst.count += *src.count;
      break;
    case AggCall::Fn::kMin:
    case AggCall::Fn::kMax:
      if (*src.inited == 0) break;
      if (*dst.inited != 0 && !Improves(call.fn, *src.extreme, *dst.extreme)) {
        break;
      }
      *dst.extreme = *src.extreme;
      *dst.inited = 1;
      break;
    case AggCall::Fn::kCountDistinct:
      for (const Row& r : *src.distinct) dst.distinct->insert(r);
      break;
  }
}

Value CellResult(const AggCall& call, const ConstAggCellRef& cell) {
  switch (call.fn) {
    case AggCall::Fn::kCountStar:
    case AggCall::Fn::kCount:
      return Value::Int64(*cell.count);
    case AggCall::Fn::kCountDistinct:
      return Value::Int64(static_cast<int64_t>(cell.distinct->size()));
    case AggCall::Fn::kSum:
      if (*cell.inited == 0) return Value::Null();
      return IntSumCall(call) ? Value::Int64(*cell.int_sum)
                              : Value::Double(*cell.double_sum);
    case AggCall::Fn::kMin:
    case AggCall::Fn::kMax:
      return *cell.inited != 0 ? *cell.extreme : Value::Null();
    case AggCall::Fn::kAvg:
      return *cell.count > 0 ? Value::Double(*cell.double_sum /
                                             static_cast<double>(*cell.count))
                             : Value::Null();
  }
  return Value::Null();
}

uint64_t CellBytes(const ConstAggCellRef& cell) {
  // Charged as a cell holding one Value accumulator: a MIN/MAX extreme's
  // size, a non-string Value's 16 bytes for every other call.
  uint64_t total = 32 + (cell.extreme != nullptr ? ApproxSizeOf(*cell.extreme)
                                                 : ApproxSizeOf(Value()));
  if (cell.distinct != nullptr) {
    for (const Row& r : *cell.distinct) total += ApproxSizeOf(r);
  }
  return total;
}

uint64_t ApproxSizeOf(const AggCell& cell) { return CellBytes(cell.ref()); }

uint64_t ApproxSizeOf(const AggState& state) {
  uint64_t total = kAggStateBytes;
  for (const AggCell& c : state.cells) total += ApproxSizeOf(c);
  return total;
}

AggState InitAggState(const std::vector<AggCall>& calls) {
  AggState state;
  state.cells.resize(calls.size());
  return state;
}

void AccumulateArgs(const std::vector<AggCall>& calls, std::vector<Value>* args,
                    AggState* state) {
  size_t next = 0;
  for (size_t i = 0; i < calls.size(); ++i) {
    FoldArgs(calls[i], args->data() + next, state->cells[i].ref());
    next += calls[i].args.size();
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
    MergeCell(calls[i], from.cells[i].ref(), into->cells[i].ref());
  }
}

Row FinalizeAggRow(const std::vector<AggCall>& calls, const Row& group_key,
                   const AggState& state) {
  Row out = group_key;
  out.fields.reserve(group_key.fields.size() + calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    out.fields.push_back(CellResult(calls[i], state.cells[i].ref()));
  }
  return out;
}

}  // namespace shark
