#ifndef SHARK_SQL_AGGREGATES_H_
#define SHARK_SQL_AGGREGATES_H_

#include <cstdint>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "rdd/rdd.h"
#include "relation/row.h"
#include "sql/expr.h"
#include "sql/logical_plan.h"

namespace shark {

/// The argument tuples one COUNT(DISTINCT ...) call has seen in one group.
using DistinctSet = std::unordered_set<Row, KeyHasher<Row>>;

// ---------------------------------------------------------------------------
// Per-call arithmetic. One definition for every state layout: the reference
// AggState below and the executor's flat group table (exec/vectorized's
// GroupBatch columns) both fold, merge, finalize and size their states
// through these, so their answers and charges agree bit for bit, double
// summation order included.
// ---------------------------------------------------------------------------

/// True when the call accumulates in int64 (an integer SUM, wrapping on
/// overflow); every other SUM and every AVG accumulates in double.
inline bool IntSumCall(const AggCall& call) {
  return call.fn == AggCall::Fn::kSum && call.out_type == TypeKind::kInt64;
}

inline int64_t SumPlus(int64_t a, int64_t b) { return WrapAddInt64(a, b); }
inline double SumPlus(double a, double b) { return a + b; }

/// SUM / AVG: folds one non-NULL argument, already coerced to the
/// accumulator type (AsInt64 or AsDouble). The first value is copied, not
/// added to zero.
template <typename T>
inline void SumFold(T v, uint8_t* inited, T* acc, int64_t* count) {
  *acc = *inited != 0 ? SumPlus(*acc, v) : v;
  *inited = 1;
  *count += 1;
}

/// One call's state of one group, wherever it is stored: pointers to the
/// fields the call uses, null for the others. `count` and `inited` are
/// always set; `int_sum` for an integer SUM, `double_sum` for the other SUMs
/// and AVG, `extreme` for MIN/MAX, `distinct` for COUNT(DISTINCT ...).
template <bool kConst>
struct BasicAggCellRef {
  template <typename T>
  using Ptr = std::conditional_t<kConst, const T*, T*>;
  Ptr<uint8_t> inited = nullptr;
  Ptr<int64_t> count = nullptr;
  Ptr<int64_t> int_sum = nullptr;
  Ptr<double> double_sum = nullptr;
  Ptr<Value> extreme = nullptr;
  Ptr<DistinctSet> distinct = nullptr;
};
using AggCellRef = BasicAggCellRef<false>;
using ConstAggCellRef = BasicAggCellRef<true>;

/// Folds one input row's arguments for `call` (call.args.size() values at
/// `args`, which may be moved from) into the cell.
void FoldArgs(const AggCall& call, Value* args, const AggCellRef& cell);

/// Merges another partial state of the same group and call into `dst`.
void MergeCell(const AggCall& call, const ConstAggCellRef& src,
               const AggCellRef& dst);

/// The call's finalized value: AVG division, DISTINCT cardinality, SQL NULL
/// for a SUM/MIN/MAX/AVG that saw no non-NULL argument.
Value CellResult(const AggCall& call, const ConstAggCellRef& cell);

/// Bytes one cell is charged as: 32, plus the Value accumulator's 16 and the
/// string bytes of a MIN/MAX extreme, plus the rows of a DISTINCT set.
uint64_t CellBytes(const ConstAggCellRef& cell);

/// Fixed bytes of a per-group state besides its cells (a vector header).
inline constexpr uint64_t kAggStateBytes = 24;

// ---------------------------------------------------------------------------
// The reference state layout: one object per group. The reference evaluator
// aggregates with it, and the flat group table's bytes are defined as the
// ApproxSizeOf of the same groups in this layout.
// ---------------------------------------------------------------------------

/// Running state of one aggregate call within one group (see
/// BasicAggCellRef for which fields a call uses).
struct AggCell {
  uint8_t inited = 0;
  int64_t count = 0;
  int64_t int_sum = 0;
  double double_sum = 0.0;
  Value extreme;
  DistinctSet distinct;

  AggCellRef ref() {
    return {&inited, &count, &int_sum, &double_sum, &extreme, &distinct};
  }
  ConstAggCellRef ref() const {
    return {&inited, &count, &int_sum, &double_sum, &extreme, &distinct};
  }
};

/// Per-group state: one cell per aggregate call.
struct AggState {
  std::vector<AggCell> cells;
};

uint64_t ApproxSizeOf(const AggCell& cell);
uint64_t ApproxSizeOf(const AggState& state);

/// Creates an empty state for the given calls.
AggState InitAggState(const std::vector<AggCall>& calls);

/// Folds one input row into the state, given the row's evaluated aggregate
/// arguments flattened call by call: call i contributes calls[i].args.size()
/// values. Consumes `args` (values may be moved out).
void AccumulateArgs(const std::vector<AggCall>& calls, std::vector<Value>* args,
                    AggState* state);

/// Evaluates the arguments with the tree interpreter, then AccumulateArgs
/// (the reference oracle's path).
void AccumulateRow(const std::vector<AggCall>& calls, const Row& row,
                   const UdfRegistry* udfs, AggState* state);

/// Merges `from` into `into` (what a reduce side does with a later partial
/// of a group it has seen).
void MergeAggStates(const std::vector<AggCall>& calls, const AggState& from,
                    AggState* into);

/// Produces the output row: group key values followed by finalized
/// aggregates.
Row FinalizeAggRow(const std::vector<AggCall>& calls, const Row& group_key,
                   const AggState& state);

}  // namespace shark

#endif  // SHARK_SQL_AGGREGATES_H_
