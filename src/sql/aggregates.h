#ifndef SHARK_SQL_AGGREGATES_H_
#define SHARK_SQL_AGGREGATES_H_

#include <unordered_set>
#include <vector>

#include "rdd/rdd.h"
#include "relation/row.h"
#include "sql/expr.h"
#include "sql/logical_plan.h"

namespace shark {

/// Running state of one aggregate call within one group. Shuffled between
/// the partial (map-side) and final (reduce-side) aggregation phases.
struct AggCell {
  bool inited = false;
  Value acc;           // SUM / MIN / MAX accumulator (also AVG numerator)
  int64_t count = 0;   // COUNT / AVG denominator
  std::unordered_set<Row, KeyHasher<Row>> distinct;  // COUNT(DISTINCT ...)
};

/// Per-group state: one cell per aggregate call.
struct AggState {
  std::vector<AggCell> cells;
};

uint64_t ApproxSizeOf(const AggCell& cell);
uint64_t ApproxSizeOf(const AggState& state);

/// Creates an empty state for the given calls.
AggState InitAggState(const std::vector<AggCall>& calls);

/// Folds one input row into the state (map side), given the row's evaluated
/// aggregate arguments flattened call by call: call i contributes
/// calls[i].args.size() values. Consumes `args` (values may be moved out).
/// The executor's row path and the vectorized group-by both accumulate
/// through here, so they share the arithmetic (and double summation order)
/// exactly.
void AccumulateArgs(const std::vector<AggCall>& calls, std::vector<Value>* args,
                    AggState* state);

/// Evaluates the arguments with the tree interpreter, then AccumulateArgs
/// (the reference oracle's path).
void AccumulateRow(const std::vector<AggCall>& calls, const Row& row,
                   const UdfRegistry* udfs, AggState* state);

/// Merges `from` into `into` (reduce side).
void MergeAggStates(const std::vector<AggCall>& calls, const AggState& from,
                    AggState* into);

/// Produces the output row: group key values followed by finalized
/// aggregates (AVG division, DISTINCT cardinality, SQL NULL semantics).
Row FinalizeAggRow(const std::vector<AggCall>& calls, const Row& group_key,
                   const AggState& state);

}  // namespace shark

#endif  // SHARK_SQL_AGGREGATES_H_
