#ifndef SHARK_TOOLS_FUZZ_FUZZ_HARNESS_H_
#define SHARK_TOOLS_FUZZ_FUZZ_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relation/row.h"
#include "relation/types.h"

namespace shark {
namespace fuzz {

/// One generated input table (written to the simulated DFS before running).
struct TableSpec {
  std::string name;
  Schema schema;
  std::vector<Row> rows;
  int num_blocks = 2;
};

/// Structured form of a generated query, kept so the minimizer can delete
/// clauses and re-render instead of doing string surgery on SQL. Expressions
/// are stored as already-rendered SQL fragments.
struct GenJoin {
  std::string table_sql;  // table name or "(SELECT ...)"
  std::string alias;
  std::vector<std::string> on_conjuncts;
  std::string type_sql;  // "JOIN" | "LEFT OUTER JOIN" | "RIGHT OUTER JOIN"
};

struct GenQuery {
  bool distinct = false;
  std::vector<std::pair<std::string, std::string>> items;  // expr sql, alias
  std::string from_sql;
  std::string from_alias;
  std::vector<GenJoin> joins;
  std::vector<std::string> where_conjuncts;
  std::vector<std::string> group_by;
  std::string having;  // empty = none
  std::vector<std::pair<std::string, bool>> order_by;  // expr sql, ascending
  int64_t limit = -1;

  std::string Render() const;

  /// Metamorphic rewrites that must not change the result multiset:
  /// reversed WHERE/ON conjunct order, commuted join inputs (with the
  /// outer-join side flipped accordingly). Empty fragments are skipped.
  std::vector<std::string> RenderVariants() const;
};

/// A complete differential-testing case: tables + query (+ pre-rendered
/// metamorphic variants). `ordered_by` records the output-sortedness
/// contract when the query has a top-level ORDER BY: pairs of (output
/// column index, ascending).
struct FuzzCase {
  uint64_t seed = 0;
  std::vector<TableSpec> tables;
  std::string sql;
  std::vector<std::string> variants;
  std::vector<std::pair<int, bool>> ordered_by;

  /// Set for generated cases; enables clause-level minimization.
  bool has_structure = false;
  GenQuery query;
};

/// Deterministically generates a case from a seed: random schemas whose
/// data includes the nasty values (NULL, NaN, +/-0.0, +/-Inf, empty strings,
/// int64 above 2^53, extreme dates) and a random query from the HiveQL
/// subset both engines support.
FuzzCase GenerateCase(uint64_t seed);

// -- corpus serialization ----------------------------------------------------

/// Self-contained single-file text form (tables, rows with typed exact
/// encodings, query, variants, ordering contract). Round-trips bit-exactly,
/// including -0.0, NaN and infinities.
std::string SerializeCase(const FuzzCase& c);
Result<FuzzCase> ParseCase(const std::string& text);

// -- execution ---------------------------------------------------------------

struct RunOptions {
  bool run_hive = true;
  bool run_metamorphic = true;
  /// Tight memory budget (bytes per node) for the memory-pressure variant.
  uint64_t tight_mem_bytes = 1ULL << 22;
};

struct RunOutcome {
  /// True when every oracle and variant agreed (or the query was
  /// consistently rejected by all of them).
  bool ok = true;
  /// True when the query was rejected (parse/analysis error) by all
  /// oracles consistently.
  bool rejected = false;
  /// Human-readable description of the first divergence.
  std::string divergence;
  /// Reference-oracle output row count (diagnostics; 0 when rejected).
  int reference_rows = 0;
  /// The parse/analysis error for consistently-rejected cases (diagnostics).
  std::string rejection;
};

/// Runs the case through the three oracles (Shark, Hive, reference
/// evaluator) and the metamorphic variants (cached vs uncached, vectorized
/// batch path vs scalar interpreter over the cached columnar store,
/// secondary indexes on every column vs indexes disabled,
/// host_threads 1 vs 4, tight vs ample memory, conjunct order, join
/// commutation, static / adaptive / static+adaptive join lowering with
/// shuffle joins forced),
/// comparing all results against the reference as multisets with exact
/// Value equality plus a small tolerance for DOUBLE aggregate outputs, and
/// checking the ORDER BY sortedness contract.
RunOutcome RunCase(const FuzzCase& c, const RunOptions& opts = RunOptions());

/// Greedy minimizer: repeatedly deletes clauses (WHERE/ON conjuncts,
/// HAVING, ORDER BY/LIMIT, joins, select items, DISTINCT), variants, unused
/// tables and data rows while the case keeps diverging.
FuzzCase MinimizeCase(const FuzzCase& c, const RunOptions& opts = RunOptions());

}  // namespace fuzz
}  // namespace shark

#endif  // SHARK_TOOLS_FUZZ_FUZZ_HARNESS_H_
