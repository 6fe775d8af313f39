#include "tools/fuzz/fuzz_harness.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>

#include "common/random.h"
#include "hive/hive_engine.h"
#include "rdd/job_manager.h"
#include "sql/parser.h"
#include "sql/reference_eval.h"
#include "sql/session.h"

namespace shark {
namespace fuzz {

// ---------------------------------------------------------------------------
// Query rendering
// ---------------------------------------------------------------------------

std::string GenQuery::Render() const {
  std::string sql = "SELECT ";
  if (distinct) sql += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += items[i].first + " AS " + items[i].second;
  }
  sql += " FROM " + from_sql + " " + from_alias;
  for (const GenJoin& j : joins) {
    sql += " " + j.type_sql + " " + j.table_sql + " " + j.alias + " ON ";
    for (size_t i = 0; i < j.on_conjuncts.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += j.on_conjuncts[i];
    }
  }
  if (!where_conjuncts.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < where_conjuncts.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += where_conjuncts[i];
    }
  }
  if (!group_by.empty()) {
    sql += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += group_by[i];
    }
  }
  if (!having.empty()) sql += " HAVING " + having;
  if (!order_by.empty()) {
    sql += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += order_by[i].first + (order_by[i].second ? " ASC" : " DESC");
    }
  }
  if (limit >= 0) sql += " LIMIT " + std::to_string(limit);
  return sql;
}

std::vector<std::string> GenQuery::RenderVariants() const {
  std::vector<std::string> out;

  // WHERE-conjunct reordering.
  if (where_conjuncts.size() >= 2) {
    GenQuery v = *this;
    std::reverse(v.where_conjuncts.begin(), v.where_conjuncts.end());
    out.push_back(v.Render());
  }
  // ON-conjunct reordering.
  bool any_multi_on = false;
  for (const GenJoin& j : joins) any_multi_on |= j.on_conjuncts.size() >= 2;
  if (any_multi_on) {
    GenQuery v = *this;
    for (GenJoin& j : v.joins) {
      std::reverse(j.on_conjuncts.begin(), j.on_conjuncts.end());
    }
    out.push_back(v.Render());
  }
  // Join-input commutation (single join only; select items are fully
  // qualified, so the output schema is unchanged).
  if (joins.size() == 1) {
    GenQuery v = *this;
    GenJoin& j = v.joins[0];
    std::swap(v.from_sql, j.table_sql);
    std::swap(v.from_alias, j.alias);
    if (j.type_sql == "LEFT OUTER JOIN") {
      j.type_sql = "RIGHT OUTER JOIN";
    } else if (j.type_sql == "RIGHT OUTER JOIN") {
      j.type_sql = "LEFT OUTER JOIN";
    }
    out.push_back(v.Render());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

namespace {

struct GenColumn {
  std::string name;
  TypeKind type = TypeKind::kInt64;
  /// Tame columns hold values safe for order-sensitive floating-point
  /// accumulation (SUM over DOUBLE, AVG): bounded magnitude, no NaN/Inf.
  bool tame = false;
};

struct ScopeCol {
  std::string qualifier;
  std::string name;
  TypeKind type = TypeKind::kInt64;
  bool tame = false;

  std::string Sql() const { return qualifier + "." + name; }
};

int64_t MustDays(const char* text) {
  auto v = Value::ParseDate(text);
  return v.ok() ? (*v).int64_v() : 0;
}

constexpr int64_t kTwo53 = 9007199254740992LL;  // 2^53

const int64_t kTameInts[] = {0, 1, -1, 2, 3, 5, 7, 42, -17, 100, 1000};
const int64_t kNastyInts[] = {
    0,      1,         -1,         2,
    42,     -17,       1 << 20,    kTwo53,
    kTwo53 + 1,        -(kTwo53 + 1),
    std::numeric_limits<int64_t>::max(),
    std::numeric_limits<int64_t>::min(),
    std::numeric_limits<int64_t>::max() - 1,
    std::numeric_limits<int64_t>::min() + 1};
const double kTameDoubles[] = {0.0, 1.0,  -1.5, 2.5, 0.125, 3.0,
                               10.0, 100.0, 0.1, -7.25, 42.0};
const double kNastyDoubles[] = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                2.5,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                9007199254740992.0,   // 2^53
                                9007199254740994.0,   // 2^53 + 2
                                1e308,
                                -1e308,
                                1e-300,
                                42.0,
                                100.0};
const char* kStrings[] = {"",   "a",  "b",   "ab",   "abc", "A",
                          "%x", "x_y", "x y", "zzz", "it's", "42"};

struct DatePool {
  std::vector<int64_t> days;
  DatePool() {
    for (const char* d : {"1970-01-01", "1969-12-31", "2013-02-28",
                          "2000-02-29", "0001-01-01", "9999-12-31",
                          "2012-07-04"}) {
      days.push_back(MustDays(d));
    }
  }
};

const DatePool& Dates() {
  static DatePool pool;
  return pool;
}

template <typename T, size_t N>
T Pick(Random* rng, const T (&pool)[N]) {
  return pool[rng->Uniform(N)];
}

Value GenValue(Random* rng, const GenColumn& col) {
  if (rng->Bernoulli(0.12)) return Value::Null();
  switch (col.type) {
    case TypeKind::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case TypeKind::kInt64:
      return Value::Int64(col.tame ? Pick(rng, kTameInts)
                                   : Pick(rng, kNastyInts));
    case TypeKind::kDouble:
      return Value::Double(col.tame ? Pick(rng, kTameDoubles)
                                    : Pick(rng, kNastyDoubles));
    case TypeKind::kString:
      return Value::String(kStrings[rng->Uniform(std::size(kStrings))]);
    case TypeKind::kDate:
      return Value::Date(Dates().days[rng->Uniform(Dates().days.size())]);
    case TypeKind::kNull:
      break;
  }
  return Value::Null();
}

std::string EscapeSqlString(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    out += c;
    if (c == '\'') out += c;  // doubled-quote escape
  }
  out += "'";
  return out;
}

/// Renders a value as a lexer-parseable SQL literal. INT64_MIN has no
/// literal form (the magnitude overflows the integer token), so it is
/// nudged; NaN/Inf doubles have no literal form either and are replaced.
std::string RenderLiteral(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return v.bool_v() ? "TRUE" : "FALSE";
    case TypeKind::kInt64: {
      int64_t i = v.int64_v();
      if (i == std::numeric_limits<int64_t>::min()) ++i;
      return std::to_string(i);
    }
    case TypeKind::kDouble: {
      double d = v.double_v();
      if (std::isnan(d) || std::isinf(d)) d = 1e308 * (d < 0 ? -1.0 : 1.0);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      return buf;
    }
    case TypeKind::kString:
      return EscapeSqlString(v.str());
    case TypeKind::kDate:
      return "DATE '" + Value::FormatDate(v.int64_v()) + "'";
  }
  return "NULL";
}

class QueryGen {
 public:
  QueryGen(Random* rng, const std::vector<TableSpec>& tables,
           const std::vector<std::vector<GenColumn>>& columns)
      : rng_(rng), tables_(tables), columns_(columns) {}

  GenQuery Generate(std::vector<std::pair<int, bool>>* ordered_by) {
    GenQuery q = GenerateInner(/*depth=*/0, &scope_);
    *ordered_by = ordered_by_;
    return q;
  }

 private:
  /// Picks a literal for comparisons: usually from the same pools the data
  /// is drawn from, so predicates actually select rows.
  Value LiteralFor(const ScopeCol& col) {
    GenColumn gc;
    gc.type = col.type;
    gc.tame = col.tame;
    Value v = GenValue(rng_, gc);
    if (v.is_null()) v = GenValue(rng_, gc);  // prefer non-NULL literals
    return v;
  }

  std::string NumericExpr(const std::vector<ScopeCol>& scope, int depth) {
    std::vector<const ScopeCol*> nums;
    for (const ScopeCol& c : scope) {
      if (c.type == TypeKind::kInt64 || c.type == TypeKind::kDouble) {
        nums.push_back(&c);
      }
    }
    if (nums.empty()) return "1";
    const ScopeCol& c = *nums[rng_->Uniform(nums.size())];
    if (depth > 0 && rng_->Bernoulli(0.45)) {
      switch (rng_->Uniform(6)) {
        case 0:
          return "(" + NumericExpr(scope, depth - 1) + " + " +
                 NumericExpr(scope, depth - 1) + ")";
        case 1:
          return "(" + NumericExpr(scope, depth - 1) + " - " +
                 NumericExpr(scope, depth - 1) + ")";
        case 2:
          return "(" + NumericExpr(scope, depth - 1) + " * " +
                 std::to_string(rng_->UniformInt(-3, 7)) + ")";
        case 3:
          return "(" + c.Sql() + " % " +
                 std::to_string(rng_->Bernoulli(0.5) ? 7 : -3) + ")";
        case 4:
          return "ABS(" + NumericExpr(scope, depth - 1) + ")";
        default:
          return "FLOOR(" + NumericExpr(scope, depth - 1) + ")";
      }
    }
    return c.Sql();
  }

  std::string Predicate(const std::vector<ScopeCol>& scope, int depth) {
    if (depth > 0 && rng_->Bernoulli(0.25)) {
      std::string l = Predicate(scope, depth - 1);
      std::string r = Predicate(scope, depth - 1);
      if (rng_->Bernoulli(0.3)) return "NOT (" + l + ")";
      return "(" + l + (rng_->Bernoulli(0.5) ? " OR " : " AND ") + r + ")";
    }
    const ScopeCol& c = scope[rng_->Uniform(scope.size())];
    static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
    switch (rng_->Uniform(6)) {
      case 0:
        return c.Sql() + " IS " + (rng_->Bernoulli(0.5) ? "NOT " : "") +
               "NULL";
      case 1: {  // column vs column (numeric pairs allow cross-type)
        std::vector<const ScopeCol*> mates;
        bool c_num = IsNumericLike(c.type);
        for (const ScopeCol& o : scope) {
          if (&o == &c) continue;
          if (c_num ? IsNumericLike(o.type) : o.type == c.type) {
            mates.push_back(&o);
          }
        }
        if (mates.empty()) break;
        return c.Sql() + " " + Pick(rng_, kCmp) + " " +
               mates[rng_->Uniform(mates.size())]->Sql();
      }
      case 2: {  // BETWEEN
        if (c.type == TypeKind::kBool) break;
        return c.Sql() + (rng_->Bernoulli(0.25) ? " NOT BETWEEN " : " BETWEEN ") +
               RenderLiteral(LiteralFor(c)) + " AND " +
               RenderLiteral(LiteralFor(c));
      }
      case 3: {  // IN list
        std::string in = c.Sql() + (rng_->Bernoulli(0.25) ? " NOT IN (" : " IN (");
        int n = static_cast<int>(rng_->UniformInt(2, 4));
        for (int i = 0; i < n; ++i) {
          if (i > 0) in += ", ";
          in += RenderLiteral(LiteralFor(c));
        }
        return in + ")";
      }
      case 4: {  // LIKE
        if (c.type != TypeKind::kString) break;
        static const char* kPatterns[] = {"a%", "%b", "%",   "_",
                                          "%y%", "ab", "%'%", "4_"};
        return c.Sql() + (rng_->Bernoulli(0.25) ? " NOT LIKE " : " LIKE ") +
               EscapeSqlString(Pick(rng_, kPatterns));
      }
      default:
        break;
    }
    return c.Sql() + " " + Pick(rng_, kCmp) + " " +
           RenderLiteral(LiteralFor(c));
  }

  /// A relation usable in FROM/JOIN: either a base table or a derived
  /// (sub-select) table, with its visible columns.
  struct Rel {
    std::string sql;
    std::vector<GenColumn> cols;
  };

  Rel BaseTable() {
    size_t t = rng_->Uniform(tables_.size());
    return {tables_[t].name, columns_[t]};
  }

  Rel Relation(int depth) {
    if (depth < 2 && rng_->Bernoulli(0.18)) {
      // Derived table: a nested sub-select, possibly aggregating.
      std::vector<ScopeCol> inner_scope;
      GenQuery inner = GenerateInner(depth + 1, &inner_scope);
      Rel rel;
      rel.sql = "(" + inner.Render() + ")";
      // inner_scope entries are pushed one per select item, in order.
      for (size_t i = 0; i < inner.items.size(); ++i) {
        GenColumn gc;
        gc.name = inner.items[i].second;
        if (i < inner_scope.size()) {
          gc.type = inner_scope[i].type;
          gc.tame = inner_scope[i].tame;
        }
        rel.cols.push_back(gc);
      }
      return rel;
    }
    return BaseTable();
  }

  GenQuery GenerateInner(int depth, std::vector<ScopeCol>* out_scope) {
    GenQuery q;
    int next_alias = 0;
    auto alias_name = [&next_alias, depth]() {
      return std::string(1, static_cast<char>('a' + next_alias++)) +
             (depth > 0 ? "q" + std::to_string(depth) : "");
    };

    std::vector<ScopeCol> scope;
    Rel from = Relation(depth);
    q.from_sql = from.sql;
    q.from_alias = alias_name();
    for (const GenColumn& c : from.cols) {
      scope.push_back({q.from_alias, c.name, c.type, c.tame});
    }

    // Joins (outer query only, up to 2).
    int num_joins =
        depth == 0 ? static_cast<int>(rng_->UniformInt(0, 2)) : 0;
    for (int j = 0; j < num_joins; ++j) {
      Rel right = Relation(depth);
      GenJoin join;
      join.table_sql = right.sql;
      join.alias = alias_name();
      switch (rng_->Uniform(4)) {
        case 0:
          join.type_sql = "LEFT OUTER JOIN";
          break;
        case 1:
          join.type_sql = "RIGHT OUTER JOIN";
          break;
        default:
          join.type_sql = "JOIN";
          break;
      }
      std::vector<ScopeCol> right_scope;
      for (const GenColumn& c : right.cols) {
        right_scope.push_back({join.alias, c.name, c.type, c.tame});
      }
      // Equi-key: numeric-numeric (cross-type int/double allowed) or
      // same-type.
      std::vector<std::pair<const ScopeCol*, const ScopeCol*>> keys;
      for (const ScopeCol& l : scope) {
        for (const ScopeCol& r : right_scope) {
          bool ok = IsNumericLike(l.type) ? IsNumericLike(r.type)
                                          : l.type == r.type;
          if (ok) keys.emplace_back(&l, &r);
        }
      }
      if (keys.empty()) continue;  // no equi-key possible; skip join
      auto [lk, rk] = keys[rng_->Uniform(keys.size())];
      join.on_conjuncts.push_back(lk->Sql() + " = " + rk->Sql());
      if (rng_->Bernoulli(0.3) && keys.size() > 1) {
        auto [lk2, rk2] = keys[rng_->Uniform(keys.size())];
        join.on_conjuncts.push_back(lk2->Sql() + " = " + rk2->Sql());
      }
      std::vector<ScopeCol> joined_scope = scope;
      joined_scope.insert(joined_scope.end(), right_scope.begin(),
                          right_scope.end());
      if (rng_->Bernoulli(0.25)) {
        join.on_conjuncts.push_back(Predicate(joined_scope, 0));
      }
      scope = std::move(joined_scope);
      q.joins.push_back(std::move(join));
    }

    // WHERE.
    int num_where = static_cast<int>(rng_->UniformInt(0, 3));
    for (int i = 0; i < num_where; ++i) {
      q.where_conjuncts.push_back(Predicate(scope, 1));
    }

    bool aggregate = rng_->Bernoulli(0.45);
    int out_idx = 0;
    auto out_name = [&out_idx, depth]() {
      return (depth > 0 ? "s" : "o") + std::to_string(depth) + "_" +
             std::to_string(out_idx++);
    };

    if (aggregate) {
      int num_groups = static_cast<int>(rng_->UniformInt(0, 2));
      for (int g = 0; g < num_groups; ++g) {
        const ScopeCol& c = scope[rng_->Uniform(scope.size())];
        std::string sql = c.Sql();
        bool dup = false;
        for (const std::string& existing : q.group_by) {
          dup |= existing == sql;
        }
        if (dup) continue;
        q.group_by.push_back(sql);
        q.items.emplace_back(sql, out_name());
        out_scope->push_back({"", q.items.back().second, c.type, c.tame});
      }
      int num_aggs = static_cast<int>(rng_->UniformInt(1, 3));
      for (int a = 0; a < num_aggs; ++a) {
        std::string agg = GenAggCall(scope, out_scope);
        q.items.emplace_back(agg, out_name());
        out_scope->back().name = q.items.back().second;
      }
      if (!q.group_by.empty() && rng_->Bernoulli(0.3)) {
        static const char* kHavingCmp[] = {">", ">=", "<="};
        q.having = std::string("COUNT(*) ") + Pick(rng_, kHavingCmp) + " " +
                   std::to_string(rng_->UniformInt(0, 3));
      }
    } else {
      if (rng_->Bernoulli(0.2)) q.distinct = true;
      int num_items = static_cast<int>(rng_->UniformInt(1, 4));
      for (int i = 0; i < num_items; ++i) {
        if (rng_->Bernoulli(0.3)) {
          std::string e = NumericExpr(scope, 1);
          q.items.emplace_back(e, out_name());
          out_scope->push_back({"", q.items.back().second, TypeKind::kDouble,
                                false});
        } else {
          const ScopeCol& c = scope[rng_->Uniform(scope.size())];
          q.items.emplace_back(c.Sql(), out_name());
          out_scope->push_back({"", q.items.back().second, c.type, c.tame});
        }
      }
    }

    // ORDER BY / LIMIT (outer query only; DISTINCT skips ORDER BY because
    // the analyzer binds sort expressions against the pre-DISTINCT items).
    if (depth == 0 && !q.distinct && rng_->Bernoulli(0.55)) {
      bool full_cover = rng_->Bernoulli(0.6);
      size_t num_keys = full_cover
                            ? q.items.size()
                            : 1 + rng_->Uniform(q.items.size());
      for (size_t k = 0; k < num_keys; ++k) {
        bool asc = rng_->Bernoulli(0.7);
        q.order_by.emplace_back(q.items[k].first, asc);
        ordered_by_.emplace_back(static_cast<int>(k), asc);
      }
      // LIMIT only when the sort covers every output column — otherwise
      // ties at the cut make the result multiset nondeterministic.
      if (full_cover && num_keys == q.items.size() && rng_->Bernoulli(0.6)) {
        q.limit = rng_->UniformInt(0, 15);
      }
    }
    return q;
  }

  std::string GenAggCall(const std::vector<ScopeCol>& scope,
                         std::vector<ScopeCol>* out_scope) {
    std::vector<const ScopeCol*> ints, tame, any;
    for (const ScopeCol& c : scope) {
      any.push_back(&c);
      if (c.type == TypeKind::kInt64) ints.push_back(&c);
      if (c.tame &&
          (c.type == TypeKind::kInt64 || c.type == TypeKind::kDouble)) {
        tame.push_back(&c);
      }
    }
    const ScopeCol& a = *any[rng_->Uniform(any.size())];
    switch (rng_->Uniform(7)) {
      case 0:
        out_scope->push_back({"", "", TypeKind::kInt64, true});
        return "COUNT(*)";
      case 1:
        out_scope->push_back({"", "", TypeKind::kInt64, true});
        return "COUNT(" + a.Sql() + ")";
      case 2:
        out_scope->push_back({"", "", TypeKind::kInt64, true});
        return "COUNT(DISTINCT " + a.Sql() + ")";
      case 3:  // SUM: exact for BIGINT (wrapping); DOUBLE only when tame.
        if (!ints.empty() && rng_->Bernoulli(0.6)) {
          out_scope->push_back({"", "", TypeKind::kInt64, false});
          return "SUM(" + ints[rng_->Uniform(ints.size())]->Sql() + ")";
        }
        if (!tame.empty()) {
          const ScopeCol& t = *tame[rng_->Uniform(tame.size())];
          out_scope->push_back({"", "", t.type, false});
          return "SUM(" + t.Sql() + ")";
        }
        out_scope->push_back({"", "", TypeKind::kInt64, true});
        return "COUNT(*)";
      case 4:  // AVG accumulates in DOUBLE: tame columns only.
        if (!tame.empty()) {
          const ScopeCol& t = *tame[rng_->Uniform(tame.size())];
          out_scope->push_back({"", "", TypeKind::kDouble, false});
          return "AVG(" + t.Sql() + ")";
        }
        out_scope->push_back({"", "", TypeKind::kInt64, true});
        return "COUNT(*)";
      case 5:
        out_scope->push_back({"", "", a.type, a.tame});
        return "MIN(" + a.Sql() + ")";
      default:
        out_scope->push_back({"", "", a.type, a.tame});
        return "MAX(" + a.Sql() + ")";
    }
  }

  Random* rng_;
  const std::vector<TableSpec>& tables_;
  const std::vector<std::vector<GenColumn>>& columns_;
  std::vector<ScopeCol> scope_;
  std::vector<std::pair<int, bool>> ordered_by_;
};

}  // namespace

FuzzCase GenerateCase(uint64_t seed) {
  Random rng(seed * 0x9e3779b97f4a7c15ULL + 0x5ee2ULL);
  FuzzCase c;
  c.seed = seed;

  int num_tables = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<std::vector<GenColumn>> columns;
  for (int t = 0; t < num_tables; ++t) {
    TableSpec spec;
    spec.name = "t" + std::to_string(t);
    spec.num_blocks = static_cast<int>(rng.UniformInt(1, 4));
    std::vector<GenColumn> cols;
    int num_cols = static_cast<int>(rng.UniformInt(2, 5));
    for (int i = 0; i < num_cols; ++i) {
      GenColumn gc;
      gc.name = "c" + std::to_string(i);
      if (i == 0) {
        gc.type = TypeKind::kInt64;  // every table can join on c0
      } else {
        static const TypeKind kTypes[] = {TypeKind::kInt64, TypeKind::kDouble,
                                          TypeKind::kString, TypeKind::kDate,
                                          TypeKind::kBool};
        gc.type = kTypes[rng.Uniform(std::size(kTypes))];
      }
      gc.tame = rng.Bernoulli(0.5);
      cols.push_back(gc);
      Status st = spec.schema.AddField({gc.name, gc.type});
      (void)st;
    }
    int num_rows = static_cast<int>(rng.UniformInt(0, 45));
    for (int r = 0; r < num_rows; ++r) {
      Row row;
      for (const GenColumn& gc : cols) {
        row.fields.push_back(GenValue(&rng, gc));
      }
      spec.rows.push_back(std::move(row));
    }
    columns.push_back(std::move(cols));
    c.tables.push_back(std::move(spec));
  }

  QueryGen gen(&rng, c.tables, columns);
  c.query = gen.Generate(&c.ordered_by);
  c.has_structure = true;
  c.sql = c.query.Render();
  c.variants = c.query.RenderVariants();
  return c;
}

// ---------------------------------------------------------------------------
// Corpus serialization
// ---------------------------------------------------------------------------

namespace {

const char* TypeToken(TypeKind t) {
  switch (t) {
    case TypeKind::kBool:
      return "BOOL";
    case TypeKind::kInt64:
      return "BIGINT";
    case TypeKind::kDouble:
      return "DOUBLE";
    case TypeKind::kString:
      return "STRING";
    case TypeKind::kDate:
      return "DATE";
    case TypeKind::kNull:
      return "NULL";
  }
  return "NULL";
}

Result<TypeKind> TypeFromToken(const std::string& s) {
  if (s == "BOOL") return TypeKind::kBool;
  if (s == "BIGINT") return TypeKind::kInt64;
  if (s == "DOUBLE") return TypeKind::kDouble;
  if (s == "STRING") return TypeKind::kString;
  if (s == "DATE") return TypeKind::kDate;
  return Status::ParseError("unknown type token: " + s);
}

/// Percent-encodes everything outside the printable-ASCII range plus '%'
/// and space, so encoded values never contain separators.
std::string PctEncode(const std::string& s) {
  std::string out;
  for (unsigned char ch : s) {
    if (ch > 0x20 && ch < 0x7f && ch != '%') {
      out += static_cast<char>(ch);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", ch);
      out += buf;
    }
  }
  return out;
}

std::string PctDecode(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      int hi = std::isxdigit(static_cast<unsigned char>(s[i + 1]))
                   ? std::stoi(s.substr(i + 1, 2), nullptr, 16)
                   : -1;
      if (hi >= 0) {
        out += static_cast<char>(hi);
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

std::string EncodeValue(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kNull:
      return "N";
    case TypeKind::kBool:
      return v.bool_v() ? "B:1" : "B:0";
    case TypeKind::kInt64:
      return "I:" + std::to_string(v.int64_v());
    case TypeKind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "D:%a", v.double_v());
      return buf;
    }
    case TypeKind::kString:
      return "S:" + PctEncode(v.str());
    case TypeKind::kDate:
      return "T:" + std::to_string(v.int64_v());
  }
  return "N";
}

Result<Value> DecodeValue(const std::string& tok) {
  if (tok == "N") return Value::Null();
  if (tok.size() < 2 || tok[1] != ':') {
    return Status::ParseError("bad value token: " + tok);
  }
  std::string body = tok.substr(2);
  switch (tok[0]) {
    case 'B':
      return Value::Bool(body == "1");
    case 'I':
      return Value::Int64(std::strtoll(body.c_str(), nullptr, 10));
    case 'D':
      return Value::Double(std::strtod(body.c_str(), nullptr));
    case 'S':
      return Value::String(PctDecode(body));
    case 'T':
      return Value::Date(std::strtoll(body.c_str(), nullptr, 10));
  }
  return Status::ParseError("bad value token: " + tok);
}

std::vector<std::string> SplitWs(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

}  // namespace

std::string SerializeCase(const FuzzCase& c) {
  std::string out;
  out += "SEED " + std::to_string(c.seed) + "\n";
  for (const TableSpec& t : c.tables) {
    out += "TABLE " + t.name + " " +
           std::to_string(t.schema.num_fields()) + " " +
           std::to_string(t.num_blocks) + "\n";
    for (const Field& f : t.schema.fields()) {
      out += "COL " + f.name + " " + TypeToken(f.type) + "\n";
    }
    for (const Row& r : t.rows) {
      out += "ROW";
      for (const Value& v : r.fields) out += " " + EncodeValue(v);
      out += "\n";
    }
    out += "ENDTABLE\n";
  }
  out += "QUERY " + c.sql + "\n";
  for (const std::string& v : c.variants) out += "VARIANT " + v + "\n";
  if (!c.ordered_by.empty()) {
    out += "ORDERED";
    for (auto [idx, asc] : c.ordered_by) {
      out += " " + std::to_string(idx) + (asc ? ":asc" : ":desc");
    }
    out += "\n";
  }
  out += "END\n";
  return out;
}

Result<FuzzCase> ParseCase(const std::string& text) {
  FuzzCase c;
  std::istringstream in(text);
  std::string line;
  TableSpec* table = nullptr;
  int expected_cols = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("SEED ", 0) == 0) {
      c.seed = std::strtoull(line.c_str() + 5, nullptr, 10);
    } else if (line.rfind("TABLE ", 0) == 0) {
      auto toks = SplitWs(line);
      if (toks.size() != 4) return Status::ParseError("bad TABLE line");
      c.tables.emplace_back();
      table = &c.tables.back();
      table->name = toks[1];
      expected_cols = std::atoi(toks[2].c_str());
      table->num_blocks = std::atoi(toks[3].c_str());
    } else if (line.rfind("COL ", 0) == 0) {
      if (table == nullptr) return Status::ParseError("COL outside TABLE");
      auto toks = SplitWs(line);
      if (toks.size() != 3) return Status::ParseError("bad COL line");
      SHARK_ASSIGN_OR_RETURN(TypeKind type, TypeFromToken(toks[2]));
      SHARK_RETURN_NOT_OK(table->schema.AddField({toks[1], type}));
    } else if (line.rfind("ROW", 0) == 0) {
      if (table == nullptr) return Status::ParseError("ROW outside TABLE");
      auto toks = SplitWs(line);
      Row row;
      for (size_t i = 1; i < toks.size(); ++i) {
        SHARK_ASSIGN_OR_RETURN(Value v, DecodeValue(toks[i]));
        row.fields.push_back(std::move(v));
      }
      if (static_cast<int>(row.fields.size()) != expected_cols) {
        return Status::ParseError("ROW arity mismatch in " + table->name);
      }
      table->rows.push_back(std::move(row));
    } else if (line == "ENDTABLE") {
      if (table != nullptr &&
          table->schema.num_fields() != expected_cols) {
        return Status::ParseError("COL count mismatch in " + table->name);
      }
      table = nullptr;
    } else if (line.rfind("QUERY ", 0) == 0) {
      c.sql = line.substr(6);
    } else if (line.rfind("VARIANT ", 0) == 0) {
      c.variants.push_back(line.substr(8));
    } else if (line.rfind("ORDERED", 0) == 0) {
      auto toks = SplitWs(line);
      for (size_t i = 1; i < toks.size(); ++i) {
        size_t colon = toks[i].find(':');
        if (colon == std::string::npos) {
          return Status::ParseError("bad ORDERED token: " + toks[i]);
        }
        c.ordered_by.emplace_back(std::atoi(toks[i].substr(0, colon).c_str()),
                                  toks[i].substr(colon + 1) == "asc");
      }
    } else if (line == "END") {
      break;
    } else {
      return Status::ParseError("unknown corpus line: " + line);
    }
  }
  if (c.sql.empty()) return Status::ParseError("corpus case has no QUERY");
  return c;
}

// ---------------------------------------------------------------------------
// Execution + comparison
// ---------------------------------------------------------------------------

namespace {

bool ValuesMatch(const Value& a, const Value& b) {
  if (a == b) return true;
  // Order-sensitive DOUBLE accumulation (SUM/AVG partials) differs across
  // partitionings by rounding only; allow a small tolerance. NaN-vs-NaN is
  // already covered by operator==.
  if (a.kind() == TypeKind::kDouble && b.kind() == TypeKind::kDouble) {
    double x = a.double_v();
    double y = b.double_v();
    if (std::isnan(x) || std::isnan(y)) return false;
    double diff = std::fabs(x - y);
    return diff <= 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return false;
}

bool RowsTolerantEqual(const Row& a, const Row& b) {
  if (a.fields.size() != b.fields.size()) return false;
  for (size_t i = 0; i < a.fields.size(); ++i) {
    if (!ValuesMatch(a.fields[i], b.fields[i])) return false;
  }
  return true;
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = std::min(a.fields.size(), b.fields.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a.fields[i].Compare(b.fields[i]);
    if (c != 0) return c;
  }
  return a.fields.size() < b.fields.size()
             ? -1
             : (a.fields.size() > b.fields.size() ? 1 : 0);
}

bool RowsExactEqual(const Row& a, const Row& b) {
  if (a.fields.size() != b.fields.size()) return false;
  for (size_t i = 0; i < a.fields.size(); ++i) {
    if (!(a.fields[i] == b.fields[i])) return false;
  }
  return true;
}

/// Multiset comparison: canonical-sorted exact pass first (cheap, handles
/// large join outputs), then a greedy tolerant O(n^2) pass for the rounding
/// slack in aggregate outputs. Returns an empty string when equivalent.
std::string CompareRowSets(const std::vector<Row>& want,
                           const std::vector<Row>& got, const char* label) {
  if (want.size() != got.size()) {
    return std::string(label) + ": row count " + std::to_string(got.size()) +
           " != reference " + std::to_string(want.size());
  }
  std::vector<Row> a = want;
  std::vector<Row> b = got;
  auto cmp = [](const Row& x, const Row& y) { return CompareRows(x, y) < 0; };
  std::sort(a.begin(), a.end(), cmp);
  std::sort(b.begin(), b.end(), cmp);
  bool exact = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RowsExactEqual(a[i], b[i])) {
      exact = false;
      break;
    }
  }
  if (exact) return "";
  if (a.size() > 20000) {
    return std::string(label) + ": large result differs exactly";
  }
  std::vector<bool> used(b.size(), false);
  for (const Row& ra : a) {
    bool matched = false;
    for (size_t j = 0; j < b.size(); ++j) {
      if (!used[j] && RowsTolerantEqual(ra, b[j])) {
        used[j] = true;
        matched = true;
        break;
      }
    }
    if (!matched) {
      return std::string(label) + ": row [" + ra.ToString() +
             "] unmatched in engine output";
    }
  }
  return "";
}

/// Verifies rows are non-descending under the (output column, asc) keys.
std::string CheckSorted(const std::vector<Row>& rows,
                        const std::vector<std::pair<int, bool>>& keys,
                        const char* label) {
  for (size_t i = 1; i < rows.size(); ++i) {
    for (auto [idx, asc] : keys) {
      if (idx < 0 || static_cast<size_t>(idx) >= rows[i].fields.size()) break;
      int c = rows[i - 1].fields[static_cast<size_t>(idx)].Compare(
          rows[i].fields[static_cast<size_t>(idx)]);
      if (c == 0) continue;
      bool ok = asc ? c < 0 : c > 0;
      if (!ok) {
        return std::string(label) + ": output not sorted at row " +
               std::to_string(i) + " [" + rows[i - 1].ToString() + "] vs [" +
               rows[i].ToString() + "]";
      }
      break;
    }
  }
  return "";
}

Result<std::unique_ptr<SharkSession>> BuildSession(const FuzzCase& c,
                                                   uint64_t mem_bytes) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.virtual_data_scale = 1.0;
  if (mem_bytes != 0) cfg.hardware.mem_bytes_per_node = mem_bytes;
  auto session =
      std::make_unique<SharkSession>(std::make_shared<ClusterContext>(cfg));
  for (const TableSpec& t : c.tables) {
    SHARK_RETURN_NOT_OK(
        session->CreateDfsTable(t.name, t.schema, t.rows, t.num_blocks));
  }
  return session;
}

}  // namespace

RunOutcome RunCase(const FuzzCase& c, const RunOptions& opts) {
  RunOutcome out;
  auto fail = [&out](std::string msg) {
    out.ok = false;
    if (out.divergence.empty()) out.divergence = std::move(msg);
  };

  auto shark_r = BuildSession(c, 0);
  if (!shark_r.ok()) {
    fail("session setup failed: " + shark_r.status().ToString());
    return out;
  }
  SharkSession* shark = shark_r->get();

  // Reference oracle (shares only the parser/analyzer with the engines).
  auto stmt = ParseStatement(c.sql);
  Result<QueryResult> reference =
      !stmt.ok() ? Result<QueryResult>(stmt.status())
      : stmt->kind != StatementKind::kSelect
          ? Result<QueryResult>(Status::InvalidArgument("not a SELECT"))
          : ReferenceExecute(*stmt->select, shark->catalog(),
                             shark->context().dfs(), &shark->udfs());

  Result<QueryResult> shark_base = shark->Sql(c.sql);

  if (reference.ok() != shark_base.ok()) {
    fail(std::string("status mismatch: reference ") +
         (reference.ok() ? "ok" : reference.status().ToString()) +
         " vs shark " +
         (shark_base.ok() ? "ok" : shark_base.status().ToString()));
    return out;
  }
  if (!reference.ok()) {
    // Consistent rejection; make sure Hive rejects too, then we're done.
    if (opts.run_hive) {
      auto hive_r = MakeHiveSession(shark);
      if (hive_r.ok() && (*hive_r)->Sql(c.sql).ok()) {
        fail("status mismatch: reference rejected but hive accepted");
        return out;
      }
    }
    out.rejected = true;
    out.rejection = reference.status().ToString();
    return out;
  }

  const std::vector<Row>& ref_rows = reference->rows;
  out.reference_rows = static_cast<int>(ref_rows.size());
  if (reference->schema.num_fields() != shark_base->schema.num_fields()) {
    fail("schema arity mismatch: shark");
    return out;
  }

  std::string d = CompareRowSets(ref_rows, shark_base->rows, "shark");
  if (!d.empty()) fail(d);
  d = CheckSorted(shark_base->rows, c.ordered_by, "shark(order)");
  if (!d.empty()) fail(d);
  d = CheckSorted(ref_rows, c.ordered_by, "reference(order)");
  if (!d.empty()) fail(d);

  if (opts.run_hive) {
    auto hive_r = MakeHiveSession(shark);
    if (!hive_r.ok()) {
      fail("hive session setup failed: " + hive_r.status().ToString());
      return out;
    }
    auto hive_res = (*hive_r)->Sql(c.sql);
    if (!hive_res.ok()) {
      fail("status mismatch: hive rejected: " + hive_res.status().ToString());
    } else {
      d = CompareRowSets(ref_rows, hive_res->rows, "hive");
      if (!d.empty()) fail(d);
      d = CheckSorted(hive_res->rows, c.ordered_by, "hive(order)");
      if (!d.empty()) fail(d);
    }
  }

  if (opts.run_metamorphic) {
    auto run_variant = [&](const std::string& sql, const char* label) {
      auto res = shark->Sql(sql);
      if (!res.ok()) {
        fail(std::string(label) + ": rejected: " + res.status().ToString());
        return;
      }
      std::string diff = CompareRowSets(ref_rows, res->rows, label);
      if (!diff.empty()) fail(diff);
    };

    int orig_threads = shark->options().host_threads;
    shark->options().host_threads = 1;
    run_variant(c.sql, "host_threads=1");
    shark->options().host_threads = 4;
    run_variant(c.sql, "host_threads=4");
    shark->options().host_threads = orig_threads;

    // Join lowering: every strategy must return the same rows. Generated
    // tables are tiny at virtual scale 1.0, so under the defaults every
    // inner join map-joins; a zero broadcast threshold forces the shuffle
    // joins, and the adaptive mode pre-shuffles both inputs.
    const JoinOptimization orig_join = shark->options().join_opt;
    const uint64_t orig_broadcast = shark->options().broadcast_threshold_bytes;
    const struct {
      JoinOptimization mode;
      uint64_t threshold;
      const char* label;
    } join_variants[] = {
        {JoinOptimization::kStatic, 0, "join=static,broadcast=0"},
        {JoinOptimization::kAdaptive, orig_broadcast, "join=adaptive"},
        {JoinOptimization::kStaticAdaptive, 0,
         "join=static+adaptive,broadcast=0"},
    };
    for (const auto& v : join_variants) {
      shark->options().join_opt = v.mode;
      shark->options().broadcast_threshold_bytes = v.threshold;
      run_variant(c.sql, v.label);
    }
    shark->options().join_opt = orig_join;
    shark->options().broadcast_threshold_bytes = orig_broadcast;

    for (size_t i = 0; i < c.variants.size(); ++i) {
      run_variant(c.variants[i],
                  ("variant#" + std::to_string(i)).c_str());
    }

    // Cached (columnar memory store) run.
    bool cached_ok = true;
    for (const TableSpec& t : c.tables) {
      Status st = shark->CacheTable(t.name);
      if (!st.ok()) {
        fail("CacheTable(" + t.name + ") failed: " + st.ToString());
        cached_ok = false;
      }
    }
    if (cached_ok) {
      run_variant(c.sql, "cached");
      // The vectorized batch path and the scalar row interpreter must agree
      // exactly over the columnar store (NULL/NaN/-0.0 key semantics
      // included), so run the cached query once with the flag inverted.
      bool orig_vec = shark->options().vectorized;
      shark->options().vectorized = !orig_vec;
      run_variant(c.sql, orig_vec ? "cached+vectorized=off"
                                  : "cached+vectorized=on");
      shark->options().vectorized = orig_vec;

      // Secondary indexes must never change results, only plans: index every
      // column of every table (B+-tree over the full nasty-value domain),
      // re-run with the planner free to pick IndexRangeScan, with the gather
      // path inverted, and with indexes disabled again as the control.
      bool indexed_ok = true;
      for (const TableSpec& t : c.tables) {
        for (size_t ci = 0; ci < t.schema.fields().size(); ++ci) {
          auto ires = shark->Sql("CREATE INDEX fzidx_" + t.name + "_" +
                                 std::to_string(ci) + " ON " + t.name + "(" +
                                 t.schema.fields()[ci].name + ")");
          if (!ires.ok()) {
            fail("CREATE INDEX on " + t.name + "(" +
                 t.schema.fields()[ci].name +
                 ") failed: " + ires.status().ToString());
            indexed_ok = false;
          }
        }
      }
      if (indexed_ok) {
        run_variant(c.sql, "cached+indexed");
        shark->options().vectorized = !orig_vec;
        run_variant(c.sql, "cached+indexed+vec_inverted");
        shark->options().vectorized = orig_vec;
        bool orig_idx = shark->options().use_indexes;
        shark->options().use_indexes = false;
        run_variant(c.sql, "cached+index_off");
        shark->options().use_indexes = orig_idx;
      }
      for (const TableSpec& t : c.tables) {
        (void)shark->UncacheTable(t.name);  // also drops the indexes
      }
    }

    // Statistics must never change results, only plans: ANALYZE every
    // table, then re-run with the cost-based optimizer choosing the order
    // (DP + PDE re-planning), with the written left-deep order forced, and
    // with re-planning at its hairtrigger setting. The stats-free baseline
    // run above doubles as the stats-off half of the metamorphic pair.
    bool analyzed_ok = true;
    for (const TableSpec& t : c.tables) {
      auto ares = shark->Sql("ANALYZE TABLE " + t.name);
      if (!ares.ok()) {
        fail("ANALYZE TABLE " + t.name +
             " failed: " + ares.status().ToString());
        analyzed_ok = false;
      }
    }
    if (analyzed_ok) {
      run_variant(c.sql, "analyzed+cbo");
      bool orig_ld = shark->options().force_left_deep;
      shark->options().force_left_deep = true;
      run_variant(c.sql, "analyzed+left_deep");
      shark->options().force_left_deep = orig_ld;
      double orig_rf = shark->options().replan_factor;
      shark->options().replan_factor = 1.0001;
      run_variant(c.sql, "analyzed+replan_eager");
      shark->options().replan_factor = orig_rf;
    }

    // Tight memory budget: spill paths must not change results.
    auto tight_r = BuildSession(c, opts.tight_mem_bytes);
    if (!tight_r.ok()) {
      fail("tight-memory session setup failed: " +
           tight_r.status().ToString());
    } else {
      auto res = (*tight_r)->Sql(c.sql);
      if (!res.ok()) {
        fail("tight-memory: rejected: " + res.status().ToString());
      } else {
        std::string diff = CompareRowSets(ref_rows, res->rows, "tight-memory");
        if (!diff.empty()) fail(diff);
      }
    }

    // Concurrent admission: the same query submitted three times at once
    // through the JobManager (staggered arrivals, one copy declaring a
    // memory demand so admission control queues it) must match the serial
    // reference run exactly. Flushes out cross-job shuffle/cache state
    // leaks that only occur when jobs interleave on the event loop.
    auto conc_r = BuildSession(c, 0);
    if (!conc_r.ok()) {
      fail("concurrent-admission session setup failed: " +
           conc_r.status().ToString());
    } else {
      SharkSession* cs = conc_r->get();
      uint64_t headroom =
          cs->context().memory_manager().AdmissionHeadroomBytes();
      std::vector<QueryResult> results(3);
      std::vector<JobSpec> specs(3);
      for (int i = 0; i < 3; ++i) {
        specs[static_cast<size_t>(i)].label =
            "conc" + std::to_string(i);
        specs[static_cast<size_t>(i)].arrival_vtime = 0.001 * i;
        if (i == 2) {
          specs[static_cast<size_t>(i)].mem_demand_bytes = headroom;
        }
        QueryResult* sink = &results[static_cast<size_t>(i)];
        specs[static_cast<size_t>(i)].body = [cs, sink,
                                              &c]() -> Status {
          auto res = cs->Sql(c.sql);
          SHARK_RETURN_NOT_OK(res.status());
          *sink = std::move(*res);
          return Status::OK();
        };
      }
      JobManager jm(&cs->context());
      std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));
      for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].status.ok()) {
          fail("concurrent-admission job " + std::to_string(i) +
               " failed: " + outcomes[i].status.ToString());
          continue;
        }
        std::string diff = CompareRowSets(
            ref_rows, results[i].rows,
            ("concurrent-admission#" + std::to_string(i)).c_str());
        if (!diff.empty()) fail(diff);
        diff = CheckSorted(results[i].rows, c.ordered_by,
                           "concurrent-admission(order)");
        if (!diff.empty()) fail(diff);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

namespace {

bool Diverges(const FuzzCase& c, const RunOptions& opts) {
  return !RunCase(c, opts).ok;
}

/// Re-renders SQL/variants and recomputes the sortedness contract after a
/// structural mutation.
void Rerender(FuzzCase* c) {
  c->sql = c->query.Render();
  c->variants = c->query.RenderVariants();
  c->ordered_by.clear();
  for (const auto& [expr, asc] : c->query.order_by) {
    for (size_t i = 0; i < c->query.items.size(); ++i) {
      if (c->query.items[i].first == expr) {
        c->ordered_by.emplace_back(static_cast<int>(i), asc);
        break;
      }
    }
  }
}

}  // namespace

FuzzCase MinimizeCase(const FuzzCase& c, const RunOptions& opts) {
  if (!Diverges(c, opts)) return c;
  FuzzCase cur = c;

  bool changed = true;
  while (changed) {
    changed = false;

    // Clause deletion (greedy): try each structural simplification; keep it
    // if the case still diverges. Invalid mutants (dangling aliases etc.)
    // are rejected consistently by every oracle, so they stop diverging and
    // revert automatically.
    if (cur.has_structure) {
      auto try_mutation = [&](const std::function<bool(GenQuery*)>& mut) {
        FuzzCase cand = cur;
        if (!mut(&cand.query)) return;
        Rerender(&cand);
        if (Diverges(cand, opts)) {
          cur = std::move(cand);
          changed = true;
        }
      };

      try_mutation([](GenQuery* q) {
        if (q->limit < 0) return false;
        q->limit = -1;
        return true;
      });
      try_mutation([](GenQuery* q) {
        if (q->order_by.empty()) return false;
        q->order_by.clear();
        q->limit = -1;
        return true;
      });
      try_mutation([](GenQuery* q) {
        if (q->having.empty()) return false;
        q->having.clear();
        return true;
      });
      try_mutation([](GenQuery* q) {
        if (!q->distinct) return false;
        q->distinct = false;
        return true;
      });
      for (size_t i = 0; i < cur.query.where_conjuncts.size(); ++i) {
        try_mutation([i](GenQuery* q) {
          if (i >= q->where_conjuncts.size()) return false;
          q->where_conjuncts.erase(q->where_conjuncts.begin() +
                                   static_cast<long>(i));
          return true;
        });
      }
      for (size_t j = cur.query.joins.size(); j-- > 0;) {
        try_mutation([j](GenQuery* q) {
          if (j >= q->joins.size()) return false;
          q->joins.erase(q->joins.begin() + static_cast<long>(j));
          return true;
        });
      }
      for (size_t j = 0; j < cur.query.joins.size(); ++j) {
        for (size_t k = 0; k < cur.query.joins[j].on_conjuncts.size(); ++k) {
          try_mutation([j, k](GenQuery* q) {
            if (j >= q->joins.size() ||
                q->joins[j].on_conjuncts.size() <= 1 ||
                k >= q->joins[j].on_conjuncts.size()) {
              return false;
            }
            q->joins[j].on_conjuncts.erase(
                q->joins[j].on_conjuncts.begin() + static_cast<long>(k));
            return true;
          });
        }
      }
      for (size_t i = cur.query.items.size(); i-- > 0;) {
        try_mutation([i](GenQuery* q) {
          if (q->items.size() <= 1 || i >= q->items.size()) return false;
          q->items.erase(q->items.begin() + static_cast<long>(i));
          return true;
        });
      }
      for (size_t i = cur.query.group_by.size(); i-- > 0;) {
        try_mutation([i](GenQuery* q) {
          if (i >= q->group_by.size()) return false;
          q->group_by.erase(q->group_by.begin() + static_cast<long>(i));
          return true;
        });
      }
    }

    // Variant pruning.
    for (size_t i = cur.variants.size(); i-- > 0;) {
      FuzzCase cand = cur;
      cand.variants.erase(cand.variants.begin() + static_cast<long>(i));
      if (Diverges(cand, opts)) {
        cur = std::move(cand);
        changed = true;
      }
    }

    // Table pruning (queries referencing a dropped table are rejected
    // consistently, so they stop diverging and revert).
    if (cur.tables.size() > 1) {
      for (size_t t = cur.tables.size(); t-- > 0;) {
        if (cur.tables.size() <= 1) break;
        FuzzCase cand = cur;
        cand.tables.erase(cand.tables.begin() + static_cast<long>(t));
        if (Diverges(cand, opts)) {
          cur = std::move(cand);
          changed = true;
        }
      }
    }

    // Row deletion: shrink each table with window removal (ddmin-style).
    for (size_t t = 0; t < cur.tables.size(); ++t) {
      size_t window = std::max<size_t>(cur.tables[t].rows.size() / 2, 1);
      while (window >= 1) {
        bool removed_any = false;
        for (size_t start = 0; start < cur.tables[t].rows.size();) {
          FuzzCase cand = cur;
          auto& rows = cand.tables[t].rows;
          size_t end = std::min(start + window, rows.size());
          rows.erase(rows.begin() + static_cast<long>(start),
                     rows.begin() + static_cast<long>(end));
          if (Diverges(cand, opts)) {
            cur = std::move(cand);
            removed_any = true;
            changed = true;
          } else {
            start += window;
          }
        }
        if (window == 1) break;
        window = removed_any ? std::max<size_t>(window / 2, 1) : window / 2;
      }
    }
  }
  return cur;
}

}  // namespace fuzz
}  // namespace shark
