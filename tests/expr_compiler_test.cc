#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sql/expr_compiler.h"
#include "sql/parser.h"
#include "sql/reference_eval.h"
#include "sql/session.h"

namespace shark {
namespace {

/// Binds columns a,b,c,s to slots 0..3 (as in expr_test).
ExprPtr Bind(const std::string& text) {
  auto parsed = ParseExpression(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::function<void(Expr*)> bind = [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      int slot = e->name == "a" ? 0 : e->name == "b" ? 1 : e->name == "c" ? 2 : 3;
      e->kind = ExprKind::kSlot;
      e->slot = slot;
    }
    for (auto& ch : e->children) bind(ch.get());
  };
  bind(parsed->get());
  return *parsed;
}

/// `a IN (1, 2, ..., n)`: an operand stack n + 1 deep.
std::string DeepInList(int n) {
  std::string out = "a IN (";
  for (int i = 1; i <= n; ++i) {
    out += (i > 1 ? ", " : "") + std::to_string(i);
  }
  return out + ")";
}

/// A CASE with `n` WHEN branches and an ELSE: 2n + 1 operands on the stack.
std::string DeepCase(int n) {
  std::string out = "CASE";
  for (int i = 1; i <= n; ++i) {
    out += " WHEN a = " + std::to_string(i * 5) + " THEN 'v" +
           std::to_string(i) + "'";
  }
  return out + " ELSE c END";
}

/// Property: compiled evaluation == interpreted evaluation, on every
/// expression form, across many rows.
class CompiledVsInterpretedTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(CompiledVsInterpretedTest, Agree) {
  ExprPtr expr = Bind(GetParam());
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  auto compiled = compiler.Compile(*expr);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  Random rng(11);
  const char* strings[] = {"US", "UK", "abc", "", "hello.html"};
  for (int i = 0; i < 300; ++i) {
    Row row({rng.Bernoulli(0.1) ? Value::Null()
                                : Value::Int64(rng.UniformInt(-20, 120)),
             rng.Bernoulli(0.1) ? Value::Null()
                                : Value::Double(rng.NextDouble() * 10.0),
             Value::String(strings[rng.Uniform(5)]),
             rng.Bernoulli(0.5) ? Value::Null() : Value::Int64(rng.UniformInt(0, 5))});
    Value interpreted = EvalExpr(*expr, row, &udfs);
    Value compiled_v = compiled->Eval(row);
    bool both_null = interpreted.is_null() && compiled_v.is_null();
    EXPECT_TRUE(both_null || interpreted == compiled_v)
        << GetParam() << " row=" << row.ToString()
        << " interp=" << interpreted.ToString()
        << " compiled=" << compiled_v.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, CompiledVsInterpretedTest,
    ::testing::Values(
        "a + 1", "a * 2 - b", "a / 0", "a % 7", "-a", "NOT (a > 5)",
        "a > 50 AND b < 5.0", "a > 50 OR s IS NULL", "a BETWEEN 10 AND 90",
        "a NOT BETWEEN 10 AND 90", "c IN ('US', 'UK')", "c NOT IN ('abc')",
        "s IS NULL", "s IS NOT NULL", "c LIKE '%.html'", "c NOT LIKE 'U%'",
        "SUBSTR(c, 1, 2)", "LOWER(c)", "LENGTH(c) + a",
        "CASE WHEN a > 100 THEN 'big' WHEN a > 10 THEN 'mid' ELSE 'small' END",
        "CASE WHEN a > 1000 THEN 1 END", "COALESCE(s, a)",
        "IF(a > 50, b, 0.0 - b)", "a = 10 AND b = 2.5 OR c = 'US'",
        "ABS(0 - a) + FLOOR(b)", DeepInList(40), DeepCase(20)));

TEST(ExprCompilerTest, UdfCalls) {
  UdfRegistry udfs;
  ASSERT_TRUE(udfs.Register("TWICE",
                            {[](const std::vector<Value>& args) {
                               return Value::Int64(args[0].AsInt64() * 2);
                             },
                             TypeKind::kInt64, 2.0})
                  .ok());
  ExprPtr expr = Bind("TWICE(a) + 1");
  ExprCompiler compiler(&udfs);
  auto compiled = compiler.Compile(*expr);
  ASSERT_TRUE(compiled.ok());
  Row row({Value::Int64(21), Value::Null(), Value::Null(), Value::Null()});
  EXPECT_EQ(compiled->Eval(row), Value::Int64(43));
}

TEST(ExprCompilerTest, RejectsAggregates) {
  ExprPtr expr = Bind("SUM(a)");
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  EXPECT_FALSE(compiler.Compile(*expr).ok());
}

TEST(ExprCompilerTest, ProgramIsFlat) {
  ExprPtr expr = Bind("a + b * 2 - 1");
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  auto compiled = compiler.Compile(*expr);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->num_instructions(), 7u);  // a b 2 * + 1 - (postfix)
}

TEST(ExprCompilerTest, EndToEndQueryResultsUnchanged) {
  // Uncached DFS tables run on the row path, where every predicate, key and
  // sort key is a CompiledExpr; the reference oracle interprets the trees.
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.hardware.cores_per_node = 2;
  SharkSession session(std::make_shared<ClusterContext>(cfg));
  Schema t_schema({{"x", TypeKind::kInt64}, {"name", TypeKind::kString}});
  std::vector<Row> t_rows;
  for (int i = 0; i < 300; ++i) {
    t_rows.push_back(
        Row({Value::Int64(i), Value::String("n" + std::to_string(i % 9))}));
  }
  ASSERT_TRUE(session.CreateDfsTable("t", t_schema, t_rows, 3).ok());
  Schema u_schema({{"y", TypeKind::kInt64}, {"tag", TypeKind::kString}});
  std::vector<Row> u_rows;
  for (int i = 0; i < 40; ++i) {
    u_rows.push_back(
        Row({Value::Int64(i), Value::String("g" + std::to_string(i % 4))}));
  }
  ASSERT_TRUE(session.CreateDfsTable("u", u_schema, u_rows, 2).ok());

  auto expect_reference = [&](const std::string& q, bool ordered) {
    auto got = session.Sql(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    auto stmt = ParseStatement(q);
    ASSERT_TRUE(stmt.ok()) << q;
    auto want = ReferenceExecute(*stmt->select, session.catalog(),
                                 session.context().dfs(), &session.udfs());
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    std::vector<std::string> g, w;
    for (const Row& row : got->rows) g.push_back(row.ToString());
    for (const Row& row : want->rows) w.push_back(row.ToString());
    if (!ordered) {
      std::sort(g.begin(), g.end());
      std::sort(w.begin(), w.end());
    }
    EXPECT_EQ(g, w) << q;
  };

  // Predicate.
  expect_reference("SELECT x, name FROM t WHERE x % 3 = 0 AND name <> 'n4'",
                   false);
  // Expression group key.
  expect_reference(
      "SELECT x % 7, COUNT(*), SUM(x * 2 + 1) FROM t WHERE x > 20 "
      "GROUP BY x % 7",
      false);
  // Expression join key.
  expect_reference(
      "SELECT t.x, u.tag FROM t JOIN u ON t.x + 1 = u.y * 3", false);
  // ORDER BY an expression with LIMIT: every sort key value is shared by
  // many rows, and rows tied on both keys are identical, so the expected
  // sequence is exact.
  expect_reference(
      "SELECT x % 5 AS m, name FROM t ORDER BY m * -1, name LIMIT 17", true);
}

}  // namespace
}  // namespace shark
