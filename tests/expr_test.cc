#include <gtest/gtest.h>

#include "sql/expr.h"
#include "sql/parser.h"

namespace shark {
namespace {

/// Binds parsed column refs a,b,c,s to slots 0..3 for evaluation tests.
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

Row TestRow() {
  return Row({Value::Int64(10), Value::Double(2.5), Value::String("US"),
              Value::Null()});
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(EvalExpr(*Bind("a + 5"), TestRow(), nullptr), Value::Int64(15));
  EXPECT_EQ(EvalExpr(*Bind("a * 2"), TestRow(), nullptr), Value::Int64(20));
  EXPECT_EQ(EvalExpr(*Bind("a - 3"), TestRow(), nullptr), Value::Int64(7));
  EXPECT_EQ(EvalExpr(*Bind("a % 3"), TestRow(), nullptr), Value::Int64(1));
  EXPECT_EQ(EvalExpr(*Bind("a / 4"), TestRow(), nullptr), Value::Double(2.5));
  EXPECT_EQ(EvalExpr(*Bind("a + b"), TestRow(), nullptr), Value::Double(12.5));
  EXPECT_EQ(EvalExpr(*Bind("-a"), TestRow(), nullptr), Value::Int64(-10));
}

TEST(ExprEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(EvalExpr(*Bind("a / 0"), TestRow(), nullptr).is_null());
  EXPECT_TRUE(EvalExpr(*Bind("a % 0"), TestRow(), nullptr).is_null());
}

TEST(ExprEvalTest, NullPropagation) {
  EXPECT_TRUE(EvalExpr(*Bind("s + 1"), TestRow(), nullptr).is_null());
  EXPECT_TRUE(EvalExpr(*Bind("s = 1"), TestRow(), nullptr).is_null());
  EXPECT_FALSE(EvalPredicate(*Bind("s = 1"), TestRow(), nullptr));
}

TEST(ExprEvalTest, ThreeValuedLogic) {
  // NULL AND false = false; NULL AND true = NULL; NULL OR true = true.
  EXPECT_EQ(EvalExpr(*Bind("s = 1 AND a = 999"), TestRow(), nullptr),
            Value::Bool(false));
  EXPECT_TRUE(EvalExpr(*Bind("s = 1 AND a = 10"), TestRow(), nullptr).is_null());
  EXPECT_EQ(EvalExpr(*Bind("s = 1 OR a = 10"), TestRow(), nullptr),
            Value::Bool(true));
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(EvalPredicate(*Bind("a > 5"), TestRow(), nullptr));
  EXPECT_TRUE(EvalPredicate(*Bind("b <= 2.5"), TestRow(), nullptr));
  EXPECT_TRUE(EvalPredicate(*Bind("c = 'US'"), TestRow(), nullptr));
  EXPECT_TRUE(EvalPredicate(*Bind("a <> 11"), TestRow(), nullptr));
  EXPECT_TRUE(EvalPredicate(*Bind("a BETWEEN 5 AND 15"), TestRow(), nullptr));
  EXPECT_FALSE(EvalPredicate(*Bind("a NOT BETWEEN 5 AND 15"), TestRow(), nullptr));
  EXPECT_TRUE(EvalPredicate(*Bind("c IN ('UK','US')"), TestRow(), nullptr));
  EXPECT_TRUE(EvalPredicate(*Bind("s IS NULL"), TestRow(), nullptr));
  EXPECT_FALSE(EvalPredicate(*Bind("a IS NULL"), TestRow(), nullptr));
}

TEST(ExprEvalTest, CaseWhen) {
  auto e = Bind("CASE WHEN a > 100 THEN 'big' WHEN a > 5 THEN 'mid' "
                "ELSE 'small' END");
  EXPECT_EQ(EvalExpr(*e, TestRow(), nullptr), Value::String("mid"));
}

TEST(ExprEvalTest, BuiltinFunctions) {
  EXPECT_EQ(EvalExpr(*Bind("SUBSTR(c, 1, 1)"), TestRow(), nullptr),
            Value::String("U"));
  EXPECT_EQ(EvalExpr(*Bind("LOWER(c)"), TestRow(), nullptr),
            Value::String("us"));
  EXPECT_EQ(EvalExpr(*Bind("LENGTH(c)"), TestRow(), nullptr), Value::Int64(2));
  EXPECT_EQ(EvalExpr(*Bind("ABS(0 - a)"), TestRow(), nullptr),
            Value::Int64(10));
  EXPECT_EQ(EvalExpr(*Bind("CONCAT(c, '-', a)"), TestRow(), nullptr),
            Value::String("US-10"));
}

TEST(ExprEvalTest, SubstrMatchesPavloQuery) {
  Row r({Value::String("123.45.67.89")});
  auto e = ParseExpression("SUBSTR(ip, 1, 7)");
  ASSERT_TRUE(e.ok());
  (*e)->children[0]->kind = ExprKind::kSlot;
  (*e)->children[0]->slot = 0;
  EXPECT_EQ(EvalExpr(**e, r, nullptr), Value::String("123.45."));
}

TEST(ExprEvalTest, YearFunction) {
  Row r({*Value::ParseDate("2000-06-15")});
  auto e = ParseExpression("YEAR(d)");
  ASSERT_TRUE(e.ok());
  (*e)->children[0]->kind = ExprKind::kSlot;
  (*e)->children[0]->slot = 0;
  EXPECT_EQ(EvalExpr(**e, r, nullptr), Value::Int64(2000));
}

TEST(ExprEvalTest, UdfDispatch) {
  UdfRegistry udfs;
  ASSERT_TRUE(udfs.Register("MY_DOUBLE",
                            {[](const std::vector<Value>& args) {
                               return Value::Double(args[0].AsDouble() * 2);
                             },
                             TypeKind::kDouble,
                             3.0})
                  .ok());
  EXPECT_NE(udfs.Lookup("my_double"), nullptr);
  auto e = Bind("MY_DOUBLE(a)");
  EXPECT_EQ(EvalExpr(*e, TestRow(), &udfs), Value::Double(20.0));
}

TEST(ExprEvalTest, UdfDuplicateRegistrationFails) {
  UdfRegistry udfs;
  UdfRegistry::UdfInfo info{[](const std::vector<Value>&) { return Value::Null(); },
                            TypeKind::kNull, 1.0};
  EXPECT_TRUE(udfs.Register("f", info).ok());
  EXPECT_FALSE(udfs.Register("F", info).ok());
}

TEST(LikeMatchTest, Wildcards) {
  EXPECT_TRUE(LikeMatch("index.html", "%.html"));
  EXPECT_TRUE(LikeMatch("index.html", "index%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_TRUE(LikeMatch("anything", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_FALSE(LikeMatch("abc", "abcd"));
  EXPECT_TRUE(LikeMatch("a.b.c", "a%c"));
}

TEST(LikeMatchTest, PercentInText) {
  // A pattern '%' is a wildcard even where the text holds a literal '%'.
  EXPECT_TRUE(LikeMatch("%x", "%"));
  EXPECT_TRUE(LikeMatch("a%b", "a%"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));
  EXPECT_TRUE(LikeMatch("a%b", "%b"));
  EXPECT_TRUE(LikeMatch("%", "%"));
  EXPECT_TRUE(LikeMatch("%", "_"));
  EXPECT_FALSE(LikeMatch("50% off", "%\\% off"));  // no escape character
  EXPECT_TRUE(LikeMatch("50% off", "50% off"));
  EXPECT_TRUE(LikeMatch("50% off", "%0%o%"));
  EXPECT_FALSE(LikeMatch("a%b", "a%c"));
  EXPECT_TRUE(LikeMatch("%", "%_"));
  EXPECT_FALSE(LikeMatch("%", "%__"));
  EXPECT_FALSE(LikeMatch("", "_"));
}

TEST(ConjunctTest, SplitAndCombine) {
  auto e = Bind("a > 1 AND b < 2 AND c = 'US'");
  auto conjuncts = SplitConjuncts(e);
  EXPECT_EQ(conjuncts.size(), 3u);
  auto combined = CombineConjuncts(conjuncts);
  Row r = TestRow();
  EXPECT_EQ(EvalPredicate(*e, r, nullptr), EvalPredicate(*combined, r, nullptr));
}

TEST(ConjunctTest, OrNotSplit) {
  auto e = Bind("a > 1 OR b < 2");
  EXPECT_EQ(SplitConjuncts(e).size(), 1u);
}

TEST(ExprUtilTest, CollectSlotsAndRemap) {
  auto e = Bind("a + b > c");
  std::set<int> slots;
  CollectSlots(*e, &slots);
  EXPECT_EQ(slots, (std::set<int>{0, 1, 2}));
  auto remapped = RemapSlots(*e, {{0, 10}, {2, 12}});
  slots.clear();
  CollectSlots(*remapped, &slots);
  EXPECT_EQ(slots, (std::set<int>{10, 1, 12}));
}

TEST(ExprUtilTest, ContainsAggregate) {
  EXPECT_TRUE(ContainsAggregate(*Bind("SUM(a) + 1")));
  EXPECT_FALSE(ContainsAggregate(*Bind("a + 1")));
}

TEST(ExprUtilTest, StructuralEquality) {
  EXPECT_TRUE(Bind("a + 1")->Equals(*Bind("a + 1")));
  EXPECT_FALSE(Bind("a + 1")->Equals(*Bind("a + 2")));
  EXPECT_FALSE(Bind("a + 1")->Equals(*Bind("b + 1")));
  EXPECT_TRUE(Bind("SUBSTR(c, 1, 7)")->Equals(*Bind("SUBSTR(c, 1, 7)")));
}

}  // namespace
}  // namespace shark
