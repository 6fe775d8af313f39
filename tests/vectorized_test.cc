// Vectorized execution tests: batch kernels must replicate Value semantics
// (NULL, NaN, +/-0.0, integers above 2^53) bit for bit, selection vectors
// must handle the degenerate shapes, and the batch path must return the same
// rows AND the same virtual_seconds as the row-at-a-time path — only host
// wall-clock is allowed to differ.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/table_partition.h"
#include "exec/vectorized/column_batch.h"
#include "exec/vectorized/group_table.h"
#include "exec/vectorized/kernels.h"
#include "sql/expr_compiler.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace shark {
namespace {

constexpr int64_t kTwo53 = 9007199254740992;  // 2^53

/// A decoded batch plus the partition that owns the string storage the
/// batch's views point into (the documented ColumnBatch lifetime contract).
struct BatchFixture {
  std::shared_ptr<const TablePartition> part;
  vec::ColumnBatch batch;
};

BatchFixture BatchOf(const Schema& schema, const std::vector<Row>& rows) {
  BatchFixture f;
  f.part = TablePartition::FromRows(schema, rows);
  std::vector<int> wanted;
  for (size_t c = 0; c < schema.fields().size(); ++c) {
    wanted.push_back(static_cast<int>(c));
  }
  Status st =
      vec::DecodePartition(*f.part, schema.fields(), wanted, "t", &f.batch);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return f;
}

/// One nasty column per type, padded with NULLs to a common length. The
/// returned rows are the ground truth the batch is checked against.
std::vector<Row> NastyRows(Schema* schema) {
  *schema = Schema({{"i", TypeKind::kInt64},
                    {"d", TypeKind::kDouble},
                    {"s", TypeKind::kString},
                    {"dt", TypeKind::kDate},
                    {"bo", TypeKind::kBool}});
  std::vector<Value> ints = {
      Value::Int64(0),         Value::Int64(1),
      Value::Int64(-1),        Value::Null(),
      Value::Int64(kTwo53),    Value::Int64(kTwo53 + 1),
      Value::Int64(INT64_MAX), Value::Int64(INT64_MIN),
  };
  std::vector<Value> dbls = {
      Value::Double(0.0),
      Value::Double(-0.0),
      Value::Double(std::nan("")),
      Value::Null(),
      Value::Double(static_cast<double>(kTwo53)),
      Value::Double(9007199254740994.0),
      Value::Double(HUGE_VAL),
      Value::Double(-1e308),
  };
  std::vector<Value> strs = {
      Value::String(""),     Value::String("a"), Value::String("it's"),
      Value::Null(),         Value::String("%"), Value::String("hello.html"),
      Value::String("US"),   Value::String("UK"),
  };
  std::vector<Value> dates = {
      Value::Date(0),       Value::Date(-719162), Value::Date(2932896),
      Value::Null(),        Value::Date(1),       Value::Date(-1),
      Value::Date(1000000), Value::Null(),
  };
  std::vector<Value> bools = {
      Value::Bool(true), Value::Bool(false), Value::Bool(true), Value::Null(),
      Value::Null(),     Value::Bool(false), Value::Bool(true), Value::Bool(false),
  };
  std::vector<Row> rows;
  for (size_t r = 0; r < ints.size(); ++r) {
    rows.push_back(Row({ints[r], dbls[r], strs[r], dates[r], bools[r]}));
  }
  return rows;
}

TEST(VecBatchTest, DecodeRoundTripsNastyValues) {
  Schema schema;
  std::vector<Row> rows = NastyRows(&schema);
  BatchFixture fx = BatchOf(schema, rows);
  vec::ColumnBatch& batch = fx.batch;
  ASSERT_EQ(batch.num_rows, rows.size());
  ASSERT_EQ(batch.cols.size(), 5u);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < 5; ++c) {
      Value got = batch.cols[c].ValueAt(r);
      const Value& want = rows[r].fields[c];
      bool both_null = got.is_null() && want.is_null();
      EXPECT_TRUE(both_null || got == want)
          << "col " << c << " row " << r << ": " << got.ToString() << " vs "
          << want.ToString();
    }
    Row materialized = vec::MaterializeRow(batch, r);
    ASSERT_EQ(materialized.fields.size(), 5u);
  }
}

TEST(VecKernelTest, HashCellMatchesValueHash) {
  Schema schema;
  std::vector<Row> rows = NastyRows(&schema);
  BatchFixture fx = BatchOf(schema, rows);
  vec::ColumnBatch& batch = fx.batch;
  for (size_t c = 0; c < batch.cols.size(); ++c) {
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(vec::HashCell(batch.cols[c], r), rows[r].fields[c].Hash())
          << "col " << c << " row " << r << ": "
          << rows[r].fields[c].ToString();
    }
  }
}

TEST(VecKernelTest, HashKeyColumnsMatchesKeyHash) {
  Schema schema;
  std::vector<Row> rows = NastyRows(&schema);
  BatchFixture fx = BatchOf(schema, rows);
  vec::ColumnBatch& batch = fx.batch;
  // Two-column key (double, string) — the exact fold KeyHash applies.
  std::vector<const vec::ColumnVector*> keys = {&batch.cols[1],
                                                &batch.cols[2]};
  std::vector<uint64_t> hashes;
  vec::HashKeyColumns(keys, batch.num_rows, &hashes);
  ASSERT_EQ(hashes.size(), batch.num_rows);
  KeyHasher<Row> hasher;
  for (size_t r = 0; r < rows.size(); ++r) {
    Row key({rows[r].fields[1], rows[r].fields[2]});
    EXPECT_EQ(hashes[r], hasher(key)) << "row " << r;
  }
  // Empty key set (global aggregate): every hash is KeyHash(empty Row).
  std::vector<uint64_t> empty_hashes;
  vec::HashKeyColumns({}, 3, &empty_hashes);
  ASSERT_EQ(empty_hashes.size(), 3u);
  for (uint64_t h : empty_hashes) EXPECT_EQ(h, hasher(Row()));
}

TEST(VecKernelTest, GroupTableUsesValueEquality) {
  // 0.0 / -0.0 collapse, all NaNs collapse, NULL is its own group, and
  // kTwo53 as double groups apart from kTwo53+2 as double.
  Schema schema({{"d", TypeKind::kDouble}});
  std::vector<Row> rows = {
      Row({Value::Double(0.0)}),
      Row({Value::Double(-0.0)}),
      Row({Value::Double(std::nan(""))}),
      Row({Value::Double(-std::nan(""))}),
      Row({Value::Null()}),
      Row({Value::Null()}),
      Row({Value::Double(static_cast<double>(kTwo53))}),
      Row({Value::Double(9007199254740994.0)}),
      Row({Value::Double(0.0)}),
  };
  BatchFixture fx = BatchOf(schema, rows);
  vec::ColumnBatch& batch = fx.batch;
  std::vector<const vec::ColumnVector*> keys = {&batch.cols[0]};
  std::vector<uint64_t> hashes;
  vec::HashKeyColumns(keys, batch.num_rows, &hashes);
  auto no_calls = std::make_shared<const std::vector<AggCall>>();
  vec::VecGroupTable table(no_calls, 1);
  std::vector<size_t> group_of;
  for (size_t r = 0; r < rows.size(); ++r) {
    group_of.push_back(table.FindOrInsert(keys, r, hashes[r]));
  }
  EXPECT_EQ(table.size(), 5u);  // {0.0}, {NaN}, {NULL}, {2^53}, {2^53+2}
  EXPECT_EQ(group_of[0], group_of[1]);  // +0.0 == -0.0
  EXPECT_EQ(group_of[0], group_of[8]);
  EXPECT_EQ(group_of[2], group_of[3]);  // NaN == NaN
  EXPECT_EQ(group_of[4], group_of[5]);  // NULL groups with NULL
  EXPECT_NE(group_of[6], group_of[7]);  // 2^53 != 2^53+2
  // Insertion order is the group order.
  EXPECT_TRUE(table.batch().key(0).At(0).ToValue() == Value::Double(0.0));
  // Group the same data many times over to force a rehash.
  vec::VecGroupTable big(no_calls, 1);
  Schema ischema({{"i", TypeKind::kInt64}});
  std::vector<Row> irows;
  for (int i = 0; i < 3000; ++i) irows.push_back(Row({Value::Int64(i % 700)}));
  BatchFixture ifx = BatchOf(ischema, irows);
  vec::ColumnBatch& ibatch = ifx.batch;
  std::vector<const vec::ColumnVector*> ikeys = {&ibatch.cols[0]};
  std::vector<uint64_t> ihashes;
  vec::HashKeyColumns(ikeys, ibatch.num_rows, &ihashes);
  for (size_t r = 0; r < irows.size(); ++r) {
    size_t g = big.FindOrInsert(ikeys, r, ihashes[r]);
    EXPECT_EQ(g, static_cast<size_t>(r % 700));
  }
  EXPECT_EQ(big.size(), 700u);
}

TEST(VecBatchTest, SelectTrueEdgeCases) {
  vec::ColumnVector bools;
  bools.type = TypeKind::kBool;
  bools.storage = vec::ColumnVector::Storage::kInt64;
  bools.n = 6;
  bools.ints = {0, 1, 0, 1, 1, 0};
  bools.nulls = {0, 0, 0, 1, 0, 0};  // row 3 is NULL: counts as false

  vec::SelVector sel;
  vec::SelectTrue(bools, 0, 6, &sel);
  EXPECT_EQ(sel, (vec::SelVector{1, 4}));

  // Windowed evaluation appends absolute indices.
  vec::ColumnVector window = bools;
  window.n = 3;
  window.ints = {0, 1, 1};
  window.nulls = {0, 0, 0};
  vec::SelectTrue(window, 6, 9, &sel);
  EXPECT_EQ(sel, (vec::SelVector{1, 4, 7, 8}));

  // Empty selection.
  vec::ColumnVector none;
  none.type = TypeKind::kBool;
  none.storage = vec::ColumnVector::Storage::kInt64;
  none.n = 4;
  none.ints = {0, 0, 0, 0};
  vec::SelVector empty;
  vec::SelectTrue(none, 0, 4, &empty);
  EXPECT_TRUE(empty.empty());

  // All-NULL verdict selects nothing.
  vec::ColumnVector all_null;
  all_null.type = TypeKind::kBool;
  all_null.storage = vec::ColumnVector::Storage::kAllNull;
  all_null.n = 4;
  vec::SelectTrue(all_null, 0, 4, &empty);
  EXPECT_TRUE(empty.empty());

  // Full selection.
  vec::ColumnVector all;
  all.type = TypeKind::kBool;
  all.storage = vec::ColumnVector::Storage::kInt64;
  all.n = 3;
  all.ints = {1, 1, 1};
  vec::SelVector full;
  vec::SelectTrue(all, 0, 3, &full);
  EXPECT_EQ(full, (vec::SelVector{0, 1, 2}));

  // Single survivor.
  vec::ColumnVector one;
  one.type = TypeKind::kBool;
  one.storage = vec::ColumnVector::Storage::kInt64;
  one.n = 3;
  one.ints = {0, 0, 1};
  vec::SelVector single;
  vec::SelectTrue(one, 0, 3, &single);
  EXPECT_EQ(single, (vec::SelVector{2}));
}

TEST(VecBatchTest, GatherBatchCompactsEveryStorage) {
  Schema schema;
  std::vector<Row> rows = NastyRows(&schema);
  BatchFixture fx = BatchOf(schema, rows);
  vec::ColumnBatch& batch = fx.batch;
  vec::SelVector sel = {1, 4, 6};
  vec::ColumnBatch out = vec::GatherBatch(batch, sel);
  ASSERT_EQ(out.num_rows, 3u);
  for (size_t k = 0; k < sel.size(); ++k) {
    for (size_t c = 0; c < 5; ++c) {
      Value got = out.cols[c].ValueAt(k);
      const Value& want = rows[static_cast<size_t>(sel[k])].fields[c];
      bool both_null = got.is_null() && want.is_null();
      EXPECT_TRUE(both_null || got == want) << "col " << c << " sel " << k;
    }
  }
  // Empty selection yields an empty batch with the same arity.
  vec::ColumnBatch none = vec::GatherBatch(batch, {});
  EXPECT_EQ(none.num_rows, 0u);
  ASSERT_EQ(none.cols.size(), 5u);
}

// Satellite: a stored chunk whose type disagrees with the analyzer's slot
// type must fail loudly at the batch boundary, not silently misread bits.
TEST(VecBatchTest, DecodeTypeMismatchIsClearError) {
  Schema stored({{"x", TypeKind::kInt64}});
  std::vector<Row> rows = {Row({Value::Int64(1)}), Row({Value::Int64(2)})};
  auto part = TablePartition::FromRows(stored, rows);
  std::vector<Field> bound = {{"x", TypeKind::kDouble}};
  vec::ColumnBatch batch;
  Status st = vec::DecodePartition(*part, bound, {0}, "mytable", &batch);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("mytable.x"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("BIGINT"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("DOUBLE"), std::string::npos) << st.message();
}

/// Binds columns a,b,c,s to slots 0..3 (as in expr_compiler_test).
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

/// Property: EvalBatch == Eval per row, on every expression form, over rows
/// mixing the nasty values into the a/b/c/s slots.
class EvalBatchVsScalarTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EvalBatchVsScalarTest, Agree) {
  ExprPtr expr = Bind(GetParam());
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  auto compiled = compiler.Compile(*expr);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  Schema schema({{"a", TypeKind::kInt64},
                 {"b", TypeKind::kDouble},
                 {"c", TypeKind::kString},
                 {"s", TypeKind::kInt64}});
  const char* strings[] = {"US", "UK", "abc", "", "hello.html", "it's"};
  std::vector<int64_t> nasty_ints = {0,     1,         -1,       42,
                                     120,   kTwo53,    kTwo53 + 1,
                                     INT64_MAX, INT64_MIN, 7};
  std::vector<double> nasty_dbls = {0.0,    -0.0,   2.5,  std::nan(""),
                                    HUGE_VAL, -1e308, 1e-300,
                                    static_cast<double>(kTwo53), 4.0, 55.5};
  std::vector<Row> rows;
  for (int i = 0; i < 240; ++i) {
    size_t u = static_cast<size_t>(i);
    Row row({i % 11 == 0 ? Value::Null()
                         : Value::Int64(nasty_ints[u % nasty_ints.size()]),
             i % 7 == 0 ? Value::Null()
                        : Value::Double(nasty_dbls[u % nasty_dbls.size()]),
             Value::String(strings[u % 6]),
             i % 3 == 0 ? Value::Null() : Value::Int64(i % 5)});
    rows.push_back(std::move(row));
  }
  BatchFixture fx = BatchOf(schema, rows);
  vec::ColumnBatch& batch = fx.batch;
  // Evaluate in uneven windows to exercise the begin/end offsets.
  size_t window = 37;
  for (size_t b = 0; b < batch.num_rows; b += window) {
    size_t e = std::min(batch.num_rows, b + window);
    vec::ColumnVector out;
    compiled->EvalBatch(batch, b, e, &out);
    ASSERT_EQ(out.n, e - b);
    for (size_t i = b; i < e; ++i) {
      Value scalar = compiled->Eval(rows[i]);
      Value batched = out.ValueAt(i - b);
      bool both_null = scalar.is_null() && batched.is_null();
      EXPECT_TRUE(both_null || scalar == batched)
          << GetParam() << " row=" << rows[i].ToString()
          << " scalar=" << scalar.ToString()
          << " batched=" << batched.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, EvalBatchVsScalarTest,
    ::testing::Values(
        "a + 1", "a * 2 - b", "a / 0", "a / b", "a % 7", "a % 0", "-a", "-b",
        "NOT (a > 5)", "a > 50 AND b < 5.0", "a > 50 OR s IS NULL",
        "a BETWEEN 10 AND 90", "a NOT BETWEEN 10 AND 90",
        "b BETWEEN 0.0 AND 5.0", "b BETWEEN -1.5 AND 2.5",
        "c BETWEEN 'UK' AND 'abc'", "a = b", "a < b", "a >= b", "b = 0.0",
        "a = 9007199254740992", "b <> c", "c IN ('US', 'UK')",
        "c NOT IN ('abc')", "a IN (1, 2.5, 42)", "s IS NULL", "s IS NOT NULL",
        "c LIKE '%.html'", "c NOT LIKE 'U%'", "SUBSTR(c, 1, 2)",
        "SUBSTR(c, 2)", "SUBSTR(c, 0 - 1, 3)", "LOWER(c)", "LENGTH(c) + a",
        "CASE WHEN a > 100 THEN 'big' WHEN a > 10 THEN 'mid' ELSE 'small' END",
        "CASE WHEN a > 1000 THEN 1 END", "COALESCE(s, a)",
        "IF(a > 50, b, 0.0 - b)", "a = 10 AND b = 2.5 OR c = 'US'",
        "ABS(0 - a) + FLOOR(b)", "a * a", "b * b + 1.5",
        // Needs an operand stack 37 deep.
        "a IN (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, "
        "19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, "
        "36)"));

TEST(EvalBatchTest, UdfFallsBackPerRow) {
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
  Schema schema({{"a", TypeKind::kInt64}});
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(Row({Value::Int64(i)}));
  BatchFixture fx = BatchOf(schema, rows);
  vec::ColumnBatch& batch = fx.batch;
  vec::ColumnVector out;
  compiled->EvalBatch(batch, 0, batch.num_rows, &out);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out.ValueAt(i), Value::Int64(static_cast<int64_t>(i) * 2 + 1));
  }
}

// [NOT] LIKE over string views against the row path, on dictionary, plain
// and nullable (generic) string chunks, with constant and per-row patterns.
TEST(LikeKernelTest, MatchesRowPath) {
  const Schema schema({{"t", TypeKind::kString}, {"p", TypeKind::kString}});
  const std::vector<std::string> texts = {
      "", "a", "abc", "abd", "a%c", "%", "_", "%x", "Mozilla/5.0",
      "a-long-text-beyond-the-small-string-buffer-abc"};
  const std::vector<std::string> patterns = {"%",   "",    "a%",  "%c",
                                             "a_c", "_",   "%b%", "a%c",
                                             "%%",  "Moz%"};
  // dictionary: values repeat; plain: every text unique; generic: NULLs.
  std::vector<Row> dict_rows, plain_rows, null_rows;
  for (size_t i = 0; i < 200; ++i) {
    dict_rows.push_back(Row({Value::String(texts[i % texts.size()]),
                             Value::String(patterns[i % 3])}));
    plain_rows.push_back(Row({Value::String(texts[i % texts.size()] +
                                            std::to_string(i)),
                              Value::String(patterns[i % patterns.size()] +
                                            std::to_string(i % 7))}));
    null_rows.push_back(
        Row({i % 5 == 0 ? Value::Null()
                        : Value::String(texts[(i / 3) % texts.size()]),
             i % 7 == 0 ? Value::Null()
                        : Value::String(patterns[i % patterns.size()])}));
  }
  const struct {
    const std::vector<Row>* rows;
    Encoding text;
  } parts[] = {{&dict_rows, Encoding::kDictionary},
               {&plain_rows, Encoding::kPlain},
               {&null_rows, Encoding::kGeneric}};
  const std::vector<std::string> exprs = {
      "t LIKE 'a%'",  "t LIKE '%c'",   "t LIKE 'a_c'", "t LIKE '%'",
      "t LIKE ''",    "t LIKE '_'",    "t LIKE '%%'",  "t NOT LIKE '%b%'",
      "t LIKE p",     "t NOT LIKE p",  "'abc' LIKE p", "t LIKE NULL",
      "NULL LIKE p",  "t NOT LIKE 'Moz%'"};
  for (const auto& part : parts) {
    BatchFixture fx = BatchOf(schema, *part.rows);
    ASSERT_EQ(fx.part->column(0).encoding(), part.text);
    for (const std::string& text : exprs) {
      auto parsed = ParseExpression(text);
      ASSERT_TRUE(parsed.ok()) << text;
      std::function<void(Expr*)> bind = [&](Expr* e) {
        if (e->kind == ExprKind::kColumnRef) {
          e->kind = ExprKind::kSlot;
          e->slot = e->name == "t" ? 0 : 1;
          e->type = TypeKind::kString;
        }
        for (auto& ch : e->children) bind(ch.get());
      };
      bind(parsed->get());
      ExprCompiler compiler(nullptr);
      auto compiled = compiler.Compile(**parsed);
      ASSERT_TRUE(compiled.ok()) << text;
      const size_t window = 64;
      for (size_t b = 0; b < fx.batch.num_rows; b += window) {
        const size_t e = std::min(fx.batch.num_rows, b + window);
        vec::ColumnVector out;
        compiled->EvalBatch(fx.batch, b, e, &out);
        // A typed BOOLEAN column, or all-NULL for a NULL operand.
        EXPECT_TRUE(out.storage == vec::ColumnVector::Storage::kInt64 ||
                    out.storage == vec::ColumnVector::Storage::kAllNull)
            << text;
        for (size_t i = b; i < e; ++i) {
          const Row& row = (*part.rows)[i];
          const Value want = compiled->Eval(row);
          const Value got = out.ValueAt(i - b);
          EXPECT_TRUE(want.is_null() ? got.is_null() : got == want)
              << text << " row=" << row.ToString() << " want="
              << want.ToString() << " got=" << got.ToString();
        }
      }
    }
  }
}

// End to end: the vectorized path must return the same rows AND charge the
// same virtual time as the scalar path; only wall-clock may change.
class VecSqlTest : public ::testing::Test {
 protected:
  // Each variant runs in a fresh session/cluster so both start from virtual
  // clock 0. Within one session the clock carries across queries, and
  // (end - start) rounds to a different ULP depending on the absolute clock
  // position — identical scalar queries already differ in the last bit
  // between the first and second run of a session. Fresh sessions make the
  // bit-for-bit virtual_seconds comparison below meaningful.
  std::unique_ptr<SharkSession> MakeSession() {
    ClusterConfig cfg;
    cfg.num_nodes = 4;
    cfg.hardware.cores_per_node = 2;
    auto session = std::make_unique<SharkSession>(
        std::make_shared<ClusterContext>(cfg));
    Schema schema({{"x", TypeKind::kInt64},
                   {"y", TypeKind::kDouble},
                   {"name", TypeKind::kString}});
    std::vector<Row> rows;
    for (int i = 0; i < 4000; ++i) {
      double y = (i % 97 == 0) ? std::nan("")
                               : (i % 95 == 0 ? -0.0 : (i % 13) * 0.5);
      Value x = (i % 89 == 0) ? Value::Null() : Value::Int64(i % 700);
      rows.push_back(Row(
          {x, Value::Double(y), Value::String("n" + std::to_string(i % 23))}));
    }
    EXPECT_TRUE(session->CreateDfsTable("t", schema, rows, 4).ok());
    if (cache_) {
      EXPECT_TRUE(session->CacheTable("t").ok());
    }
    return session;
  }

  struct RunPair {
    QueryResult on;
    QueryResult off;
  };

  QueryResult RunOne(bool vectorized, const std::string& q) {
    auto session = MakeSession();
    session->options().vectorized = vectorized;
    auto r = session->Sql(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  RunPair RunBoth(const std::string& q) {
    return {RunOne(true, q), RunOne(false, q)};
  }

  static std::multiset<std::string> Keyed(const QueryResult& r) {
    std::multiset<std::string> out;
    for (const Row& row : r.rows) out.insert(row.ToString());
    return out;
  }

  static bool UsedVecStage(const QueryResult& r) {
    if (r.profile == nullptr) return false;
    for (const auto& st : r.profile->stages) {
      if (st.label.find("vec") != std::string::npos) return true;
    }
    return false;
  }

  /// Same rows in the same order, not just as a multiset.
  static void ExpectSameSequence(const RunPair& p, const std::string& q) {
    ASSERT_EQ(p.on.rows.size(), p.off.rows.size()) << q;
    for (size_t i = 0; i < p.on.rows.size(); ++i) {
      EXPECT_EQ(p.on.rows[i].ToString(), p.off.rows[i].ToString())
          << q << " row " << i;
    }
  }

  void ExpectIdentical(const RunPair& p, const std::string& q,
                       bool expect_vec_stage) {
    EXPECT_EQ(Keyed(p.on), Keyed(p.off)) << q;
    // Virtual time is a pure function of the charges — byte-for-byte equal.
    EXPECT_EQ(p.on.metrics.virtual_seconds, p.off.metrics.virtual_seconds) << q;
    EXPECT_EQ(p.on.metrics.stages, p.off.metrics.stages) << q;
    EXPECT_EQ(p.on.metrics.tasks, p.off.metrics.tasks) << q;
    EXPECT_EQ(p.on.metrics.work.rows_processed,
              p.off.metrics.work.rows_processed) << q;
    EXPECT_EQ(p.on.metrics.work.mem_read_bytes,
              p.off.metrics.work.mem_read_bytes) << q;
    EXPECT_EQ(p.on.metrics.work.hash_records,
              p.off.metrics.work.hash_records) << q;
    EXPECT_EQ(UsedVecStage(p.on), expect_vec_stage) << q;
    EXPECT_FALSE(UsedVecStage(p.off)) << q;
  }

  bool cache_ = true;
};

TEST_F(VecSqlTest, ScanFilterMatchesScalar) {
  const std::string q = "SELECT x, y, name FROM t WHERE x > 350";
  RunPair p = RunBoth(q);
  // The fused filter preserves row order exactly, not just as a multiset.
  ExpectSameSequence(p, q);
  ExpectIdentical(p, q, true);
}

TEST_F(VecSqlTest, ScanProjectMatchesScalar) {
  const std::string q =
      "SELECT x * 2 + 1, SUBSTR(name, 1, 2), y * y FROM t WHERE y > 0.5";
  RunPair p = RunBoth(q);
  ExpectSameSequence(p, q);
  ExpectIdentical(p, q, true);
}

TEST_F(VecSqlTest, GroupByMatchesScalar) {
  const std::string q =
      "SELECT name, COUNT(*), SUM(y), MIN(x), MAX(y), AVG(y) "
      "FROM t WHERE x < 600 GROUP BY name";
  RunPair p = RunBoth(q);
  // Both map sides emit groups in first-seen order through one bucketing
  // tail, so even the unordered aggregate output agrees row for row.
  ExpectSameSequence(p, q);
  ExpectIdentical(p, q, true);
}

TEST_F(VecSqlTest, GroupByNastyDoubleKeysMatchesScalar) {
  // NaN and -0.0 group keys plus NULL x keys must land in the same groups
  // under both engines.
  const std::string q = "SELECT y, COUNT(*), SUM(x) FROM t GROUP BY y";
  ExpectIdentical(RunBoth(q), q, true);
  const std::string q2 = "SELECT x, COUNT(*) FROM t GROUP BY x";
  ExpectIdentical(RunBoth(q2), q2, true);
}

TEST_F(VecSqlTest, GlobalAggAndDistinctMatchScalar) {
  const std::string q =
      "SELECT COUNT(*), COUNT(DISTINCT name), SUM(y), AVG(x) FROM t";
  ExpectIdentical(RunBoth(q), q, true);
}

TEST_F(VecSqlTest, ExpressionGroupKeyMatchesScalar) {
  const std::string q =
      "SELECT SUBSTR(name, 1, 2), SUM(y) FROM t GROUP BY SUBSTR(name, 1, 2)";
  ExpectIdentical(RunBoth(q), q, true);
}

TEST_F(VecSqlTest, OrderByLimitMatchesScalar) {
  // The columnar top-k against the row path's project + sort: the same rows
  // in the same order (ties on NaN, -0.0 and NULL keys broken on input
  // order) and the same virtual time.
  for (const std::string q :
       {"SELECT x, y, name FROM t ORDER BY y DESC, x LIMIT 25",
        "SELECT name, x * 2, y FROM t WHERE x > 100 ORDER BY name, y DESC "
        "LIMIT 40",
        "SELECT y, x FROM t ORDER BY y LIMIT 0",
        "SELECT y, x FROM t WHERE x < 50 ORDER BY x DESC, y LIMIT 100000",
        "SELECT x FROM t WHERE x > 100000 ORDER BY x LIMIT 5"}) {
    RunPair p = RunBoth(q);
    ExpectSameSequence(p, q);
    ExpectIdentical(p, q, true);
  }
}

TEST_F(VecSqlTest, UncachedTableFallsBackToScalar) {
  cache_ = false;
  const std::string q = "SELECT x FROM t WHERE x > 100";
  RunPair p = RunBoth(q);
  // Not cached: both runs take the scalar DFS path.
  ExpectIdentical(p, q, false);
}

}  // namespace
}  // namespace shark
