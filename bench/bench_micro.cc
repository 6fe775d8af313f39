// Micro-benchmarks (google-benchmark) of the CPU-critical primitives: the
// compression codecs (§3.2), expression interpretation (§5), key hashing,
// the PDE statistics sketches and the 1-byte size encoding (§3.1), plus a
// hand-rolled vectorized-vs-row kernel sweep (`--vector-sweep`) that prints
// BENCH lines per kernel; bench/claims.json floors their speedups and caps
// the cost of ANALYZE's sketching over a plain decode.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>

#include "bench/bench_common.h"
#include "columnar/column.h"
#include "columnar/table_partition.h"
#include "common/heavy_hitters.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/size_encoding.h"
#include "exec/vectorized/column_batch.h"
#include "exec/vectorized/kernels.h"
#include "relation/row.h"
#include "sql/expr.h"
#include "sql/expr_compiler.h"
#include "sql/parser.h"
#include "sql/stats/table_stats.h"

namespace shark {
namespace {

std::vector<Value> MakeIntColumn(size_t n, uint64_t range) {
  Random rng(1);
  std::vector<Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(range))));
  }
  return out;
}

std::vector<Value> MakeStringColumn(size_t n, int distinct) {
  Random rng(2);
  std::vector<Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Value::String(
        "value-" + std::to_string(rng.Uniform(static_cast<uint64_t>(distinct)))));
  }
  return out;
}

void BM_EncodeInt64BitPacked(benchmark::State& state) {
  auto values = MakeIntColumn(static_cast<size_t>(state.range(0)), 1 << 16);
  for (auto _ : state) {
    auto chunk = EncodeColumn(TypeKind::kInt64, values, Encoding::kBitPacked);
    benchmark::DoNotOptimize(chunk);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeInt64BitPacked)->Arg(1 << 14);

void BM_EncodeStringDict(benchmark::State& state) {
  auto values = MakeStringColumn(static_cast<size_t>(state.range(0)), 64);
  for (auto _ : state) {
    auto chunk = EncodeColumn(TypeKind::kString, values, Encoding::kDictionary);
    benchmark::DoNotOptimize(chunk);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeStringDict)->Arg(1 << 14);

void BM_DecodeColumn(benchmark::State& state) {
  auto values = MakeIntColumn(static_cast<size_t>(state.range(0)), 1 << 10);
  auto chunk = EncodeColumnAuto(TypeKind::kInt64, values, nullptr);
  for (auto _ : state) {
    std::vector<Value> out;
    out.reserve(values.size());
    chunk->Decode(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeColumn)->Arg(1 << 14);

void BM_ExprEval(benchmark::State& state) {
  auto parsed = ParseExpression(
      "a > 100 AND b BETWEEN 3 AND 7 AND SUBSTR(s, 1, 3) = 'abc'");
  ExprPtr expr = *parsed;
  std::function<void(Expr*)> bind = [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      e->kind = ExprKind::kSlot;
      e->slot = e->name == "a" ? 0 : e->name == "b" ? 1 : 2;
    }
    for (auto& c : e->children) bind(c.get());
  };
  bind(expr.get());
  Row row({Value::Int64(250), Value::Int64(5), Value::String("abcdef")});
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalPredicate(*expr, row, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExprEval);

void BM_ExprEvalCompiled(benchmark::State& state) {
  // Same expression as BM_ExprEval, compiled to a flat postfix program
  // (§5's bytecode compilation) — compare items/sec against the interpreter.
  auto parsed = ParseExpression(
      "a > 100 AND b BETWEEN 3 AND 7 AND SUBSTR(s, 1, 3) = 'abc'");
  ExprPtr expr = *parsed;
  std::function<void(Expr*)> bind = [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      e->kind = ExprKind::kSlot;
      e->slot = e->name == "a" ? 0 : e->name == "b" ? 1 : 2;
    }
    for (auto& c : e->children) bind(c.get());
  };
  bind(expr.get());
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  auto program = *compiler.Compile(*expr);
  Row row({Value::Int64(250), Value::Int64(5), Value::String("abcdef")});
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.EvalBool(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExprEvalCompiled);

// Numeric-only predicate (the dominant scan-filter shape): the compiled
// fused comparisons shine here.
ExprPtr BindNumericPredicate() {
  auto parsed = ParseExpression("a > 100 AND b BETWEEN 3 AND 7 AND a <> 500");
  ExprPtr expr = *parsed;
  std::function<void(Expr*)> bind = [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      e->kind = ExprKind::kSlot;
      e->slot = e->name == "a" ? 0 : 1;
    }
    for (auto& c : e->children) bind(c.get());
  };
  bind(expr.get());
  return expr;
}

void BM_NumericPredicateInterpreted(benchmark::State& state) {
  ExprPtr expr = BindNumericPredicate();
  Row row({Value::Int64(250), Value::Int64(5)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalPredicate(*expr, row, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NumericPredicateInterpreted);

void BM_NumericPredicateCompiled(benchmark::State& state) {
  ExprPtr expr = BindNumericPredicate();
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  auto program = *compiler.Compile(*expr);
  Row row({Value::Int64(250), Value::Int64(5)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.EvalBool(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NumericPredicateCompiled);

void BM_RowHash(benchmark::State& state) {
  Row row({Value::Int64(12345), Value::String("1.2.3.4"), Value::Double(9.5)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyHash(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowHash);

void BM_SizeEncoding(benchmark::State& state) {
  Random rng(3);
  for (auto _ : state) {
    uint64_t size = rng.Uniform(32ULL << 30);
    benchmark::DoNotOptimize(SizeEncoding::Decode(SizeEncoding::Encode(size)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SizeEncoding);

void BM_HeavyHittersAdd(benchmark::State& state) {
  Random rng(4);
  HeavyHitters hh(64);
  for (auto _ : state) {
    hh.Add(rng.Zipf(100000, 1.2));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeavyHittersAdd);

void BM_HistogramAdd(benchmark::State& state) {
  Random rng(5);
  ApproxHistogram hist(64);
  for (auto _ : state) {
    hist.Add(rng.NextDouble() * 1e6);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

void BM_LikeMatch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LikeMatch("the-quick-brown-fox.html", "%quick%fox%.html"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LikeMatch);

// ---------------------------------------------------------------------------
// Vectorized-vs-row kernel sweep. Each kernel runs the same work twice —
// batch-at-a-time over a decoded ColumnBatch and row-at-a-time over
// materialized Rows (the scalar engine path) — and reports rows/sec for
// both plus the wall-clock speedup. Wall-clock is noisy host time, so the
// claims on these lines are conservative floors, not pins.
// ---------------------------------------------------------------------------

std::shared_ptr<const TablePartition> SweepPartition(const Schema& schema,
                                                     std::vector<Row>* rows) {
  Random rng(7);
  constexpr size_t kRows = 1 << 16;
  rows->clear();
  rows->reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows->push_back(
        Row({Value::Int64(static_cast<int64_t>(rng.Uniform(1 << 13))),
             Value::Int64(static_cast<int64_t>(rng.Uniform(1000))),
             Value::Double(rng.NextDouble() * 100.0),
             Value::Double(rng.NextDouble() * 10.0),
             Value::String("k" + std::to_string(rng.Uniform(64)))}));
  }
  return TablePartition::FromRows(schema, *rows);
}

CompiledExpr CompileBound(const std::string& text) {
  auto parsed = ParseExpression(text);
  if (!parsed.ok()) std::abort();
  ExprPtr expr = std::move(*parsed);
  std::function<void(Expr*)> bind = [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      e->kind = ExprKind::kSlot;
      e->slot = e->name == "a"   ? 0
                : e->name == "b" ? 1
                : e->name == "x" ? 2
                : e->name == "y" ? 3
                                 : 4;
    }
    for (auto& c : e->children) bind(c.get());
  };
  bind(expr.get());
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  auto program = compiler.Compile(*expr);
  if (!program.ok()) std::abort();
  return std::move(*program);
}

/// Repeats `fn` (which processes `rows_per_rep` rows) until ~80ms of wall
/// clock has elapsed and returns rows/sec.
template <typename Fn>
double MeasureRowsPerSec(size_t rows_per_rep, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  // One untimed warmup rep.
  fn();
  auto start = Clock::now();
  size_t reps = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.08);
  return static_cast<double>(rows_per_rep) * static_cast<double>(reps) /
         elapsed;
}

void EmitVectorLine(const std::string& label, size_t rows, double vec_rps,
                    double row_rps) {
  using bench::Clock;
  using bench::EmitBench;
  const char* kBench = "micro_vector";
  EmitBench(kBench, label, "rows", static_cast<double>(rows), "rows",
            Clock::kCount);
  EmitBench(kBench, label, "rows_per_sec_vec", vec_rps, "rows/s",
            Clock::kHost);
  EmitBench(kBench, label, "rows_per_sec_row", row_rps, "rows/s",
            Clock::kHost);
  EmitBench(kBench, label, "wall_speedup",
            row_rps > 0 ? vec_rps / row_rps : 0.0, "x", Clock::kHost);
}

/// ANALYZE's per-partition sketching (PartitionSketch::AddPartition) against
/// a plain typed decode of the same chunks, on ingest_train's table shape:
/// 100k rows x 11 Gaussian DOUBLE columns in 32 partitions. The ratio is the
/// cost of the sketches per value read; bench/claims.json caps it, so a
/// per-value cost like the old node-walking heavy-hitter eviction shows.
int RunAnalyzeSketch() {
  constexpr size_t kRows = 100000;
  constexpr int kCols = 11;
  constexpr size_t kParts = 32;
  std::vector<Field> fields;
  for (int c = 0; c < kCols; ++c) {
    fields.push_back({"c" + std::to_string(c), TypeKind::kDouble});
  }
  Schema schema(fields);
  Random rng(11);
  std::vector<TablePartitionPtr> parts;
  for (size_t p = 0; p < kParts; ++p) {
    std::vector<Row> rows;
    for (size_t i = p * kRows / kParts; i < (p + 1) * kRows / kParts; ++i) {
      Row row;
      for (int c = 0; c < kCols; ++c) {
        double u1 = std::max(rng.NextDouble(), 1e-12), u2 = rng.NextDouble();
        row.fields.push_back(Value::Double(
            std::sqrt(-2.0 * std::log(u1)) *
            std::cos(6.283185307179586 * u2)));
      }
      rows.push_back(std::move(row));
    }
    parts.push_back(TablePartition::FromRows(schema, rows));
  }

  double sketch_rps = MeasureRowsPerSec(kRows, [&] {
    for (const TablePartitionPtr& part : parts) {
      PartitionSketch sketch(schema);
      sketch.AddPartition(schema, *part);
      benchmark::DoNotOptimize(sketch);
    }
  });
  double decode_rps = MeasureRowsPerSec(kRows, [&] {
    std::vector<double> doubles;
    for (const TablePartitionPtr& part : parts) {
      for (int c = 0; c < kCols; ++c) {
        doubles.clear();
        if (!part->column(c).DecodeDoubles(&doubles)) std::abort();
        benchmark::DoNotOptimize(doubles.data());
      }
    }
  });

  using bench::Clock;
  using bench::EmitBench;
  const char* kBench = "micro_vector";
  EmitBench(kBench, "analyze_sketch", "rows", static_cast<double>(kRows),
            "rows", Clock::kCount);
  EmitBench(kBench, "analyze_sketch", "rows_per_sec_sketch", sketch_rps,
            "rows/s", Clock::kHost);
  EmitBench(kBench, "analyze_sketch", "rows_per_sec_decode", decode_rps,
            "rows/s", Clock::kHost);
  EmitBench(kBench, "analyze_sketch", "sketch_over_decode",
            sketch_rps > 0 ? decode_rps / sketch_rps : 0.0, "x",
            Clock::kHost);
  return 0;
}

int RunVectorSweep() {
  Schema schema({{"a", TypeKind::kInt64},
                 {"b", TypeKind::kInt64},
                 {"x", TypeKind::kDouble},
                 {"y", TypeKind::kDouble},
                 {"s", TypeKind::kString}});
  std::vector<Row> rows;
  auto part = SweepPartition(schema, &rows);
  const size_t n = part->num_rows();
  std::vector<int> all_cols{0, 1, 2, 3, 4};
  vec::ColumnBatch batch;
  Status st = vec::DecodePartition(*part, schema.fields(), all_cols, "sweep",
                                   &batch);
  if (!st.ok()) {
    std::fprintf(stderr, "decode failed: %s\n", st.message().c_str());
    return 1;
  }

  struct ExprKernel {
    const char* label;
    const char* text;
  };
  const ExprKernel kernels[] = {
      {"filter_int64", "a > 3000 AND b BETWEEN 100 AND 900"},
      {"project_arith", "x * 2.0 + y - 1.0"},
      {"predicate_mixed", "x < 75.0 AND SUBSTR(s, 1, 2) = 'k1'"},
  };
  for (const ExprKernel& k : kernels) {
    CompiledExpr program = CompileBound(k.text);
    double vec_rps = MeasureRowsPerSec(n, [&] {
      vec::ColumnVector out;
      program.EvalBatch(batch, 0, n, &out);
      benchmark::DoNotOptimize(out);
    });
    double row_rps = MeasureRowsPerSec(n, [&] {
      for (const Row& r : rows) benchmark::DoNotOptimize(program.Eval(r));
    });
    EmitVectorLine(k.label, n, vec_rps, row_rps);
  }

  // Column-wise key hashing vs per-row KeyHash (the group-by inner loop).
  {
    std::vector<const vec::ColumnVector*> key_cols{&batch.cols[0],
                                                   &batch.cols[4]};
    double vec_rps = MeasureRowsPerSec(n, [&] {
      std::vector<uint64_t> hashes;
      vec::HashKeyColumns(key_cols, n, &hashes);
      benchmark::DoNotOptimize(hashes);
    });
    std::vector<Row> keys;
    keys.reserve(n);
    for (const Row& r : rows) keys.push_back(Row({r.Get(0), r.Get(4)}));
    double row_rps = MeasureRowsPerSec(n, [&] {
      for (const Row& r : keys) benchmark::DoNotOptimize(KeyHash(r));
    });
    EmitVectorLine("hash_keys", n, vec_rps, row_rps);
  }

  // Fused scan+filter straight off the columnar partition vs the scalar
  // path's materialize-then-filter.
  {
    CompiledExpr program = CompileBound("a > 3000 AND b BETWEEN 100 AND 900");
    std::vector<int> needed{0, 1};
    double vec_rps = MeasureRowsPerSec(n, [&] {
      vec::ColumnBatch decoded;
      if (!vec::DecodePartition(*part, schema.fields(), needed, "sweep",
                                &decoded)
               .ok()) {
        std::abort();
      }
      vec::ColumnVector pred;
      program.EvalBatch(decoded, 0, n, &pred);
      vec::SelVector sel;
      vec::SelectTrue(pred, 0, n, &sel);
      benchmark::DoNotOptimize(vec::GatherBatch(decoded, sel));
    });
    double row_rps = MeasureRowsPerSec(n, [&] {
      std::vector<Row> materialized = part->ToRows(&needed);
      std::vector<Row> survivors;
      for (Row& r : materialized) {
        if (program.EvalBool(r)) survivors.push_back(std::move(r));
      }
      benchmark::DoNotOptimize(survivors);
    });
    EmitVectorLine("fused_scan_filter", n, vec_rps, row_rps);
  }

  return RunAnalyzeSketch();
}

}  // namespace
}  // namespace shark

int main(int argc, char** argv) {
  // `--vector-sweep`: run only the vectorized kernel sweep (CI mode; its
  // speedups are floored in bench/claims.json). Otherwise: the sweep, then the
  // google-benchmark suite with the remaining flags.
  bool sweep_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--vector-sweep") == 0) {
      sweep_only = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  int rc = shark::RunVectorSweep();
  if (rc != 0 || sweep_only) return rc;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
