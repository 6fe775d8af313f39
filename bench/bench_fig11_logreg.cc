// Reproduces Figure 11: per-iteration runtime of logistic regression on a
// 100 GB synthetic dataset (1B points x 10 features at paper scale), for
// Shark (data cached in the memory store after the first pass) versus
// Hadoop reading text or binary records from HDFS every iteration (§6.5).
#include "bench/bench_common.h"
#include "ml/logistic_regression.h"
#include "ml/table_rdd.h"
#include "workloads/mldata.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

namespace {

/// Average of the steady-state iterations (drop the first, which includes
/// the initial load — §6.5 reports it separately).
double SteadyState(const std::vector<double>& seconds) {
  double total = 0;
  for (size_t i = 1; i < seconds.size(); ++i) total += seconds[i];
  return total / static_cast<double>(seconds.size() - 1);
}

Result<RddPtr<LabeledPoint>> PointsOf(SharkSession* session,
                                      const std::string& table, int dims,
                                      bool cache) {
  SHARK_ASSIGN_OR_RETURN(TableRdd rows,
                         session->Sql2Rdd("SELECT * FROM " + table));
  SHARK_ASSIGN_OR_RETURN(RddPtr<LabeledPoint> points,
                         RowsToLabeledPoints(rows, "label",
                                             MlFeatureColumns(dims)));
  if (cache) points->Cache();
  return points;
}

/// Trains the cached-Shark model under a fixed host-thread count, returning
/// the host wall-clock of training and the model (weights and per-iteration
/// virtual seconds must not depend on host_threads).
double TrainWithHostThreads(int host_threads, const MlDataConfig& data,
                            const LogisticRegression::Options& opts,
                            LogisticRegression::Model* model) {
  auto session = MakeSharkSession(data.VirtualScale());
  session->context().set_host_threads(host_threads);
  if (!GenerateMlTable(session.get(), data).ok()) std::exit(1);
  auto points = PointsOf(session.get(), "ml_points", data.dimensions,
                         /*cache=*/true);
  if (!points.ok()) std::exit(1);
  WallTimer timer;
  auto trained = LogisticRegression::Train(&session->context(), *points,
                                           data.dimensions, opts);
  if (!trained.ok()) std::exit(1);
  *model = std::move(*trained);
  return timer.ElapsedMs();
}

/// Host-parallel execution: serial reference path (host_threads=1) vs the
/// work-stealing pool (host_threads=0). Weights and virtual iteration times
/// must match bit-for-bit; only host wall-clock may differ.
void RunHostParallel(const MlDataConfig& data,
                     const LogisticRegression::Options& opts) {
  std::printf("\n---- host-parallel task execution (cached logreg) ----\n");
  LogisticRegression::Model serial, pooled;
  double ms_serial = TrainWithHostThreads(1, data, opts, &serial);
  double ms_pool = TrainWithHostThreads(0, data, opts, &pooled);
  double vsum_serial = 0, vsum_pool = 0;
  for (double v : serial.iteration_seconds) vsum_serial += v;
  for (double v : pooled.iteration_seconds) vsum_pool += v;
  bool identical = serial.weights == pooled.weights &&
                   serial.iteration_seconds == pooled.iteration_seconds;
  EmitParallel("fig11", "train10_cached", 1, ms_serial, vsum_serial);
  EmitParallel("fig11", "train10_cached", 0, ms_pool, vsum_pool);
  std::printf("  host_threads=1: %8.1fms host, %.4fs virtual\n", ms_serial,
              vsum_serial);
  std::printf("  host_threads=0: %8.1fms host, %.4fs virtual\n", ms_pool,
              vsum_pool);
  std::printf("  host speedup: %.2fx; weights & virtual times %s\n",
              Ratio(ms_serial, ms_pool),
              identical ? "bit-for-bit identical" : "DIVERGED (BUG)");
  if (!identical) std::exit(1);
}

}  // namespace

int main() {
  PrintHeader("Figure 11 - Logistic regression, per-iteration runtime",
              "Shark ~100x Hadoop(text), Hadoop(binary) in between");

  MlDataConfig data;
  auto session = MakeSharkSession(data.VirtualScale());
  if (!GenerateMlTable(session.get(), data).ok()) return 1;

  // A binary-SerDe copy of the dataset for the Hadoop (binary) bars.
  {
    auto rows = session->Sql2Rdd("SELECT * FROM ml_points");
    if (!rows.ok()) return 1;
    Schema schema = rows->schema;
    auto collected = session->context().Collect(rows->rdd);
    if (!collected.ok()) return 1;
    if (!session->CreateDfsTable("ml_points_bin", schema, *collected,
                                 data.blocks, DfsFormat::kBinary)
             .ok()) {
      return 1;
    }
  }

  auto hive_result = MakeHiveSession(session.get());
  if (!hive_result.ok()) return 1;
  auto hive = std::move(*hive_result);

  LogisticRegression::Options opts;
  opts.iterations = 10;
  opts.learning_rate = 1e-6;

  auto shark_points = PointsOf(session.get(), "ml_points", data.dimensions,
                               /*cache=*/true);
  if (!shark_points.ok()) return 1;
  auto shark_model = LogisticRegression::Train(
      &session->context(), *shark_points, data.dimensions, opts);
  if (!shark_model.ok()) return 1;

  auto hadoop_text_points =
      PointsOf(hive.get(), "ml_points", data.dimensions, /*cache=*/false);
  if (!hadoop_text_points.ok()) return 1;
  auto hadoop_text = LogisticRegression::Train(
      &hive->context(), *hadoop_text_points, data.dimensions, opts);
  if (!hadoop_text.ok()) return 1;

  auto hadoop_bin_points =
      PointsOf(hive.get(), "ml_points_bin", data.dimensions, /*cache=*/false);
  if (!hadoop_bin_points.ok()) return 1;
  auto hadoop_bin = LogisticRegression::Train(
      &hive->context(), *hadoop_bin_points, data.dimensions, opts);
  if (!hadoop_bin.ok()) return 1;

  double shark_iter = SteadyState(shark_model->iteration_seconds);
  double text_iter = SteadyState(hadoop_text->iteration_seconds);
  double bin_iter = SteadyState(hadoop_bin->iteration_seconds);

  PrintBars("fig11", "lr", "Logistic regression, per-iteration",
            {{"Shark", shark_iter, "cached after first pass"},
             {"Hadoop (binary)", bin_iter, "HDFS scan each iteration"},
             {"Hadoop (text)", text_iter, "HDFS scan each iteration"}},
            "paper: 0.96s / ~80s / ~120s");
  std::printf("\nfirst Shark iteration (includes load): %.1fs; "
              "speedups: %.0fx vs text, %.0fx vs binary (paper ~100x)\n",
              shark_model->iteration_seconds[0], Ratio(text_iter, shark_iter),
              Ratio(bin_iter, shark_iter));
  EmitBench("fig11", "lr.shark_first_iteration", "virtual_s",
            shark_model->iteration_seconds[0], "s", Clock::kVirtual);
  RunHostParallel(data, opts);
  return 0;
}
