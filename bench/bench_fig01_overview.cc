// Reproduces Figure 1: the paper's opening comparison — two real user
// queries (from the video-analytics warehouse) and one logistic regression
// iteration, Shark versus Hive/Hadoop on a 100-node cluster.
#include "bench/bench_common.h"
#include "ml/logistic_regression.h"
#include "ml/table_rdd.h"
#include "workloads/mldata.h"
#include "workloads/warehouse.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

int main() {
  PrintHeader("Figure 1 - Shark vs Hive/Hadoop overview",
              "real queries ~100x faster; logistic regression ~100x faster");

  // -- The two warehouse queries -------------------------------------------
  WarehouseConfig wh;
  auto session = MakeSharkSession(17000.0);
  if (!GenerateWarehouseTable(session.get(), wh).ok()) return 1;
  auto hive_result = MakeHiveSession(session.get());
  if (!hive_result.ok()) return 1;
  auto hive = std::move(*hive_result);
  if (!session->CacheTable("sessions").ok()) return 1;

  const std::string q1 = WarehouseQ1(7, "2012-06-11");
  const std::string q2 = WarehouseQ2();
  double q1_shark = TimedRun(session.get(), q1);
  double q1_hive = TimedRun(hive.get(), q1);
  double q2_shark = TimedRun(session.get(), q2);
  double q2_hive = TimedRun(hive.get(), q2);

  // -- One logistic regression iteration ------------------------------------
  MlDataConfig ml;
  auto ml_session = MakeSharkSession(ml.VirtualScale());
  if (!GenerateMlTable(ml_session.get(), ml).ok()) return 1;
  auto ml_hive_result = MakeHiveSession(ml_session.get());
  if (!ml_hive_result.ok()) return 1;
  auto ml_hive = std::move(*ml_hive_result);

  LogisticRegression::Options opts;
  opts.iterations = 3;
  opts.learning_rate = 1e-6;

  auto train = [&](SharkSession* s, bool cache) -> double {
    auto rows = s->Sql2Rdd("SELECT * FROM ml_points");
    if (!rows.ok()) std::exit(1);
    auto points = RowsToLabeledPoints(*rows, "label",
                                      MlFeatureColumns(ml.dimensions));
    if (!points.ok()) std::exit(1);
    if (cache) (*points)->Cache();
    auto model = LogisticRegression::Train(&s->context(), *points,
                                           ml.dimensions, opts);
    if (!model.ok()) std::exit(1);
    return model->iteration_seconds.back();  // steady-state iteration
  };
  double lr_shark = train(ml_session.get(), true);
  double lr_hadoop = train(ml_hive.get(), false);

  PrintBars("fig01", "q1", "User Query 1",
            {{"Shark", q1_shark, ""}, {"Hive", q1_hive, ""}},
            "paper: 1.0s vs ~80s");
  PrintBars("fig01", "q2", "User Query 2",
            {{"Shark", q2_shark, ""}, {"Hive", q2_hive, ""}},
            "paper: 0.7s vs ~55s");
  PrintBars("fig01", "lr", "Logistic regression (1 iteration)",
            {{"Shark", lr_shark, ""}, {"Hadoop", lr_hadoop, ""}},
            "paper: 0.96s vs ~110s");

  std::printf("\nspeedups: Q1 %.0fx, Q2 %.0fx, logistic regression %.0fx "
              "(paper: 40-100x)\n",
              Ratio(q1_hive, q1_shark), Ratio(q2_hive, q2_shark),
              Ratio(lr_hadoop, lr_shark));
  return 0;
}
