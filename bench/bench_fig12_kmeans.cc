// Reproduces Figure 12: per-iteration runtime of k-means clustering on the
// 100 GB synthetic dataset. K-means is more CPU-bound than logistic
// regression (k x D distance evaluations per point), so Shark's advantage
// over Hadoop shrinks to ~30x (§6.5).
#include "bench/bench_common.h"
#include "ml/kmeans.h"
#include "ml/table_rdd.h"
#include "workloads/mldata.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

namespace {

double SteadyState(const std::vector<double>& seconds) {
  double total = 0;
  for (size_t i = 1; i < seconds.size(); ++i) total += seconds[i];
  return total / static_cast<double>(seconds.size() - 1);
}

Result<RddPtr<MlVector>> VectorsOf(SharkSession* session,
                                   const std::string& table, int dims,
                                   bool cache) {
  SHARK_ASSIGN_OR_RETURN(TableRdd rows,
                         session->Sql2Rdd("SELECT * FROM " + table));
  SHARK_ASSIGN_OR_RETURN(RddPtr<MlVector> vectors,
                         RowsToVectors(rows, MlFeatureColumns(dims)));
  if (cache) vectors->Cache();
  return vectors;
}

}  // namespace

int main() {
  PrintHeader("Figure 12 - K-means clustering, per-iteration runtime",
              "Shark ~30x Hadoop(text): the workflow is more CPU-bound");

  MlDataConfig data;
  auto session = MakeSharkSession(data.VirtualScale());
  if (!GenerateMlTable(session.get(), data).ok()) return 1;
  {
    auto rows = session->Sql2Rdd("SELECT * FROM ml_points");
    if (!rows.ok()) return 1;
    auto collected = session->context().Collect(rows->rdd);
    if (!collected.ok()) return 1;
    if (!session->CreateDfsTable("ml_points_bin", rows->schema, *collected,
                                 data.blocks, DfsFormat::kBinary)
             .ok()) {
      return 1;
    }
  }
  auto hive_result = MakeHiveSession(session.get());
  if (!hive_result.ok()) return 1;
  auto hive = std::move(*hive_result);

  KMeans::Options opts;
  opts.k = 10;
  opts.iterations = 10;

  auto shark_vecs =
      VectorsOf(session.get(), "ml_points", data.dimensions, /*cache=*/true);
  if (!shark_vecs.ok()) return 1;
  auto shark_model =
      KMeans::Train(&session->context(), *shark_vecs, data.dimensions, opts);
  if (!shark_model.ok()) return 1;

  auto text_vecs =
      VectorsOf(hive.get(), "ml_points", data.dimensions, /*cache=*/false);
  if (!text_vecs.ok()) return 1;
  auto hadoop_text =
      KMeans::Train(&hive->context(), *text_vecs, data.dimensions, opts);
  if (!hadoop_text.ok()) return 1;

  auto bin_vecs =
      VectorsOf(hive.get(), "ml_points_bin", data.dimensions, /*cache=*/false);
  if (!bin_vecs.ok()) return 1;
  auto hadoop_bin =
      KMeans::Train(&hive->context(), *bin_vecs, data.dimensions, opts);
  if (!hadoop_bin.ok()) return 1;

  double shark_iter = SteadyState(shark_model->iteration_seconds);
  double text_iter = SteadyState(hadoop_text->iteration_seconds);
  double bin_iter = SteadyState(hadoop_bin->iteration_seconds);

  PrintBars("fig12", "kmeans", "K-means, per-iteration",
            {{"Shark", shark_iter, "cached after first pass"},
             {"Hadoop (binary)", bin_iter, ""},
             {"Hadoop (text)", text_iter, ""}},
            "paper: 4.1s / ~125s / ~185s");
  std::printf("\nspeedups: %.0fx vs text, %.0fx vs binary (paper ~30x); "
              "k-means iteration is %.1fx a logistic regression iteration "
              "for Shark (CPU-bound)\n",
              Ratio(text_iter, shark_iter), Ratio(bin_iter, shark_iter),
              shark_iter > 0 ? shark_iter / 0.96 : 0.0);
  return 0;
}
