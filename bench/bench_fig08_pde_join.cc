// Reproduces Figure 8: run-time join strategy selection via partial DAG
// execution. The query joins lineitem with supplier under a selective UDF
// whose selectivity no static optimizer can know (§3.1.1/§6.3.2).
//   Static           — compile-time plan: shuffle join of both big tables.
//   Adaptive         — pre-shuffle both, observe the filtered supplier is
//                      tiny, switch to a map join (wasted lineitem wave).
//   Static+Adaptive  — static hints say supplier is the likely-small side;
//                      pre-shuffle only it, then broadcast. ~3x over static.
#include <cstring>

#include "bench/bench_common.h"
#include "workloads/tpch.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

namespace {

Status RegisterSelectiveUdf(SharkSession* session) {
  // Highly selective, like the paper's (1000 of 10M suppliers): keeps about
  // 1 in 2000 addresses, so the filtered supplier side is broadcastable while
  // its unfiltered table is far too big for a static optimizer to risk it.
  return session->udfs().Register(
      "SOME_UDF",
      {[](const std::vector<Value>& args) {
         return Value::Bool(args[0].Hash() % 2000 == 0);
       },
       TypeKind::kBool, 6.0});
}

/// Runs the query under one join strategy; returns its virtual seconds and
/// sets the host wall-clock the query took.
double RunWith(SharkSession* session, JoinOptimization mode,
               std::string* strategy, double* host_ms) {
  session->options().join_opt = mode;
  WallTimer timer;
  QueryResult r = MustRun(session, TpchUdfJoinQuery());
  *host_ms = timer.ElapsedMs();
  *strategy = r.metrics.join_strategy;
  return r.metrics.virtual_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI-sized run (shrunken tables, 20 nodes) with identical query
  // shapes; its BENCH lines feed tools/bench_gate and its timeline file the
  // schema validation. --metrics-out <path> overrides the timeline file.
  // --no-vectorized: force the scalar row path; the virtual seconds must
  // still match the pins in bench/claims.json (CI runs the smoke both ways
  // to prove the batch path never moves virtual time).
  bool smoke = false;
  bool vectorized = true;
  std::string metrics_out = "fig08_metrics.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-vectorized") == 0) {
      vectorized = false;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    }
  }

  PrintHeader("Figure 8 - Join strategies chosen by optimizers",
              "static+adaptive (PDE with static hints) ~3x faster than a "
              "static shuffle join");

  TpchConfig data;
  int num_nodes = 100;
  if (smoke) {
    data.lineitem_rows = 60000;
    data.supplier_rows = 4000;
    data.orders_rows = 15000;
    data.lineitem_blocks = 80;
    data.supplier_blocks = 8;
    data.orders_blocks = 10;
    num_nodes = 20;
  }
  double vscale = data.VirtualScaleFor(6e9);  // 1TB point, as in the paper
  auto session = MakeSharkSession(vscale, num_nodes);
  session->options().vectorized = vectorized;
  if (!GenerateTpchTables(session.get(), data).ok()) return 1;
  if (!RegisterSelectiveUdf(session.get()).ok()) return 1;
  if (!session->CacheTable("lineitem").ok()) return 1;
  if (!session->CacheTable("supplier").ok()) return 1;

  std::string s_static, s_adaptive, s_both;
  double ms_static = 0.0, ms_adaptive = 0.0, ms_both = 0.0;
  double t_static = RunWith(session.get(), JoinOptimization::kStatic,
                            &s_static, &ms_static);
  double t_adaptive = RunWith(session.get(), JoinOptimization::kAdaptive,
                              &s_adaptive, &ms_adaptive);
  double t_both = RunWith(session.get(), JoinOptimization::kStaticAdaptive,
                          &s_both, &ms_both);

  const std::string bench = smoke ? "fig08_smoke" : "fig08";
  PrintBars(bench, "pde_join",
            "lineitem JOIN supplier WHERE SOME_UDF(S_ADDRESS)",
            {{"Static + Adaptive", t_both, s_both, ms_both},
             {"Adaptive", t_adaptive, s_adaptive, ms_adaptive},
             {"Static", t_static, s_static, ms_static}},
            "paper: ~35s / ~65s / ~105s");
  std::printf("\nimprovement over static: adaptive %.2fx, "
              "static+adaptive %.2fx (paper: ~3x)\n",
              Ratio(t_static, t_adaptive), Ratio(t_static, t_both));

  EmitMetricsJson(bench, "pde_join", session->context(), metrics_out);
  return 0;
}
