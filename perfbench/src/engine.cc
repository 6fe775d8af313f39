#include "engine.h"

#include "sql/analyzer.h"
#include "sql/parser.h"
#include "sql/planner/planner.h"
#include "sql/stats/plan_cost.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

using shark::QueryResult;
using shark::Result;

std::unique_ptr<shark::SharkSession> NewSession(int nodes, int cores_per_node,
                                                double virtual_scale) {
  shark::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.hardware.cores_per_node = cores_per_node;
  cfg.profile = shark::EngineProfile::Shark();
  cfg.virtual_data_scale = virtual_scale;
  cfg.seed = 42;
  return std::make_unique<shark::SharkSession>(
      std::make_shared<shark::ClusterContext>(cfg));
}

LoadTiming LoadTable(shark::SharkSession* session, const std::string& name,
                     const shark::Schema& schema,
                     const std::vector<shark::Row>& rows, int blocks,
                     bool cache) {
  LoadTiming t;
  double start = NowMs();
  {
    Span span("sim.dfs_write");
    MustOk(session->CreateDfsTable(name, schema, rows, blocks),
           "CreateDfsTable " + name);
  }
  t.dfs_write_ms = NowMs() - start;
  if (!cache) return t;
  double before = static_cast<double>(
      session->context().block_manager().TotalUsedBytes());
  start = NowMs();
  {
    Span span("columnar.load");
    MustOk(session->CacheTable(name), "CacheTable " + name);
  }
  t.cache_ms = NowMs() - start;
  t.memstore_bytes =
      static_cast<double>(session->context().block_manager().TotalUsedBytes()) -
      before;
  return t;
}

void ReportSetups(const std::vector<SetupTiming>& setups, Report* report) {
  std::vector<double> cpu_s, wall_s, ingest, load, dfs, bytes, analyze;
  for (const SetupTiming& t : setups) {
    cpu_s.push_back(t.cpu_ms / 1e3);
    wall_s.push_back(t.wall_ms / 1e3);
    ingest.push_back(t.rows / ((t.load.dfs_write_ms + t.load.cache_ms) / 1e3));
    load.push_back(t.rows / (t.load.cache_ms / 1e3));
    dfs.push_back(t.rows / (t.load.dfs_write_ms / 1e3));
    bytes.push_back(t.load.memstore_bytes / t.rows);
    analyze.push_back(t.analyze_ms);
  }
  const auto n = static_cast<int64_t>(setups.size());
  report->Set("setup_s", Median(cpu_s), "s", n);
  report->Set("setup_wall_s", Median(wall_s), "s", n);
  report->Set("ingest_rows_per_s", Median(ingest), "rows/s", n);
  report->Set("stats.analyze_ms", Median(analyze), "ms", n);
  report->Set("columnar.load_rows_per_s", Median(load), "rows/s", n);
  report->Set("columnar.bytes_per_row", Median(bytes), "B", n);
  report->Set("sim.dfs_write_rows_per_s", Median(dfs), "rows/s", n);
}

Result<shark::PlanPtr> PlanSelect(shark::SharkSession* session,
                                  const std::string& sql,
                                  SelectTiming* timing) {
  double t0 = NowMs();
  shark::Statement stmt;
  {
    Span span("sql.parse");
    SHARK_ASSIGN_OR_RETURN(stmt, shark::ParseStatement(sql));
  }
  if (stmt.kind != shark::StatementKind::kSelect) {
    return shark::Status::InvalidArgument("expected a SELECT: " + sql);
  }
  double t1 = NowMs();
  shark::PlanPtr plan;
  {
    Span span("sql.analyze");
    shark::Analyzer analyzer(&session->catalog(), &session->udfs());
    SHARK_ASSIGN_OR_RETURN(plan, analyzer.AnalyzeSelect(*stmt.select));
  }
  double t2 = NowMs();
  {
    // The same planner inputs SharkSession builds for its own SELECTs.
    Span span("sql.plan");
    shark::ClusterContext& ctx = session->context();
    const shark::ExecOptions& opts = session->options();
    shark::PlanCostEnv env;
    env.catalog = &session->catalog();
    env.hardware = ctx.cost_model().hardware();
    env.profile = ctx.profile();
    env.virtual_scale = ctx.virtual_scale();
    env.total_cores = ctx.cluster().total_cores();
    env.broadcast_threshold_bytes = opts.broadcast_threshold_bytes;
    shark::PlannerOptions popts;
    popts.cbo = opts.cbo;
    popts.force_left_deep = opts.force_left_deep;
    popts.dp_max_relations = opts.dp_max_relations;
    popts.use_indexes = opts.use_indexes;
    plan = shark::PlanQuery(std::move(plan), &session->udfs(), env, popts);
  }
  double t3 = NowMs();
  timing->parse_us = (t1 - t0) * 1e3;
  timing->analyze_us = (t2 - t1) * 1e3;
  timing->plan_us = (t3 - t2) * 1e3;
  return plan;
}

Result<QueryResult> LayeredSelect(shark::SharkSession* session,
                                  const std::string& sql,
                                  SelectTiming* timing) {
  double t0 = NowMs();
  SHARK_ASSIGN_OR_RETURN(shark::PlanPtr plan, PlanSelect(session, sql, timing));
  double t3 = NowMs();
  double cpu0 = CpuMs();
  Result<QueryResult> result = shark::Status::Internal("not executed");
  {
    Span span("exec.execute");
    shark::Executor executor(&session->context(), &session->catalog(),
                             &session->udfs(), session->options());
    result = executor.Execute(plan);
  }
  double t4 = NowMs();
  timing->execute_cpu_us = (CpuMs() - cpu0) * 1e3;
  timing->execute_us = (t4 - t3) * 1e3;
  timing->total_us = (t4 - t0) * 1e3;
  return result;
}

}  // namespace perfbench
