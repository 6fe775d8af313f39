// Calls into the engine that the workloads share: sessions on a simulated
// cluster, timed table loading, and a SELECT run through the engine's public
// pipeline one layer at a time so the traced run can time each layer.
#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "sql/session.h"
#include "util.h"

namespace perfbench {

/// A session on a fresh simulated cluster of `nodes` nodes (paper hardware,
/// Shark engine profile, fixed cluster seed).
std::unique_ptr<shark::SharkSession> NewSession(int nodes, int cores_per_node,
                                                double virtual_scale);

/// Host times of one table load, in ms, and the memstore bytes it added.
struct LoadTiming {
  double dfs_write_ms = 0.0;  // CreateDfsTable
  double cache_ms = 0.0;      // CacheTable
  double memstore_bytes = 0.0;
};

/// CreateDfsTable, then CacheTable unless `cache` is false; spans
/// "sim.dfs_write" and "columnar.load". Exits on failure.
LoadTiming LoadTable(shark::SharkSession* session, const std::string& name,
                     const shark::Schema& schema,
                     const std::vector<shark::Row>& rows, int blocks,
                     bool cache);

/// Host measurements of one set-up: a fresh cluster made ready to measure.
struct SetupTiming {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // process CPU, all threads
  double rows = 0.0;    // rows loaded into the memstore
  LoadTiming load;      // summed over the cached tables
  double analyze_ms = 0.0;
  double index_ms = 0.0;  // CREATE INDEX, where the workload has one
};

/// Medians over several set-ups: setup_s (CPU seconds), setup_wall_s,
/// ingest_rows_per_s, stats.analyze_ms, columnar.load_rows_per_s,
/// columnar.bytes_per_row and sim.dfs_write_rows_per_s.
void ReportSetups(const std::vector<SetupTiming>& setups, Report* report);

/// Host time of each layer of one SELECT, in microseconds.
struct SelectTiming {
  double parse_us = 0.0;
  double analyze_us = 0.0;
  double plan_us = 0.0;
  double execute_us = 0.0;
  double execute_cpu_us = 0.0;  // process CPU while Execute ran
  double total_us = 0.0;
};

/// The front-end half of LayeredSelect: parse, analyze and plan, without
/// executing. Fills the parse/analyze/plan fields of `timing`.
shark::Result<shark::PlanPtr> PlanSelect(shark::SharkSession* session,
                                         const std::string& sql,
                                         SelectTiming* timing);

/// Runs a SELECT as SharkSession::Sql does — ParseStatement,
/// Analyzer::AnalyzeSelect, PlanQuery, Executor::Execute — timing each step
/// under its own span ("sql.parse", "sql.analyze", "sql.plan",
/// "exec.execute").
shark::Result<shark::QueryResult> LayeredSelect(shark::SharkSession* session,
                                                const std::string& sql,
                                                SelectTiming* timing);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
