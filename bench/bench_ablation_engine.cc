// Ablation over the engine-profile knobs §7 identifies as the reasons
// MapReduce-based SQL engines are slow. Starting from the full Hadoop/Hive
// profile, each step enables one Shark behaviour (cumulatively) and re-runs
// the same aggregation, showing where the 20-100x actually comes from:
// task launch overhead, sorted on-disk shuffles, per-stage DFS
// materialization, and finally the columnar memory store.
#include "bench/bench_common.h"
#include "workloads/pavlo.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

namespace {

double RunWithProfile(SharkSession* reference, const EngineProfile& profile,
                      bool cache_table, const std::string& query) {
  ClusterConfig cfg = reference->context().config();
  cfg.profile = profile;
  auto ctx = std::make_shared<ClusterContext>(
      cfg, reference->shared_context()->shared_dfs());
  SharkSession session(ctx);
  ApplyHiveOptions(&session, HiveConfig{800, 0});  // tuned reducers throughout
  session.options().pde = profile.pde_enabled;
  if (MirrorDfsTables(reference, &session).ok() && cache_table &&
      profile.memory_store) {
    if (!session.CacheTable("uservisits").ok()) std::exit(1);
  }
  return TimedRun(&session, query);
}

}  // namespace

int main() {
  PrintHeader("Ablation - which engine changes buy the speedup (§7)",
              "each knob moves the Hadoop profile one step toward Shark");

  PavloConfig data;
  data.uservisits_rows = 1000000;
  data.uservisits_blocks = 400;
  auto session = MakeSharkSession(data.VirtualScale());
  if (!GeneratePavloTables(session.get(), data).ok()) return 1;

  // The join compiles to a multi-stage plan, so every knob — including
  // per-stage DFS materialization and map-output sorting — has work to cut.
  const std::string query = PavloJoinQuery();
  std::vector<BarRow> rows;

  EngineProfile p = EngineProfile::Hadoop();
  rows.push_back({"Hadoop/Hive baseline",
                  RunWithProfile(session.get(), p, false, query), ""});

  p.task_launch_overhead_sec = 0.005;
  p.heartbeat_interval_sec = 0.0;
  rows.push_back({"+ 5ms task launch", RunWithProfile(session.get(), p, false, query), ""});

  p.sort_before_shuffle = false;
  rows.push_back({"+ hash (unsorted) shuffle", RunWithProfile(session.get(), p, false, query), ""});

  p.shuffle_through_disk = false;
  rows.push_back({"+ in-memory shuffle", RunWithProfile(session.get(), p, false, query), ""});

  p.materialize_stages_to_dfs = false;
  rows.push_back({"+ general DAG (no HDFS hops)", RunWithProfile(session.get(), p, false, query), ""});

  p.pde_enabled = true;
  rows.push_back({"+ PDE reducer selection", RunWithProfile(session.get(), p, false, query), ""});

  p.memory_store = true;
  rows.push_back({"+ columnar memstore (Shark)", RunWithProfile(session.get(), p, true, query), ""});

  PrintBars("ablation", "join", "rankings-uservisits join under cumulative knobs",
            rows);
  std::printf("\nend-to-end: %.0fx from baseline to full Shark\n",
              Ratio(rows.front().seconds, rows.back().seconds));
  return 0;
}
