// Multi-join star/chain benchmark for the cost-based optimizer and PDE
// mid-query re-planning. Star schema with a zipf-skewed fact table and four
// dimensions of very different selectivities:
//   naive        — forced written-order left-deep plan (big dims first).
//   cbo          — ANALYZE'd statistics + DP join reordering.
//   static best  — cbo order, re-planning disabled (oracle static plan).
//   stale static — statistics poisoned to look 1000x off, no re-planning.
//   stale+replan — same stale statistics; the first join's observed
//                  cardinality triggers re-enumeration of the remaining
//                  tables mid-query.
// Claims in bench/claims.json: cbo must beat naive by >= 2x on the star
// query, stale+replan must land within 1.5x of the best static plan and must
// actually re-plan.
#include <cstring>
#include <random>

#include "bench/bench_common.h"
#include "sql/stats/table_stats.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

namespace {

struct JoinsConfig {
  int sales_rows = 400000;
  int customers_rows = 100000;
  int products_rows = 10000;
  int stores_rows = 1000;
  int suppliers_rows = 5000;
  int regions_rows = 1000;
  int sales_blocks = 200;
  int dim_blocks = 16;
  int num_nodes = 100;
  double vscale = 40000.0;  // customers > broadcast threshold, small dims under
};

JoinsConfig SmokeConfig() {
  JoinsConfig c;
  c.sales_rows = 60000;
  c.customers_rows = 20000;
  c.products_rows = 2000;
  c.stores_rows = 200;
  c.suppliers_rows = 1000;
  c.sales_blocks = 40;
  c.dim_blocks = 8;
  c.num_nodes = 20;
  c.vscale = 10000.0;
  return c;
}

/// Zipf-ish key: a third of the fact rows hit the first few keys, the rest
/// are uniform — enough skew to exercise the heavy-hitter statistics and the
/// PDE skew handling without degenerating to a single bucket.
int64_t SkewedKey(std::mt19937* rng, int domain) {
  std::uniform_int_distribution<int> coin(0, 2);
  if (coin(*rng) == 0) {
    std::uniform_int_distribution<int> head(0, 7);
    return head(*rng) % domain;
  }
  std::uniform_int_distribution<int> uni(0, domain - 1);
  return uni(*rng);
}

bool Generate(SharkSession* s, const JoinsConfig& c) {
  std::mt19937 rng(7);
  Schema sales({{"cid", TypeKind::kInt64},
                {"pid", TypeKind::kInt64},
                {"sid", TypeKind::kInt64},
                {"uid", TypeKind::kInt64},
                {"amt", TypeKind::kDouble}});
  std::vector<Row> srows;
  srows.reserve(static_cast<size_t>(c.sales_rows));
  std::uniform_int_distribution<int> pid(0, c.products_rows - 1);
  std::uniform_int_distribution<int> sid(0, c.stores_rows - 1);
  std::uniform_int_distribution<int> uid(0, c.suppliers_rows - 1);
  for (int i = 0; i < c.sales_rows; ++i) {
    srows.push_back(Row({Value::Int64(SkewedKey(&rng, c.customers_rows)),
                         Value::Int64(pid(rng)), Value::Int64(sid(rng)),
                         Value::Int64(uid(rng)),
                         Value::Double((i % 1000) * 0.25)}));
  }
  if (!s->CreateDfsTable("sales", sales, srows, c.sales_blocks).ok())
    return false;

  Schema customers({{"ck", TypeKind::kInt64},
                    {"region", TypeKind::kInt64},
                    {"age", TypeKind::kInt64}});
  std::vector<Row> crows;
  std::uniform_int_distribution<int> region(0, c.regions_rows - 1);
  std::uniform_int_distribution<int> age(0, 99);
  for (int i = 0; i < c.customers_rows; ++i) {
    crows.push_back(
        Row({Value::Int64(i), Value::Int64(region(rng)), Value::Int64(age(rng))}));
  }
  if (!s->CreateDfsTable("customers", customers, crows, c.dim_blocks).ok())
    return false;

  Schema products({{"pk", TypeKind::kInt64}, {"price", TypeKind::kInt64}});
  std::vector<Row> prows;
  std::uniform_int_distribution<int> price(0, 999);
  for (int i = 0; i < c.products_rows; ++i) {
    prows.push_back(Row({Value::Int64(i), Value::Int64(price(rng))}));
  }
  if (!s->CreateDfsTable("products", products, prows, c.dim_blocks).ok())
    return false;

  Schema stores({{"sk", TypeKind::kInt64}, {"pop", TypeKind::kInt64}});
  std::vector<Row> trows;
  std::uniform_int_distribution<int> pop(0, 999);
  for (int i = 0; i < c.stores_rows; ++i) {
    trows.push_back(Row({Value::Int64(i), Value::Int64(pop(rng))}));
  }
  if (!s->CreateDfsTable("stores", stores, trows, c.dim_blocks).ok())
    return false;

  Schema suppliers({{"uk", TypeKind::kInt64}, {"rating", TypeKind::kInt64}});
  std::vector<Row> urows;
  std::uniform_int_distribution<int> rating(0, 9);
  for (int i = 0; i < c.suppliers_rows; ++i) {
    urows.push_back(Row({Value::Int64(i), Value::Int64(rating(rng))}));
  }
  if (!s->CreateDfsTable("suppliers", suppliers, urows, c.dim_blocks).ok())
    return false;

  Schema regions({{"rk", TypeKind::kInt64}, {"rpop", TypeKind::kInt64}});
  std::vector<Row> rrows;
  for (int i = 0; i < c.regions_rows; ++i) {
    rrows.push_back(Row({Value::Int64(i), Value::Int64(i * 20)}));
  }
  if (!s->CreateDfsTable("regions", regions, rrows, c.dim_blocks).ok())
    return false;

  for (const char* t :
       {"sales", "customers", "products", "stores", "suppliers", "regions"}) {
    if (!s->CacheTable(t).ok()) return false;
  }
  return true;
}

/// Written order puts the big unfiltered customers join first and the 1%
/// products filter last — the worst reasonable left-deep order, which is
/// exactly what forcing the written order executes.
const char* kStarQuery =
    "SELECT SUM(amt) FROM sales "
    "JOIN customers ON sales.cid = customers.ck "
    "JOIN suppliers ON sales.uid = suppliers.uk "
    "JOIN stores ON sales.sid = stores.sk "
    "JOIN products ON sales.pid = products.pk "
    "WHERE products.price < 10 AND stores.pop < 100 AND suppliers.rating < 2";

/// Chain: the only path to the 20-of-1000 regions filter runs through
/// customers; a good plan shrinks customers before touching the fact table.
const char* kChainQuery =
    "SELECT SUM(amt) FROM sales "
    "JOIN customers ON sales.cid = customers.ck "
    "JOIN regions ON customers.region = regions.rk "
    "WHERE regions.rpop < 400";

void AnalyzeAll(SharkSession* s) {
  for (const char* t :
       {"sales", "customers", "products", "stores", "suppliers", "regions"}) {
    MustRun(s, std::string("ANALYZE TABLE ") + t);
  }
}

/// Installs statistics claiming customers has a handful of rows — the
/// "table grew 1000x since the last ANALYZE" scenario.
void PoisonCustomers(SharkSession* s) {
  auto info = s->catalog().Get("customers");
  if (!info.ok()) std::exit(1);
  Schema schema({{"ck", TypeKind::kInt64},
                 {"region", TypeKind::kInt64},
                 {"age", TypeKind::kInt64}});
  std::vector<Row> tiny;
  for (int i = 0; i < 8; ++i) {
    tiny.push_back(
        Row({Value::Int64(i), Value::Int64(i % 4), Value::Int64(30)}));
  }
  (*info)->column_statistics = std::make_shared<const TableStatistics>(
      BuildStatisticsFromRows(schema, tiny));
}

struct ModeResult {
  double seconds = 0.0;
  int replans = 0;
};

enum class Stats { kNone, kFresh, kStale };

/// Each mode gets its own session so every plan sees the same cluster state:
/// a shared session would let earlier modes' resident shuffle buffers shrink
/// the task memory budget of whichever mode happens to run last.
ModeResult RunMode(const JoinsConfig& c, const std::string& sql, Stats stats,
                   bool left_deep, double replan_factor) {
  auto s = MakeSharkSession(c.vscale, c.num_nodes);
  if (!Generate(s.get(), c)) std::exit(1);
  if (stats != Stats::kNone) AnalyzeAll(s.get());
  if (stats == Stats::kStale) PoisonCustomers(s.get());
  s->options().force_left_deep = left_deep;
  s->options().replan_factor = replan_factor;
  QueryResult r = MustRun(s.get(), sql);
  return {r.metrics.virtual_seconds, r.metrics.replans};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  JoinsConfig cfg = smoke ? SmokeConfig() : JoinsConfig();
  const std::string bench = smoke ? "joins_smoke" : "joins";

  PrintHeader("Multi-join star/chain - cost-based join ordering + re-planning",
              "ANALYZE statistics + DP join reordering beat the written "
              "left-deep order; stale statistics recover via PDE re-planning");

  // --- star query -------------------------------------------------------
  ModeResult star_naive = RunMode(cfg, kStarQuery, Stats::kNone, true, 0.0);
  ModeResult star_cbo = RunMode(cfg, kStarQuery, Stats::kFresh, false, 4.0);
  ModeResult star_best = RunMode(cfg, kStarQuery, Stats::kFresh, false, 0.0);
  ModeResult star_stale_static =
      RunMode(cfg, kStarQuery, Stats::kStale, false, 0.0);
  ModeResult star_stale_replan =
      RunMode(cfg, kStarQuery, Stats::kStale, false, 4.0);

  PrintBars(bench, "star", "star: sales x 4 dims, selective filters",
            {{"CBO (analyzed)", star_cbo.seconds, ""},
             {"best static", star_best.seconds, ""},
             {"stale + replan", star_stale_replan.seconds,
              "replans=" + std::to_string(star_stale_replan.replans)},
             {"stale static", star_stale_static.seconds, ""},
             {"naive left-deep", star_naive.seconds, "written order"}});

  // --- chain query ------------------------------------------------------
  ModeResult chain_naive = RunMode(cfg, kChainQuery, Stats::kNone, true, 0.0);
  ModeResult chain_cbo = RunMode(cfg, kChainQuery, Stats::kFresh, false, 4.0);
  PrintBars(bench, "chain", "chain: sales -> customers -> regions",
            {{"CBO (analyzed)", chain_cbo.seconds, ""},
             {"naive left-deep", chain_naive.seconds, "written order"}});

  double star_speedup = Ratio(star_naive.seconds, star_cbo.seconds);
  double chain_speedup = Ratio(chain_naive.seconds, chain_cbo.seconds);
  double stale_overhead = Ratio(star_stale_replan.seconds, star_best.seconds);
  std::printf("\nspeedup cbo vs naive: star %.2fx, chain %.2fx\n", star_speedup,
              chain_speedup);
  std::printf("stale stats: static %.2fx of best, replan %.2fx of best "
              "(%d replan(s))\n",
              Ratio(star_stale_static.seconds, star_best.seconds),
              stale_overhead, star_stale_replan.replans);

  EmitBench(bench, "star.stale_replan", "replans", star_stale_replan.replans,
            "replans", Clock::kCount);
  return 0;
}
