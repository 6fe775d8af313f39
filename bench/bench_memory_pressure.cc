// Memory-pressure sweep: runs the same join + aggregation while the dataset
// grows from 0.25x to 4x of aggregate cluster memory. Shark caches the fact
// table; past 1x the block cache evicts, operator working sets spill to
// simulated local disk (external hash aggregation / sort-merge) and shuffle
// map outputs flip to disk-based serving — runtime should rise smoothly with
// pressure instead of hitting a cliff or aborting (graceful degradation).
// Hive runs the same warehouse from disk as the baseline.
//
// Every bar is a BENCH line labelled `<engine>.<pressure>x_memory`; the same
// labels carry the spill counters of that run.
#include <cstring>

#include "bench/bench_common.h"
#include "common/random.h"
#include "hive/hive_engine.h"
#include "relation/row.h"

using namespace shark;        // NOLINT(build/namespaces)
using namespace shark::bench; // NOLINT(build/namespaces)

namespace {

struct Dataset {
  Schema schema;
  std::vector<Row> rows;
};

/// Fact table: sales(region, product, units, price). `products` distinct
/// join keys so the dimension join fans out realistically.
Dataset MakeSales(int n, int products, uint64_t seed) {
  Random rng(seed);
  Dataset d;
  d.schema = Schema({{"region", TypeKind::kString},
                     {"product", TypeKind::kString},
                     {"units", TypeKind::kInt64},
                     {"price", TypeKind::kDouble}});
  const char* regions[] = {"north", "south", "east", "west"};
  for (int i = 0; i < n; ++i) {
    d.rows.push_back(Row(
        {Value::String(regions[rng.Uniform(4)]),
         Value::String("product-" + std::to_string(rng.Uniform(
                                        static_cast<uint32_t>(products)))),
         Value::Int64(rng.UniformInt(1, 40)),
         Value::Double(static_cast<double>(rng.UniformInt(100, 9999)) /
                       100.0)}));
  }
  return d;
}

/// Dimension table: products(product, category).
Dataset MakeProducts(int products) {
  Dataset d;
  d.schema = Schema(
      {{"product", TypeKind::kString}, {"category", TypeKind::kString}});
  const char* categories[] = {"tools", "fasteners", "art", "misc"};
  for (int i = 0; i < products; ++i) {
    d.rows.push_back(Row({Value::String("product-" + std::to_string(i)),
                          Value::String(categories[i % 4])}));
  }
  return d;
}

uint64_t RealBytes(const Dataset& d) {
  uint64_t total = 0;
  for (const Row& r : d.rows) total += ApproxSizeOf(r);
  return total;
}

/// Spill/degradation counters summed over every stage of a profile.
struct SpillStats {
  uint64_t spill_bytes = 0;
  uint64_t spill_partitions = 0;
  int spilled_tasks = 0;
  int disk_served_outputs = 0;
};

SpillStats CollectSpills(const QueryResult& result) {
  SpillStats s;
  if (result.profile == nullptr) return s;
  for (const StageTrace& st : result.profile->stages) {
    s.spill_bytes += st.spill_bytes;
    s.spill_partitions += st.spill_partitions;
    s.spilled_tasks += st.spilled_tasks;
    s.disk_served_outputs += st.disk_served_outputs;
  }
  return s;
}

void EmitSpills(const std::string& bench, const std::string& label,
                const SpillStats& s) {
  EmitBench(bench, label, "spill_bytes", static_cast<double>(s.spill_bytes),
            "B", Clock::kCount);
  EmitBench(bench, label, "spill_partitions",
            static_cast<double>(s.spill_partitions), "partitions",
            Clock::kCount);
  EmitBench(bench, label, "spilled_tasks", s.spilled_tasks, "tasks",
            Clock::kCount);
  EmitBench(bench, label, "disk_served_outputs", s.disk_served_outputs,
            "outputs", Clock::kCount);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  PrintHeader("Memory pressure - join + aggregation, 0.25x..4x of memory",
              "graceful degradation: runtime rises smoothly as working sets "
              "spill and shuffle outputs flip to disk; no cliff, no abort");

  const std::string bench = smoke ? "memory_pressure_smoke" : "memory_pressure";
  const int nodes = smoke ? 4 : 10;
  const int fact_rows = smoke ? 3000 : 40000;
  const int products = smoke ? 40 : 400;
  const int partitions = smoke ? 8 : 40;
  const std::vector<double> pressures =
      smoke ? std::vector<double>{0.5, 2.0}
            : std::vector<double>{0.25, 0.5, 1.0, 2.0, 4.0};

  Dataset sales = MakeSales(fact_rows, products, 4242);
  Dataset dims = MakeProducts(products);
  const uint64_t real_bytes = RealBytes(sales) + RealBytes(dims);
  const uint64_t cluster_mem =
      static_cast<uint64_t>(nodes) * HardwareModel().mem_bytes_per_node;

  const std::string query =
      "SELECT d.category, s.region, COUNT(*), SUM(s.units), AVG(s.price) "
      "FROM sales s JOIN products d ON s.product = d.product "
      "GROUP BY d.category, s.region";

  std::vector<BarRow> shark_rows;
  std::vector<BarRow> hive_rows;
  std::string analyzed_at_max;

  for (double pressure : pressures) {
    // Pick the virtual scale so that the dataset's virtual bytes are
    // `pressure` times the aggregate cluster memory. The block-cache and
    // memory-manager budgets shrink by the same factor (context.cc), so the
    // simulated ratio dataset/memory equals `pressure` exactly.
    double scale = pressure * static_cast<double>(cluster_mem) /
                   static_cast<double>(real_bytes);
    auto session = MakeSharkSession(scale, nodes);
    if (!session->CreateDfsTable("sales", sales.schema, sales.rows, partitions)
             .ok() ||
        !session->CreateDfsTable("products", dims.schema, dims.rows, 4).ok()) {
      return 1;
    }

    auto hive_result = MakeHiveSession(session.get());
    if (!hive_result.ok()) return 1;
    auto hive = std::move(*hive_result);

    if (!session->CacheTable("sales").ok()) return 1;
    QueryResult shark_run = MustRun(session.get(), query);
    SpillStats shark_spills = CollectSpills(shark_run);
    double shark_s = shark_run.metrics.virtual_seconds;

    QueryResult hive_run = MustRun(hive.get(), query);
    SpillStats hive_spills = CollectSpills(hive_run);
    double hive_s = hive_run.metrics.virtual_seconds;

    char label[64];
    std::snprintf(label, sizeof(label), "%.2fx memory", pressure);
    char note[128];
    std::snprintf(note, sizeof(note), "spilled %d tasks, disk outputs %d",
                  shark_spills.spilled_tasks,
                  shark_spills.disk_served_outputs);
    shark_rows.push_back({label, shark_s, note});
    hive_rows.push_back({label, hive_s, ""});

    EmitSpills(bench, "shark." + Slug(label), shark_spills);
    EmitSpills(bench, "hive." + Slug(label), hive_spills);

    // Keep the EXPLAIN ANALYZE rendering from the highest-pressure point to
    // show the spill annotations (reservation failures made visible).
    if (pressure == pressures.back()) {
      QueryResult analyzed = MustRun(session.get(), "EXPLAIN ANALYZE " + query);
      for (const Row& row : analyzed.rows) {
        if (!row.fields.empty()) {
          analyzed_at_max += row.fields[0].str() + "\n";
        }
      }
    }
  }

  PrintBars(bench, "shark", "Shark (cached fact table)", shark_rows,
            "rises smoothly past 1x as spills kick in");
  PrintBars(bench, "hive", "Hive (disk warehouse)", hive_rows,
            "flat-ish: always disk-resident, always slower");

  if (!analyzed_at_max.empty()) {
    std::printf("\n== EXPLAIN ANALYZE at %.2fx memory ==\n%s",
                pressures.back(), analyzed_at_max.c_str());
  }
  return 0;
}
