#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/json_writer.h"
#include "common/string_util.h"

namespace shark {

namespace {

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// Seconds with microsecond resolution — enough for virtual task timings,
/// and deterministic (the inputs are bit-identical across runs).
std::string Sec(double v) { return Fmt("%.6f", v); }

/// The shared escaper (common/json_writer.h), kept under the old local name.
std::string JsonEscape(const std::string& s) { return JsonWriter::Escape(s); }

}  // namespace

std::string WorkSummary(const TaskWork& w) {
  std::string out;
  auto add = [&](const char* name, uint64_t v, bool as_bytes) {
    if (v == 0) return;
    if (!out.empty()) out += " ";
    out += name;
    out += "=";
    out += as_bytes ? FormatBytes(v) : std::to_string(v);
  };
  add("disk_read", w.disk_read_bytes, true);
  add("seeks", w.disk_seeks, false);
  add("net_read", w.net_read_bytes, true);
  add("mem_read", w.mem_read_bytes, true);
  add("text_deser", w.text_deser_bytes, true);
  add("bin_deser", w.binary_deser_bytes, true);
  add("ser", w.ser_bytes, true);
  add("rows", w.rows_processed, false);
  add("hash", w.hash_records, false);
  add("sort", w.sort_records, false);
  add("disk_write", w.disk_write_bytes, true);
  add("dfs_write", w.dfs_write_bytes, true);
  add("flops", w.flops, false);
  if (w.cpu_seconds > 0.0) {
    if (!out.empty()) out += " ";
    out += "cpu=" + Sec(w.cpu_seconds) + "s";
  }
  return out.empty() ? "none" : out;
}

const char* TaskLocalityName(TaskLocality locality) {
  switch (locality) {
    case TaskLocality::kPreferred:
      return "preferred";
    case TaskLocality::kRemote:
      return "remote";
    case TaskLocality::kAny:
      return "any";
  }
  return "?";
}

const char* TaskEndName(TaskEnd end) {
  switch (end) {
    case TaskEnd::kCommitted:
      return "committed";
    case TaskEnd::kSuperseded:
      return "superseded";
    case TaskEnd::kNodeDeath:
      return "node-death";
    case TaskEnd::kMissingInput:
      return "missing-input";
  }
  return "?";
}

BucketSummary SummarizeBuckets(const std::vector<uint64_t>& bytes) {
  BucketSummary s;
  s.buckets = static_cast<int>(bytes.size());
  if (bytes.empty()) return s;
  std::vector<uint64_t> sorted = bytes;
  std::sort(sorted.begin(), sorted.end());
  s.min_bytes = sorted.front();
  s.p50_bytes = SortedQuantile(sorted, 0.5);
  s.p95_bytes = SortedQuantile(sorted, 0.95);
  s.max_bytes = sorted.back();
  for (uint64_t b : sorted) s.total_bytes += b;
  double mean =
      static_cast<double>(s.total_bytes) / static_cast<double>(sorted.size());
  s.skew = mean > 0.0 ? static_cast<double>(s.max_bytes) / mean : 0.0;
  s.culprit = static_cast<int>(std::max_element(bytes.begin(), bytes.end()) -
                               bytes.begin());
  return s;
}

void CacheCounters::Add(const CacheCounters& other) {
  hit_blocks += other.hit_blocks;
  hit_bytes += other.hit_bytes;
  miss_blocks += other.miss_blocks;
  miss_bytes += other.miss_bytes;
}

const StageTrace* QueryProfile::FindStage(const std::string& label_part) const {
  for (const StageTrace& s : stages) {
    if (s.label.find(label_part) != std::string::npos) return &s;
  }
  return nullptr;
}

std::map<int, CacheCounters> QueryProfile::CacheTotals() const {
  std::map<int, CacheCounters> totals;
  for (const StageTrace& s : stages) {
    for (const auto& [rdd, c] : s.cache_by_rdd) totals[rdd].Add(c);
  }
  return totals;
}

std::string QueryProfile::ToString() const {
  std::string out;
  out += "query profile: " + Sec(start_time) + "s .. " + Sec(end_time) +
         "s (" + Sec(duration()) + "s), " + std::to_string(stages.size()) +
         " stages, " + std::to_string(result_rows) + " result rows" +
         (query_id.empty() ? "" : " id=" + query_id) + "\n";
  for (const StageTrace& s : stages) {
    out += "  stage " + std::to_string(s.id);
    if (s.parent >= 0) out += " (recovery under " + std::to_string(s.parent) + ")";
    out += " [" + s.label + "]";
    if (s.is_map_stage) out += " shuffle=" + std::to_string(s.shuffle_id);
    out += " " + Sec(s.start_time) + "s .. " + Sec(s.end_time) + "s\n";
    out += "    tasks=" + std::to_string(s.tasks.size()) +
           " committed=" + std::to_string(s.committed()) +
           " speculative=" + std::to_string(s.speculative) +
           " failed=" + std::to_string(s.failed()) +
           " rows_out=" + std::to_string(s.rows_out) +
           " bytes_out=" + FormatBytes(s.bytes_out) + "\n";
    if (s.shuffle.buckets > 0) {
      out += "    shuffle buckets=" + std::to_string(s.shuffle.buckets) +
             " min=" + FormatBytes(s.shuffle.min_bytes) +
             " median=" + FormatBytes(s.shuffle.p50_bytes) +
             " max=" + FormatBytes(s.shuffle.max_bytes) +
             " total=" + FormatBytes(s.shuffle.total_bytes) + " skew=" +
             Fmt("%.2f", s.shuffle.skew) + "\n";
    }
    for (const auto& [rdd, c] : s.cache_by_rdd) {
      auto it = rdd_names.find(rdd);
      std::string name =
          it != rdd_names.end() ? it->second : "rdd " + std::to_string(rdd);
      out += "    cache[" + name + "] hit " + FormatBytes(c.hit_bytes) + "/" +
             std::to_string(c.hit_blocks) + " blocks, miss " +
             FormatBytes(c.miss_bytes) + "/" + std::to_string(c.miss_blocks) +
             " blocks\n";
    }
    out += "    work: " + WorkSummary(s.work) + "\n";
    if (s.spilled_tasks > 0 || s.disk_served_outputs > 0) {
      out += "    memory:";
      if (s.spilled_tasks > 0) {
        out += " spilled=" + FormatBytes(s.spill_bytes) + " in " +
               std::to_string(s.spill_partitions) + " partitions across " +
               std::to_string(s.spilled_tasks) + " tasks";
      }
      if (s.disk_served_outputs > 0) {
        if (s.spilled_tasks > 0) out += ",";
        out += " disk-served map outputs=" +
               std::to_string(s.disk_served_outputs) + "/" +
               std::to_string(s.committed());
      }
      out += "\n";
    }
    for (const TaskTrace& t : s.tasks) {
      out += "    task " + std::to_string(t.task) + "/p" +
             std::to_string(t.partition) + " attempt=" +
             std::to_string(t.attempt) + (t.speculative ? " spec" : "") +
             " node=" + std::to_string(t.node) + " core=" +
             std::to_string(t.core) + " " + TaskLocalityName(t.locality) +
             " queue=" + Sec(t.queue_time) + " launch=" + Sec(t.launch_time) +
             " run=" + Sec(t.run_start) + " finish=" + Sec(t.finish_time) +
             " rows=" + std::to_string(t.rows_out) + " " +
             TaskEndName(t.end) + "\n";
    }
    for (const std::string& e : s.events) out += "    event: " + e + "\n";
  }
  return out;
}

std::string QueryProfile::ToChromeTrace() const {
  // Timestamps are virtual microseconds; pid 0 is the driver (stage spans
  // and instant events), pid node+1 is a simulated node with one tid per
  // core. "X" = complete event, "i" = instant, "M" = metadata.
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };
  auto us = [](double sec) { return Fmt("%.3f", sec * 1e6); };

  std::map<int, int> node_cores;  // node -> max core seen
  for (const StageTrace& s : stages) {
    for (const TaskTrace& t : s.tasks) {
      if (t.node >= 0) {
        auto [it, inserted] = node_cores.emplace(t.node, t.core);
        if (!inserted) it->second = std::max(it->second, t.core);
      }
    }
  }
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
       "\"args\":{\"name\":\"driver\"}}");
  if (!query_id.empty()) {
    emit("{\"name\":\"query_id\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"query_id\":\"" + JsonEscape(query_id) + "\"}}");
  }
  for (const auto& [node, max_core] : node_cores) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(node + 1) + ",\"tid\":0,\"args\":{\"name\":\"node " +
         std::to_string(node) + "\"}}");
    for (int core = 0; core <= max_core; ++core) {
      emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(node + 1) + ",\"tid\":" + std::to_string(core) +
           ",\"args\":{\"name\":\"core " + std::to_string(core) + "\"}}");
    }
  }

  // Depth of each stage in the recovery-nesting tree -> driver-row tid.
  std::map<int, int> depth;
  for (const StageTrace& s : stages) {
    depth[s.id] = s.parent >= 0 ? depth[s.parent] + 1 : 0;
  }
  for (const StageTrace& s : stages) {
    emit("{\"name\":\"" + JsonEscape(s.label) + "\",\"cat\":\"stage\","
         "\"ph\":\"X\",\"ts\":" + us(s.start_time) + ",\"dur\":" +
         us(s.end_time - s.start_time) + ",\"pid\":0,\"tid\":" +
         std::to_string(depth[s.id]) + ",\"args\":{\"stage\":" +
         std::to_string(s.id) + ",\"tasks\":" + std::to_string(s.tasks.size()) +
         ",\"rows_out\":" + std::to_string(s.rows_out) +
         (s.is_map_stage ? ",\"shuffle\":" + std::to_string(s.shuffle_id) : "") +
         "}}");
    for (const TaskTrace& t : s.tasks) {
      if (t.node < 0) continue;
      emit("{\"name\":\"" + JsonEscape(s.label) + "#" +
           std::to_string(t.task) + "\",\"cat\":\"task\",\"ph\":\"X\","
           "\"ts\":" + us(t.run_start) + ",\"dur\":" +
           us(t.finish_time - t.run_start) + ",\"pid\":" +
           std::to_string(t.node + 1) + ",\"tid\":" + std::to_string(t.core) +
           ",\"args\":{\"stage\":" + std::to_string(s.id) + ",\"partition\":" +
           std::to_string(t.partition) + ",\"attempt\":" +
           std::to_string(t.attempt) + ",\"speculative\":" +
           (t.speculative ? "true" : "false") + ",\"locality\":\"" +
           TaskLocalityName(t.locality) + "\",\"end\":\"" + TaskEndName(t.end) +
           "\",\"rows\":" + std::to_string(t.rows_out) + ",\"queue_us\":" +
           us(t.launch_time - t.queue_time) + "}}");
    }
    for (const std::string& e : s.events) {
      // Events are prefixed "t=<seconds> "; recover the timestamp for the
      // instant marker (defaulting to the stage start) and drop the prefix
      // from the displayed name.
      double ts = s.start_time;
      std::string name = e;
      if (e.rfind("t=", 0) == 0) {
        ts = std::atof(e.c_str() + 2);
        size_t space = e.find(' ');
        if (space != std::string::npos) name = e.substr(space + 1);
      }
      emit("{\"name\":\"" + JsonEscape(name) + "\",\"cat\":\"event\","
           "\"ph\":\"i\",\"s\":\"g\",\"ts\":" + us(ts) +
           ",\"pid\":0,\"tid\":" + std::to_string(depth[s.id]) + "}");
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceCollector::BeginQuery(double now) {
  if (profile_ != nullptr) return false;  // nested query shares the profile
  profile_ = std::make_shared<QueryProfile>();
  profile_->query_id = query_id_;
  profile_->start_time = now;
  open_.clear();
  return true;
}

void TraceCollector::set_query_id(const std::string& id) {
  query_id_ = id;
  if (profile_ != nullptr) profile_->query_id = id;
}

std::shared_ptr<QueryProfile> TraceCollector::EndQuery(double now) {
  if (profile_ == nullptr) return nullptr;
  profile_->end_time = now;
  std::shared_ptr<QueryProfile> out = std::move(profile_);
  profile_ = nullptr;
  open_.clear();
  return out;
}

int TraceCollector::BeginStage(const StageRecord& stage) {
  if (profile_ == nullptr) return -1;
  StageTrace s;
  static_cast<StageRecord&>(s) = stage;
  s.id = static_cast<int>(profile_->stages.size());
  s.parent = open_.empty() ? -1 : open_.back();
  profile_->stages.push_back(std::move(s));
  open_.push_back(profile_->stages.back().id);
  return profile_->stages.back().id;
}

void TraceCollector::EndStage(int stage_id, const StageRecord& stage) {
  StageTrace* s = this->stage(stage_id);
  if (s == nullptr) return;
  static_cast<StageRecord&>(*s) = stage;
  // Recovery sub-stages close strictly inside their parent, so the open
  // stage being ended is always the innermost one.
  if (!open_.empty() && open_.back() == stage_id) open_.pop_back();
}

StageTrace* TraceCollector::stage(int stage_id) {
  if (profile_ == nullptr || stage_id < 0 ||
      static_cast<size_t>(stage_id) >= profile_->stages.size()) {
    return nullptr;
  }
  return &profile_->stages[static_cast<size_t>(stage_id)];
}

}  // namespace shark
