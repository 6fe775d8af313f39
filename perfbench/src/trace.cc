#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThreadState {
  int thread = -1;
  std::vector<int> open;  // indices of this thread's open spans
};

thread_local ThreadState t_state;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const char* name, uint64_t op) {
  if (t_state.thread < 0) t_state.thread = next_thread_.fetch_add(1);
  SpanRecord rec;
  rec.name = name;
  rec.parent = t_state.open.empty() ? -1 : t_state.open.back();
  rec.thread = t_state.thread;
  std::lock_guard<std::mutex> lock(mu_);
  rec.op = op != 0 || rec.parent < 0 ? op : spans_[rec.parent].op;
  rec.start_us = NowUs();
  spans_.push_back(std::move(rec));
  int index = static_cast<int>(spans_.size()) - 1;
  t_state.open.push_back(index);
  return index;
}

void Tracer::End(int index) {
  double now = NowUs();
  if (!t_state.open.empty() && t_state.open.back() == index) {
    t_state.open.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_us = now;
}

std::map<std::string, SpanTotals> Tracer::Totals(
    const std::string& root_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = spans_.size();
  std::vector<std::vector<size_t>> children(n);
  for (size_t i = 0; i < n; ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < n; ++i) {
    size_t root = i;
    while (spans_[root].parent >= 0) {
      root = static_cast<size_t>(spans_[root].parent);
    }
    if (spans_[root].name.compare(0, root_prefix.size(), root_prefix) != 0) {
      continue;
    }
    const SpanRecord& s = spans_[i];
    double dur = s.end_us - s.start_us;
    // Self time: the span's duration minus the union of its children's
    // intervals (clipped to the span).
    std::vector<std::pair<double, double>> iv;
    for (size_t c : children[i]) {
      iv.emplace_back(std::max(spans_[c].start_us, s.start_us),
                      std::min(spans_[c].end_us, s.end_us));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_us += dur;
    t.self_us += dur - covered;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.thread,
                 s.start_us - origin, s.end_us - s.start_us, i, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
