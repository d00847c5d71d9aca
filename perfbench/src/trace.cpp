#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

thread_local std::vector<std::int64_t> t_open;  // this thread's span stack
thread_local std::uint64_t t_run_id = 0;
thread_local std::uint32_t t_thread = ~0u;
std::atomic<std::uint32_t> g_next_thread{0};

std::uint32_t ThreadNumber() {
  if (t_thread == ~0u) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

/// Value at quantile `q` of sorted `v` (nearest rank).
double Quantile(const std::vector<double>& v, double q) {
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(i, v.size() - 1)];
}

}  // namespace

Tracer* Tracer::active_ = nullptr;

Tracer::Tracer() { active_ = this; }
Tracer::~Tracer() { active_ = nullptr; }

void SetRunId(std::uint64_t run_id) { t_run_id = run_id; }

std::int64_t Tracer::open(std::string name) {
  SpanRecord rec;
  rec.start = HostNow();
  rec.parent = t_open.empty() ? -1 : t_open.back();
  rec.run_id = t_run_id;
  rec.thread = ThreadNumber();
  std::lock_guard<std::mutex> lock(mu_);
  const auto index = static_cast<std::int64_t>(spans_.size());
  by_name_[name].push_back(spans_.size());
  rec.name = std::move(name);
  spans_.push_back(std::move(rec));
  t_open.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const double end = HostNow();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::map<std::string, SpanStats> Tracer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run on its thread and nest inside it, so the
  // part of a span its children cover is the sum of their durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, SpanStats> out;
  for (const auto& [name, indices] : by_name_) {
    SpanStats st;
    std::vector<double> d;
    d.reserve(indices.size());
    for (const std::size_t i : indices) {
      const double dur = spans_[i].end - spans_[i].start;
      d.push_back(dur);
      st.total_s += dur;
      st.self_s += dur - child_s[i];
    }
    std::sort(d.begin(), d.end());
    st.count = d.size();
    st.median_s = Quantile(d, 0.5);
    for (const auto& [label, q] :
         {std::pair{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9},
          {"p50", 0.5}}) {
      if (static_cast<double>(d.size()) * (1.0 - q) >= 10.0) {
        st.tail_label = label;
        st.tail_s = Quantile(d, q);
        break;
      }
    }
    out.emplace(name, st);
  }
  return out;
}

double Tracer::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0.0;
  double sum = 0.0;
  for (const std::size_t i : it->second) {
    sum += spans_[i].end - spans_[i].start;
  }
  return sum;
}

std::uint64_t Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.size();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%lld,\"run\":%llu,"
                 "\"thread\":%u}\n",
                 i, s.name.c_str(), s.start - t0, s.end - t0,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.run_id), s.thread);
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name) : tracer_(Tracer::active()) {
  if (tracer_ != nullptr) index_ = tracer_->open(name);
}

Span::Span(const std::string& name) : tracer_(Tracer::active()) {
  if (tracer_ != nullptr) index_ = tracer_->open(name);
}

Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

}  // namespace perfbench
