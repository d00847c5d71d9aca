// In-memory span recorder for the traced run.
//
// Spans wrap the calls the benchmark makes into each library layer.  A
// span records its name, host start/end, the span that was open on the
// same thread when it began (its parent) and a run id shared by every
// span of one attack instance, trial or event-loop wave.  Recording is
// off unless a Tracer is installed, so the untraced passes that produce
// the end-to-end metrics pay one branch per span site.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;  // host seconds
  double end = 0.0;
  std::int64_t parent = -1;  // index into the span list, -1 = root
  std::uint64_t run_id = 0;
  std::uint32_t thread = 0;
};

/// Aggregate of every span with one name.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  // total minus time covered by child spans
  double median_s = 0.0;
  /// Highest of p50/p90/p99/p99.9 with at least ten samples beyond it;
  /// `tail_label` is empty when there are fewer than 20 samples.
  std::string tail_label;
  double tail_s = 0.0;
};

class Tracer {
 public:
  /// Installs this tracer as the active one until destruction.
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] static Tracer* active() { return active_; }

  std::int64_t open(std::string name);
  void close(std::int64_t index);

  [[nodiscard]] std::map<std::string, SpanStats> stats() const;
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  /// Writes one JSON object per span, one per line.
  bool write_jsonl(const std::string& path) const;

 private:
  static Tracer* active_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
};

/// Run id stamped on spans opened by this thread from now on.
void SetRunId(std::uint64_t run_id);

/// RAII span; a no-op when no Tracer is active.
class Span {
 public:
  explicit Span(const char* name);
  explicit Span(const std::string& name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t index_ = -1;
};

}  // namespace perfbench
