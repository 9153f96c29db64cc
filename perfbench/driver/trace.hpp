// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed by the benchmark itself around each call
// it makes into a layer's public functions (the program under test is
// not instrumented). A span's layer is its name up to the first '.',
// so "perf.analytic.price" belongs to layer "perf". When the tracer is
// disabled a Scope costs one branch and records nothing, which is what
// the untraced passes of a traced run measure against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::string name;  ///< "<layer>.<operation>"
  std::string tag;   ///< figure group, app or variant the call was for
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;   ///< index of the enclosing span, -1 at the root

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Traced runs alternate enabled and disabled passes to measure the
  /// recorder's own overhead.
  void set_enabled(bool on) { enabled_ = on; }

  int begin(std::string_view name, std::string_view tag);
  void end(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time (duration minus the time covered by direct children),
  /// summed per layer over the spans below root spans named `root`.
  std::map<std::string, double> self_seconds_by_layer(std::string_view root) const;

  /// Durations of the spans named `name` below root spans named `root`,
  /// restricted to `tag` when it is non-empty.
  std::vector<double> durations(std::string_view root, std::string_view name,
                                std::string_view tag = {}) const;

  /// Writes the spans as JSON: name, tag, start/end in microseconds
  /// from the first span, parent index and the workload. Returns false
  /// when the file cannot be written.
  bool write_json(const std::string& path, const std::string& workload,
                  const std::string& provenance_json) const;

 private:
  bool enabled_;
  /// Index of each span's outermost ancestor (itself at the root).
  std::vector<int> roots() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span: records [construction, destruction) when the tracer is on.
class Scope {
 public:
  Scope(Tracer& t, std::string_view name, std::string_view tag = {})
      : tracer_(t), id_(t.enabled() ? t.begin(name, tag) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Median of a sample (0 for an empty one).
double median(std::vector<double> xs);

/// Per-call timing summary: the median plus the highest percentile of
/// the ladder 99.9/99/95/90/75 that still has at least ten samples
/// beyond it. Below forty samples there is no such tail, and the
/// median is reported in its place with q = 50.
struct CallStats {
  double median = 0;
  double tail = 0;
  double tail_q = 50;
  std::size_t n = 0;
};
CallStats call_stats(std::vector<double> xs);

}  // namespace perfbench
