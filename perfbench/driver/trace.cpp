#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "json.hpp"
#include "util/stats.hpp"

namespace perfbench {

int Tracer::begin(std::string_view name, std::string_view tag) {
  SpanRecord s;
  s.name = std::string(name);
  s.tag = std::string(tag);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(s));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  // Scopes nest, so the span being closed is the innermost open one.
  open_.pop_back();
}

std::vector<int> Tracer::roots() const {
  // Parents are opened before their children, so one forward sweep
  // resolves every chain.
  std::vector<int> root(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    int p = spans_[i].parent;
    root[i] = p < 0 ? static_cast<int>(i) : root[static_cast<std::size_t>(p)];
  }
  return root;
}

std::map<std::string, double> Tracer::self_seconds_by_layer(std::string_view root) const {
  const std::vector<int> rootof = roots();
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.seconds();
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[static_cast<std::size_t>(rootof[i])].name != root) continue;
    const std::string& n = spans_[i].name;
    out[n.substr(0, n.find('.'))] += spans_[i].seconds() - child[i];
  }
  return out;
}

std::vector<double> Tracer::durations(std::string_view root, std::string_view name,
                                      std::string_view tag) const {
  const std::vector<int> rootof = roots();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.name != name || (!tag.empty() && s.tag != tag)) continue;
    if (spans_[static_cast<std::size_t>(rootof[i])].name != root) continue;
    out.push_back(s.seconds());
  }
  return out;
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        const std::string& provenance_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": %s, \"provenance\": %s, \"spans\": [\n",
               json_string(workload).c_str(), provenance_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": %s, \"tag\": %s, \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"workload\": %s}%s\n",
                 i, json_string(s.name).c_str(), json_string(s.tag).c_str(),
                 static_cast<double>(s.start_ns) * 1e-3, static_cast<double>(s.end_ns) * 1e-3,
                 s.parent, json_string(workload).c_str(), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0 : bvl::percentile(std::move(xs), 50);
}

CallStats call_stats(std::vector<double> xs) {
  CallStats st;
  st.n = xs.size();
  if (xs.empty()) return st;
  std::sort(xs.begin(), xs.end());
  st.median = median(xs);
  st.tail = st.median;
  const double n = static_cast<double>(xs.size());
  if (xs.size() < 40) return st;
  for (double q : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - q / 100.0) >= 10.0) {
      // Nearest-rank percentile.
      auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
      st.tail = xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
      st.tail_q = q;
      break;
    }
  }
  return st;
}

}  // namespace perfbench
