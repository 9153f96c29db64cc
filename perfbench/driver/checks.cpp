#include "checks.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>

#include "util/stats.hpp"

namespace perfbench {
namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_phase(const bvl::perf::PhaseResult& a, const bvl::perf::PhaseResult& b) {
  return same_bits(a.time, b.time) && same_bits(a.cpu_time, b.cpu_time) &&
         same_bits(a.io_time, b.io_time) && same_bits(a.net_time, b.net_time) &&
         same_bits(a.dynamic_power, b.dynamic_power) && same_bits(a.energy, b.energy) &&
         same_bits(a.avg_ipc, b.avg_ipc);
}

void check_quantiles(const char* what, const bvl::core::LatencySummary& s, Problems& problems) {
  if (!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max)) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s quantiles out of order: p50 %g p95 %g p99 %g max %g",
                  what, s.p50, s.p95, s.p99, s.max);
    problems.push_back(buf);
  }
}

}  // namespace

void check_shapes(const bvl::report::Report& rep, Problems& problems) {
  for (const auto& c : rep.checks) {
    if (!c.passed) problems.push_back(rep.id + ": shape check failed: " + c.name + " " + c.detail);
  }
}

void check_render_identical(const RenderPair& r, Problems& problems) {
  if (r.cold != r.warm) problems.push_back(r.group + ": warm text differs from cold text");
}

void check_decision(const DecisionPair& d, Problems& problems) {
  if (d.chosen.xeon_cores != d.expected.xeon_cores ||
      d.chosen.atom_cores != d.expected.atom_cores) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s: schedule_measured chose %d Xeon/%d Atom, argmin is %d/%d",
                  d.what.c_str(), d.chosen.xeon_cores, d.chosen.atom_cores,
                  d.expected.xeon_cores, d.expected.atom_cores);
    problems.push_back(buf);
  }
}

void check_bitwise_equal(const PricePair& p, Problems& problems) {
  if (!same_phase(p.a.map, p.b.map) || !same_phase(p.a.reduce, p.b.reduce) ||
      !same_phase(p.a.other, p.b.other)) {
    problems.push_back(p.what + ": " +
                       fmt("prices differ (%.17g s vs %.17g s)", p.a.total_time(),
                           p.b.total_time()));
  }
}

void check_service(const bvl::core::ServiceResult& r, Problems& problems) {
  if (r.measured_jobs <= 0) problems.push_back("service: no measured jobs");
  if (!bvl::approx_equal(r.little_l, r.little_lambda_w, 1e-6)) {
    problems.push_back(fmt("service: Little's law violated: L %.9g vs lambda*W %.9g", r.little_l,
                           r.little_lambda_w));
  }
  check_quantiles("service sojourn", r.sojourn, problems);
  check_quantiles("service queue delay", r.queue_delay, problems);
  for (const auto& c : r.classes) {
    if (!(c.slot_utilization >= 0 && c.slot_utilization <= 1)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: utilization %g outside [0, 1]", c.node_type.c_str(),
                    c.slot_utilization);
      problems.push_back(buf);
    }
  }
}

void check_batch(const BatchReplay& b, Problems& problems) {
  const bvl::core::MixResult& r = b.result;
  long replayed = 0;
  for (const auto& job : r.schedule) {
    for (const auto& [type, n] : job.tasks_by_type) replayed += n;
  }
  if (replayed != b.expected_tasks) {
    problems.push_back(fmt("batch: replayed %.0f tasks, traces hold %.0f",
                           static_cast<double>(replayed), static_cast<double>(b.expected_tasks)));
  }
  if (!r.fabric.modeled) {
    problems.push_back("batch: fabric was not modeled");
  } else {
    if (!bvl::approx_equal(r.fabric.bytes_injected, r.fabric.bytes_delivered, 1e-9)) {
      problems.push_back(fmt("batch: fabric injected %.17g B but delivered %.17g B",
                             r.fabric.bytes_injected, r.fabric.bytes_delivered));
    }
    double links = 0;
    for (double x : r.fabric.spine_link_bytes) links += x;
    if (r.fabric.spine_link_bytes.empty() ||
        !bvl::approx_equal(links, r.fabric.cross_rack_bytes, 1e-9)) {
      problems.push_back(fmt("batch: spine links carried %.17g B, cross-rack bytes %.17g B", links,
                             r.fabric.cross_rack_bytes));
    }
  }
  if (!r.power.active || r.power.cap_exceeded || r.power.peak_draw > b.cap_w) {
    problems.push_back(fmt("batch: rack draw peaked at %.17g W over the %.17g W cap",
                           r.power.peak_draw, b.cap_w));
  }
}

}  // namespace perfbench
