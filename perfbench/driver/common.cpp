#include <sched.h>

#include <algorithm>
#include <cstdio>

#include "figures/figures.hpp"
#include "mapreduce/api.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

void note_failure(Outcome& o, const std::string& what) {
  ++o.failed;
  std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
}

namespace {

/// The CPUs the calling thread may run on (empty when unknown).
std::vector<int> allowed_cpus(cpu_set_t& mask) {
  std::vector<int> cpus;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
  return cpus;
}

void pin_calling_thread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

}  // namespace

PassLog run_passes(RunContext& ctx, int min_passes, const std::function<double()>& pass,
                   PassCpus cpus) {
  // Bounds the span file: an advisor pass records ~800 spans.
  constexpr std::size_t kMaxTracedPasses = 16;
  PassLog log;
  const bool traced_run = ctx.tracer.enabled();
  cpu_set_t initial;
  const std::vector<int> rotation =
      cpus == PassCpus::kRotate ? allowed_cpus(initial) : std::vector<int>{};
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_passes || seconds_between(start, Clock::now()) < ctx.seconds; ++i) {
    const bool traced = traced_run && i % 2 == 1 && log.traced_s.size() < kMaxTracedPasses;
    ctx.tracer.set_enabled(traced);
    // Untraced and traced passes each visit every CPU in turn.
    if (!rotation.empty()) {
      pin_calling_thread(rotation[static_cast<std::size_t>(traced_run ? i / 2 : i) %
                                  rotation.size()]);
    }
    const Clock::time_point t0 = Clock::now();
    double units = 0;
    {
      Scope root(ctx.tracer, "bench.pass");
      units = pass();
    }
    const double s = seconds_between(t0, Clock::now());
    if (traced) {
      log.traced_s.push_back(s);
    } else {
      log.untraced_s.push_back(s);
      log.untraced_units.push_back(units);
    }
  }
  if (!rotation.empty()) sched_setaffinity(0, sizeof initial, &initial);
  ctx.tracer.set_enabled(traced_run);
  return log;
}

void record_passes(const RunContext& ctx, const PassLog& log, Outcome& o) {
  o.pass_s = log.untraced_s;
  o.pass_units = log.untraced_units;
  if (!ctx.tracer.enabled() || log.traced_s.empty()) return;
  const double traced = static_cast<double>(log.traced_s.size());
  for (const auto& [layer, s] : ctx.tracer.self_seconds_by_layer("bench.pass")) {
    o.layer["self_s." + layer] = {s / traced, "s"};
  }
  o.layer["trace.overhead_pct"] = {
      100.0 * (median(log.traced_s) / median(log.untraced_s) - 1.0), "%"};
}

void record_setup_layers(const RunContext& ctx, bvl::core::Characterizer& ch,
                         const std::vector<bvl::core::RunSpec>& specs, Outcome& o) {
  namespace wl = bvl::wl;
  for (auto id : wl::all_workloads()) {
    double cold = 0;
    for (double s :
         ctx.tracer.durations("bench.setup", "characterizer.trace_cold", wl::short_name(id))) {
      cold += s;
    }
    o.layer["characterizer.trace_cold_s." + wl::short_name(id)] = {cold, "s"};
  }
  double maps = 0, reduces = 0, spills = 0, compares = 0;
  for (const auto& s : specs) {
    const bvl::mr::JobTrace& t = ch.trace(s);
    maps += static_cast<double>(t.num_map_tasks());
    reduces += static_cast<double>(t.num_reduce_tasks());
    bvl::mr::WorkCounters w = t.job_total();
    spills += w.spills;
    compares += w.compares;
  }
  o.layer["mapreduce.map_tasks"] = {maps, "count"};
  o.layer["mapreduce.reduce_tasks"] = {reduces, "count"};
  o.layer["mapreduce.spills"] = {spills, "count"};
  o.layer["mapreduce.compares"] = {compares, "count"};
}

void record_call_stats(Outcome& o, const std::string& name, const std::vector<double>& seconds,
                       double scale, const std::string& unit) {
  CallStats st = call_stats(seconds);
  o.layer[name] = {st.median * scale, unit};
  o.layer[name + ".tail"] = {st.tail * scale, unit};
  o.layer[name + ".tail_q"] = {st.tail_q, "%"};
  o.layer[name + ".n"] = {static_cast<double>(st.n), "count"};
}

std::vector<std::size_t> seeded_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  bvl::Pcg32 rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.uniform(0, i - 1)]);
  return p;
}

std::string hash_hex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bvl::mr::stable_hash(bytes)));
  return buf;
}

std::vector<LayerMetricDef> layer_metric_catalog() {
  std::vector<LayerMetricDef> c;
  auto add = [&c](std::string name, const char* unit, const char* better) {
    c.push_back({std::move(name), unit, better});
  };
  auto add_calls = [&](const std::string& name, const char* unit) {
    add(name, unit, "lower");
    add(name + ".tail", unit, "lower");
    add(name + ".tail_q", "%", "higher");
    add(name + ".n", "count", "higher");
  };

  // repro: figure groups cold (set-up) and warm (timed), rendering and
  // the on-disk trace cache the cold pass writes.
  bvl::report::FigureRegistry registry;
  bvl::figs::register_all_figures(registry);
  for (const auto& g : registry.groups()) add("figures.cold_s." + g, "s", "lower");
  for (const auto& g : registry.groups()) add("figures.warm_s." + g, "s", "lower");
  add("report.render_s", "s", "lower");
  add("char_cache.files_written", "count", "lower");
  add("char_cache.bytes_written", "B", "lower");

  // Set-up characterization (advisor, rack-service, rack-batch).
  for (auto id : bvl::wl::all_workloads()) {
    add("characterizer.trace_cold_s." + bvl::wl::short_name(id), "s", "lower");
  }
  add("mapreduce.map_tasks", "count", "lower");
  add("mapreduce.reduce_tasks", "count", "lower");
  add("mapreduce.spills", "count", "lower");
  add("mapreduce.compares", "count", "lower");

  // advisor: cached-trace lookups, the two pricers and the scheduler.
  add_calls("characterizer.trace_hit_us", "us");
  add_calls("perf.analytic.price_us", "us");
  add_calls("perf.event.price_us", "us");
  add("perf.points", "count", "higher");
  add_calls("scheduler.decision_ms", "ms");

  // rack-service: the open-stream replay on the event kernel.
  add("cluster_sim.service.replay_s", "s", "lower");
  add("sim.events", "count", "lower");
  add("sim.events_per_s", "1/s", "higher");
  add("cluster_sim.service.arrivals", "count", "higher");
  add("cluster_sim.service.tasks", "count", "higher");
  add("sim_s_per_host_s.service", "s/s", "higher");

  // rack-batch: the batch replay with fabric and power control, and
  // the same mix with those layers switched off one by one.
  add("cluster_sim.mix.replay_s", "s", "lower");
  add("cluster_sim.mix.tasks", "count", "higher");
  add("network.flows", "count", "lower");
  add("network.cross_rack_bytes", "B", "lower");
  add("power.level_changes", "count", "lower");
  add("sim_s_per_host_s.batch", "s/s", "higher");
  add("cluster_sim.mix.replay_s.plain", "s", "lower");
  add("cluster_sim.mix.replay_s.fabric", "s", "lower");
  add("cluster_sim.mix.replay_s.fabric_power", "s", "lower");

  // Every workload: self time per traced pass of each layer the
  // benchmark calls ("bench" is the benchmark's own code between
  // calls), and the recorder's overhead against untraced passes.
  for (const char* layer :
       {"bench", "figures", "report", "characterizer", "perf", "scheduler", "cluster_sim"}) {
    add(std::string("self_s.") + layer, "s", "lower");
  }
  add("trace.overhead_pct", "%", "lower");
  return c;
}

}  // namespace perfbench
