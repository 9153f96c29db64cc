// The two rack replays on the discrete-event kernel.
//
// rack-service: a long open job stream on a large iso-power hetero
// rack, fabric and power plan off, offered load at 0.7 of the measured
// saturation rate (0.91 at the diurnal peak). The
// event queue, the indexed candidate source and the fair-share queues
// work at scale; the fabric, power and engine layers do nothing.
//
// rack-batch: 204 jobs (seventeen round-robin cycles of twelve app x
// size kinds) released at t=0, three starting kinds a third of the
// cycle apart per pass (the seed picks the first one), on the
// hetero rack striped over two racks, with a modeled 4-way multipath
// spine at 10 GbE, rack_local placement and the ondemand governor
// under a rack cap. The same dispatch layer as
// rack-service sees a finite job set; the fabric and power ticks do
// real work, and the dispatch loop's pending-task rescan dominates.
//
// Set-up characterizes every job spec of the workload (the six apps)
// with a fresh Characterizer, so the timed replays only read cached
// traces. It is repeated and its median reported, since one set-up
// takes a few seconds.
#include <algorithm>
#include <memory>
#include <optional>
#include <cstdio>
#include <set>

#include "checks.hpp"
#include "core/cluster_sim.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bvl;

constexpr int kSetupRepeats = 2;

// rack-service: iso-power hetero rack sized by its all-big twin, fed
// at a fixed share of the rate it saturates at. `--service-sweep`
// measures that rate on a flat stream: 0.75 jobs/s is the lowest rate
// of its ladder at which every slot of both classes is busy over the
// whole window and the queue delay grows with the horizon (0.70: Xeon
// 0.97-0.98, Atom 0.998 busy). The stream's baseline is kServiceLoad
// of it, so the diurnal peak offers 0.91 of it.
constexpr int kServiceBigNodes = 32;
constexpr double kServiceSaturationRate = 0.75;  // jobs/s, flat stream
constexpr double kServiceLoad = 0.7;
constexpr double kServiceAmplitude = 0.3;
constexpr double kServiceHorizon = 24 * 3600.0;
constexpr double kServiceWarmup = 3600.0;
constexpr double kSweepHorizon = 6 * 3600.0;

// rack-batch: release cycles of the twelve job kinds, orders per
// pass, the rack cap and the spine.
constexpr int kBatchCycles = 17;  // 204 jobs
// Replays per pass, their starting kinds spread evenly over the cycle,
// so a pass covers three of the cycle's rotations rather than one.
constexpr int kBatchOrders = 3;
constexpr double kBatchCapW = 700.0;
constexpr double kBatchSpineOversub = 8.0;

core::TenantWorkload tenant(const char* name, double weight, double arrival_share,
                           std::vector<core::JobRequest> mix) {
  core::TenantWorkload t;
  t.tenant.name = name;
  t.tenant.weight = weight;
  t.tenant.arrival_share = arrival_share;
  t.mix = std::move(mix);
  return t;
}

std::vector<core::TenantWorkload> service_tenants() {
  using wl::WorkloadId;
  return {tenant("analytics", 2.0, 2.0,
                 {{WorkloadId::kWordCount, 1 * GB},
                  {WorkloadId::kGrep, 1 * GB},
                  {WorkloadId::kNaiveBayes, 1 * GB}}),
          tenant("etl", 1.0, 1.0, {{WorkloadId::kSort, 1 * GB}, {WorkloadId::kTeraSort, 1 * GB}}),
          tenant("mining", 1.0, 0.5, {{WorkloadId::kFpGrowth, 1 * GB}})};
}

/// Distinct (app, size) specs of a job list, as cluster_sim and the
/// classifier request them.
std::vector<core::RunSpec> distinct_specs(const std::vector<core::JobRequest>& jobs) {
  std::set<std::pair<int, Bytes>> seen;
  std::vector<core::RunSpec> out;
  for (const auto& j : jobs) {
    for (Bytes size : {j.input_size, 1 * GB}) {
      if (!seen.insert({static_cast<int>(j.workload), size}).second) continue;
      core::RunSpec s;
      s.workload = j.workload;
      s.input_size = size;
      out.push_back(s);
    }
  }
  return out;
}

/// Characterizes every spec with a fresh Characterizer, kSetupRepeats
/// times; returns the last one and the median set-up time.
std::unique_ptr<core::Characterizer> set_up(RunContext& ctx,
                                            const std::vector<core::RunSpec>& specs,
                                            const std::vector<core::NodeSpec>& rack,
                                            sim::NicPresetId nic, Outcome& o) {
  std::unique_ptr<core::Characterizer> ch;
  std::vector<double> times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    // Only the first set-up is traced: the later ones repeat it.
    const bool traced = ctx.tracer.enabled();
    ctx.tracer.set_enabled(traced && r == 0);
    const Clock::time_point t0 = Clock::now();
    {
      Scope setup(ctx.tracer, "bench.setup");
      ch = std::make_unique<core::Characterizer>();
      ch->set_exec_threads(ctx.threads);
      for (const auto& s : specs) {
        Scope span(ctx.tracer, "characterizer.trace_cold", wl::short_name(s.workload));
        ch->trace(s);
      }
      for (const auto& node : rack) ch->event_pricer(node.server, nic);
    }
    times.push_back(seconds_between(t0, Clock::now()));
    ctx.tracer.set_enabled(traced);
  }
  o.setup_s = median(times);
  return ch;
}

/// The rack-batch rack, its twelve job kinds and its replay options.
struct BatchConfig {
  std::vector<core::NodeSpec> rack;
  std::vector<core::JobRequest> kinds;
  core::MixOptions plain;   ///< no fabric, no power control
  core::MixOptions fabric;  ///< modeled fabric only
  core::MixOptions full;    ///< fabric, ondemand governor and rack cap
};

BatchConfig batch_config() {
  BatchConfig c;
  c.rack = core::comparison_racks(4)[2];
  for (auto id : wl::all_workloads()) {
    c.kinds.push_back({id, 1 * GB});
    c.kinds.push_back({id, 4 * GB});
  }
  // Nodes stripe over two racks, so each rack mixes both classes.
  sim::Topology topo;
  topo.spine_oversub = kBatchSpineOversub;
  topo.spine_multipath = 4;
  int flat = 0;
  for (const auto& n : c.rack) {
    for (int i = 0; i < n.count; ++i) topo.rack_of.push_back(flat++ % 2);
  }
  c.fabric.fabric.modeled = true;
  c.fabric.fabric.nic_preset = sim::NicPresetId::k10GbE;
  c.fabric.fabric.topology = topo;
  c.full = c.fabric;
  c.full.power.governor = power::GovernorKind::kOndemand;
  c.full.power.rack_cap_w = kBatchCapW;
  return c;
}

/// `cycles` round-robin cycles over the twelve job kinds, one of each
/// kind per cycle, starting at kind `first`. The seed only rotates
/// where the fixed cycle starts: shuffling the job list, or the kinds
/// within the cycle, moved the replay cost by up to 40% from one seed
/// to the next, because it decides how the heavy jobs bunch.
std::vector<core::JobRequest> batch_jobs(const BatchConfig& c, std::size_t first, int cycles) {
  std::vector<core::JobRequest> jobs;
  for (std::size_t i = 0; i < static_cast<std::size_t>(cycles) * c.kinds.size(); ++i) {
    jobs.push_back(c.kinds[(first + i) % c.kinds.size()]);
  }
  return jobs;
}

/// The starting kind the seed picks.
std::size_t batch_first_kind(const BatchConfig& c, std::uint64_t seed) {
  return Pcg32(seed).uniform(0, c.kinds.size() - 1);
}

core::ServiceOptions service_options(double arrival_rate, double amplitude, double horizon,
                                     std::uint64_t seed) {
  core::ServiceOptions opts;
  opts.arrival_rate = arrival_rate;
  opts.diurnal.amplitude = amplitude;
  opts.horizon = horizon;
  opts.warmup = kServiceWarmup;
  opts.seed = seed;
  opts.mix.slots_per_node = 4;
  return opts;
}

/// The rack-service rack, its tenants and the specs set-up characterizes.
struct ServiceConfig {
  std::vector<core::NodeSpec> rack = core::comparison_racks(kServiceBigNodes)[2];
  std::vector<core::TenantWorkload> tenants = service_tenants();
  std::vector<core::RunSpec> specs;

  ServiceConfig() {
    std::vector<core::JobRequest> all_jobs;
    for (const auto& t : tenants) all_jobs.insert(all_jobs.end(), t.mix.begin(), t.mix.end());
    specs = distinct_specs(all_jobs);
  }
};

}  // namespace

Outcome run_rack_service(RunContext& ctx) {
  Outcome o;
  const ServiceConfig cfg;
  const std::vector<core::NodeSpec>& rack = cfg.rack;
  const std::vector<core::TenantWorkload>& tenants = cfg.tenants;
  const std::vector<core::RunSpec>& specs = cfg.specs;
  const core::ServiceOptions opts = service_options(
      kServiceLoad * kServiceSaturationRate, kServiceAmplitude, kServiceHorizon, ctx.seed);

  std::unique_ptr<core::Characterizer> ch = set_up(ctx, specs, rack, sim::NicPresetId::k1GbE, o);

  std::optional<core::ServiceResult> last;
  PassLog log = run_passes(ctx, 3, [&] {
    ++o.attempted;
    try {
      Scope s(ctx.tracer, "cluster_sim.simulate_service");
      last = core::simulate_service(*ch, tenants, rack, opts, ctx.threads);
    } catch (const std::exception& e) {
      note_failure(o, std::string("simulate_service threw: ") + e.what());
      return 0.0;
    }
    double tasks = 0;
    for (const auto& c : last->classes) tasks += c.tasks_run;
    return tasks;
  }, PassCpus::kRotate);
  record_passes(ctx, log, o);
  if (!last) return o;

  const core::ServiceResult& r = *last;
  check_service(r, o.problems);
  self_test("Little's law", r, check_service,
            [](core::ServiceResult& x) { x.little_l *= 1.01; }, o.problems);
  self_test("quantile order", r, check_service,
            [](core::ServiceResult& x) { x.sojourn.p95 = 2 * x.sojourn.p99 + 1; }, o.problems);
  self_test("utilization range", r, check_service,
            [](core::ServiceResult& x) { x.classes.front().slot_utilization = 1.5; }, o.problems);

  double tasks = 0;
  for (const auto& c : r.classes) tasks += c.tasks_run;
  o.digest.integer("arrivals", r.arrivals)
      .integer("measured_jobs", r.measured_jobs)
      .num("tasks", tasks)
      .num("sojourn_p99_s", r.sojourn.p99)
      .num("queue_delay_mean_s", r.queue_delay.mean)
      .num("queue_delay_p99_s", r.queue_delay.p99);
  for (const auto& c : r.classes) o.digest.num("slot_util_" + c.node_type, c.slot_utilization);
  o.digest.num("energy_per_job_j", r.energy_per_job)
      .num("service_edp", r.service_edxp(1))
      .integer("events", static_cast<std::int64_t>(r.events_run));

  if (ctx.tracer.enabled()) {
    record_setup_layers(ctx, *ch, specs, o);
    const double replay_s =
        median(ctx.tracer.durations("bench.pass", "cluster_sim.simulate_service"));
    o.layer["cluster_sim.service.replay_s"] = {replay_s, "s"};
    o.layer["sim.events"] = {static_cast<double>(r.events_run), "count"};
    o.layer["sim.events_per_s"] = {static_cast<double>(r.events_run) / replay_s, "1/s"};
    o.layer["cluster_sim.service.arrivals"] = {static_cast<double>(r.arrivals), "count"};
    o.layer["cluster_sim.service.tasks"] = {tasks, "count"};
    o.layer["sim_s_per_host_s.service"] = {opts.horizon / replay_s, "s/s"};
  }
  return o;
}

Outcome run_rack_batch(RunContext& ctx) {
  Outcome o;
  const BatchConfig cfg = batch_config();
  const std::vector<core::NodeSpec>& rack = cfg.rack;
  const core::MixOptions& plain = cfg.plain;
  const core::MixOptions& fabric = cfg.fabric;
  const core::MixOptions& full = cfg.full;
  const core::MixPolicy policy = core::MixPolicy::kRackLocal;
  std::vector<std::vector<core::JobRequest>> orders;
  const std::size_t first = batch_first_kind(cfg, ctx.seed);
  for (std::size_t k = 0; k < kBatchOrders; ++k) {
    orders.push_back(
        batch_jobs(cfg, first + k * cfg.kinds.size() / kBatchOrders, kBatchCycles));
  }
  // Every order holds the same jobs, so one stands for the multiset.
  const std::vector<core::JobRequest>& multiset = orders.front();
  const std::vector<core::RunSpec> specs = distinct_specs(multiset);

  std::unique_ptr<core::Characterizer> ch =
      set_up(ctx, specs, rack, sim::NicPresetId::k10GbE, o);
  long expected_tasks = 0;
  for (const auto& j : multiset) {
    core::RunSpec s;
    s.workload = j.workload;
    s.input_size = j.input_size;
    const mr::JobTrace& t = ch->trace(s);
    expected_tasks += static_cast<long>(t.num_map_tasks() + t.num_reduce_tasks());
  }

  std::vector<core::MixResult> last(orders.size());
  bool replayed = false;
  PassLog log = run_passes(ctx, 3, [&] {
    double tasks = 0;
    for (std::size_t k = 0; k < orders.size(); ++k) {
      ++o.attempted;
      try {
        Scope s(ctx.tracer, "cluster_sim.simulate_mix", "fabric_power");
        last[k] = core::simulate_mix(*ch, orders[k], rack, policy, ctx.threads, full);
        tasks += static_cast<double>(expected_tasks);
        replayed = true;
      } catch (const std::exception& e) {
        note_failure(o, std::string("simulate_mix threw: ") + e.what());
      }
    }
    return tasks;
  }, PassCpus::kRotate);
  record_passes(ctx, log, o);
  if (!replayed) return o;

  double makespan = 0, energy = 0, metered = 0, peak = 0, edp = 0, xrack = 0;
  std::int64_t flows = 0, level_changes = 0;
  for (const core::MixResult& r : last) {
    check_batch(BatchReplay{r, expected_tasks, kBatchCapW}, o.problems);
    makespan += r.makespan;
    energy += r.total_energy;
    metered += r.power.metered_energy;
    peak = std::max(peak, r.power.peak_draw);
    edp += r.edxp(1);
    xrack += r.fabric.cross_rack_bytes;
    flows += static_cast<std::int64_t>(r.fabric.flows);
    level_changes += r.power.level_changes;
  }
  const BatchReplay b{last.front(), expected_tasks, kBatchCapW};
  self_test("task conservation", b, check_batch, [](BatchReplay& x) { ++x.expected_tasks; },
            o.problems);
  self_test("fabric byte conservation", b, check_batch,
            [](BatchReplay& x) { x.result.fabric.bytes_delivered *= 0.999; }, o.problems);
  self_test("spine link ledger", b, check_batch,
            [](BatchReplay& x) { x.result.fabric.spine_link_bytes.front() += 1e6; }, o.problems);
  self_test("rack cap", b, check_batch,
            [](BatchReplay& x) { x.result.power.peak_draw = x.cap_w * 1.01; }, o.problems);

  // Sums over the orders of one pass.
  o.digest.num("makespan_s", makespan)
      .num("energy_j", energy)
      .num("metered_energy_j", metered)
      .num("peak_draw_w", peak)
      .num("edp", edp)
      .integer("jobs", static_cast<std::int64_t>(multiset.size() * orders.size()))
      .integer("tasks", expected_tasks * static_cast<std::int64_t>(orders.size()))
      .integer("flows", flows)
      .num("cross_rack_bytes", xrack)
      .integer("level_changes", level_changes);

  if (ctx.tracer.enabled()) {
    record_setup_layers(ctx, *ch, specs, o);
    // The first order with fabric and power control switched off one
    // by one, so their cost shows by difference.
    {
      Scope root(ctx.tracer, "bench.variants");
      for (const auto& [tag, opts] : {std::pair{"plain", &plain}, std::pair{"fabric", &fabric},
                                      std::pair{"fabric_power", &full}}) {
        Scope s(ctx.tracer, "cluster_sim.simulate_mix", tag);
        core::simulate_mix(*ch, orders.front(), rack, policy, ctx.threads, *opts);
      }
    }
    const double replay_s =
        median(ctx.tracer.durations("bench.pass", "cluster_sim.simulate_mix"));
    o.layer["cluster_sim.mix.replay_s"] = {replay_s, "s"};
    for (const char* tag : {"plain", "fabric", "fabric_power"}) {
      o.layer[std::string("cluster_sim.mix.replay_s.") + tag] = {
          median(ctx.tracer.durations("bench.variants", "cluster_sim.simulate_mix", tag)), "s"};
    }
    const double n = static_cast<double>(orders.size());
    o.layer["cluster_sim.mix.tasks"] = {static_cast<double>(expected_tasks), "count"};
    o.layer["network.flows"] = {static_cast<double>(flows) / n, "count"};
    o.layer["network.cross_rack_bytes"] = {xrack / n, "B"};
    o.layer["power.level_changes"] = {static_cast<double>(level_changes) / n, "count"};
    o.layer["sim_s_per_host_s.batch"] = {makespan / n / replay_s, "s/s"};
  }
  return o;
}

int print_batch_curve(RunContext& ctx) {
  const BatchConfig cfg = batch_config();
  Outcome unused;
  std::unique_ptr<core::Characterizer> ch =
      set_up(ctx, distinct_specs(cfg.kinds), cfg.rack, sim::NicPresetId::k10GbE, unused);
  std::printf("jobs  plain_s  full_s\n");
  for (int cycles : {4, 8, 16, 32}) {
    const std::vector<core::JobRequest> jobs =
        batch_jobs(cfg, batch_first_kind(cfg, ctx.seed), cycles);
    double t[2];
    for (int k = 0; k < 2; ++k) {
      const Clock::time_point t0 = Clock::now();
      core::simulate_mix(*ch, jobs, cfg.rack, core::MixPolicy::kRackLocal, ctx.threads,
                         k == 0 ? cfg.plain : cfg.full);
      t[k] = seconds_between(t0, Clock::now());
    }
    std::printf("%4zu  %7.3f  %6.3f\n", jobs.size(), t[0], t[1]);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench

namespace perfbench {

int print_service_sweep(RunContext& ctx) {
  const ServiceConfig cfg;
  Outcome unused;
  std::unique_ptr<core::Characterizer> ch =
      set_up(ctx, cfg.specs, cfg.rack, sim::NicPresetId::k1GbE, unused);
  std::printf("rate[j/s]   jobs");
  for (const auto& n : cfg.rack) std::printf("  util_%-6s", n.server.name.c_str());
  std::printf("  qdelay_mean[s]  qdelay_p99[s]  sojourn_mean[s]  host_s\n");
  for (double rate : {0.25, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 1.0}) {
    const core::ServiceOptions opts = service_options(rate, 0.0, kSweepHorizon, ctx.seed);
    const Clock::time_point t0 = Clock::now();
    const core::ServiceResult r = core::simulate_service(*ch, cfg.tenants, cfg.rack, opts,
                                                         ctx.threads);
    const double host_s = seconds_between(t0, Clock::now());
    std::printf("%9.3f  %5d", rate, r.measured_jobs);
    for (const auto& c : r.classes) std::printf("  %11.3f", c.slot_utilization);
    std::printf("  %14.1f  %13.1f  %15.1f  %6.2f\n", r.queue_delay.mean, r.queue_delay.p99,
                r.sojourn.mean, host_s);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
