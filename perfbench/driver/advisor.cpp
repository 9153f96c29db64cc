// advisor: the datacenter advisor's loop. Set-up characterizes its
// inputs (six apps, 1 GB, four block sizes) with the engine seeded by
// the benchmark seed. Each timed pass asks schedule_measured for every
// app x four cost goals x both pricer kinds, then prices the block x
// DVFS tuning grid of every app on both servers with both pricers. The
// pricers and the scheduler do the work; the engine does none after
// set-up.
#include <optional>

#include "checks.hpp"
#include "core/characterizer.hpp"
#include "core/cost_model.hpp"
#include "core/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bvl;

struct NamedGoal {
  const char* name;
  core::Goal goal;
};

/// The argmin schedule_measured must return, computed from
/// Characterizer::run over every server x core count (Xeon first,
/// first strict minimum wins).
core::Allocation expected_allocation(core::Characterizer& ch, core::RunSpec spec,
                                     const core::Goal& goal, perf::PricerKind kind) {
  core::Allocation best;
  double best_cost = 0;
  bool first = true;
  for (const arch::ServerConfig& server : {arch::xeon_e5_2420(), arch::atom_c2758()}) {
    for (int cores : core::paper_core_counts()) {
      spec.mappers = cores;
      core::CostMetrics m = core::metrics_for(ch.run(spec, server, kind), server.area_mm2);
      double cost = goal.with_area ? m.edxap(goal.delay_exponent) : m.edxp(goal.delay_exponent);
      if (first || cost < best_cost) {
        first = false;
        best_cost = cost;
        best = server.name == arch::xeon_e5_2420().name ? core::Allocation{cores, 0, ""}
                                                        : core::Allocation{0, cores, ""};
      }
    }
  }
  return best;
}

}  // namespace

Outcome run_advisor(RunContext& ctx) {
  Outcome o;
  const std::vector<wl::WorkloadId> apps = wl::all_workloads();
  const std::vector<Bytes> blocks{64 * MB, 128 * MB, 256 * MB, 512 * MB};
  const std::vector<Hertz> freqs = arch::paper_frequency_sweep();
  const std::vector<arch::ServerConfig> servers{arch::xeon_e5_2420(), arch::atom_c2758()};
  const std::vector<perf::PricerKind> kinds{perf::PricerKind::kAnalytic,
                                            perf::PricerKind::kEvent};
  const std::vector<NamedGoal> goals{{"edp", core::Goal::edp()},
                                     {"ed2p", core::Goal::ed2p()},
                                     {"edap", core::Goal::edap()},
                                     {"ed2ap", core::Goal::ed2ap()}};
  auto spec_for = [](wl::WorkloadId id, Bytes block) {
    core::RunSpec s;
    s.workload = id;
    s.input_size = 1 * GB;
    s.block_size = block;
    return s;
  };

  std::vector<core::RunSpec> specs;
  for (auto id : apps) {
    for (Bytes b : blocks) specs.push_back(spec_for(id, b));
  }
  core::Characterizer ch(hdfs::DfsConfig{}, perf::ClusterConfig{}, 16 * MB, ctx.seed);
  ch.set_exec_threads(ctx.threads);
  const Clock::time_point t0 = Clock::now();
  {
    Scope setup(ctx.tracer, "bench.setup");
    for (const auto& s : specs) {
      Scope span(ctx.tracer, "characterizer.trace_cold", wl::short_name(s.workload));
      ch.trace(s);
    }
    for (const auto& server : servers) {
      for (auto kind : kinds) ch.pricer(server, kind);
    }
  }
  o.setup_s = seconds_between(t0, Clock::now());

  const std::size_t n_decisions = apps.size() * goals.size() * kinds.size();
  const std::size_t grid_points =
      apps.size() * servers.size() * kinds.size() * blocks.size() * freqs.size();
  // A decision prices every server x core count of the paper sweep.
  const double points_per_pass = static_cast<double>(
      grid_points + n_decisions * servers.size() * core::paper_core_counts().size());
  std::vector<core::Allocation> decisions(n_decisions);
  double edp_sum[2] = {0, 0};
  PassLog log = run_passes(ctx, 3, [&] {
    std::size_t d = 0;
    for (auto id : apps) {
      const core::RunSpec spec = spec_for(id, 512 * MB);
      for (const auto& g : goals) {
        for (auto kind : kinds) {
          ++o.attempted;
          try {
            Scope s(ctx.tracer, "scheduler.schedule_measured", wl::short_name(id));
            decisions[d] = core::schedule_measured(ch, spec, g.goal, kind);
          } catch (const std::exception& e) {
            note_failure(o, std::string("schedule_measured threw: ") + e.what());
          }
          ++d;
        }
      }
    }
    edp_sum[0] = edp_sum[1] = 0;
    for (auto id : apps) {
      for (const auto& server : servers) {
        for (std::size_t k = 0; k < kinds.size(); ++k) {
          const perf::Pricer& pricer = ch.pricer(server, kinds[k]);
          const char* span = k == 0 ? "perf.analytic.price" : "perf.event.price";
          for (Bytes b : blocks) {
            const core::RunSpec spec = spec_for(id, b);
            for (Hertz f : freqs) {
              ++o.attempted;
              try {
                const mr::JobTrace* t = nullptr;
                {
                  Scope s(ctx.tracer, "characterizer.trace_hit", wl::short_name(id));
                  t = &ch.trace(spec);
                }
                perf::RunResult r;
                {
                  Scope s(ctx.tracer, span, wl::short_name(id));
                  r = pricer.price(*t, f, spec.mappers);
                }
                edp_sum[k] += r.total_energy() * r.total_time();
              } catch (const std::exception& e) {
                note_failure(o, std::string("pricing threw: ") + e.what());
              }
            }
          }
        }
      }
    }
    return points_per_pass;
  }, PassCpus::kRotate);
  record_passes(ctx, log, o);

  // Checks, outside the timed passes.
  std::string decision_text;
  std::optional<DecisionPair> sample_decision;
  std::size_t d = 0;
  for (auto id : apps) {
    const core::RunSpec spec = spec_for(id, 512 * MB);
    for (const auto& g : goals) {
      for (auto kind : kinds) {
        DecisionPair pair{wl::short_name(id) + "/" + g.name + "/" + perf::to_string(kind),
                          decisions[d++], expected_allocation(ch, spec, g.goal, kind)};
        check_decision(pair, o.problems);
        decision_text += pair.what + "=" + std::to_string(pair.chosen.xeon_cores) + "x" +
                         std::to_string(pair.chosen.atom_cores) + ";";
        if (!sample_decision) sample_decision = pair;
      }
    }
  }
  std::optional<PricePair> sample_price;
  for (auto id : apps) {
    for (const auto& server : servers) {
      const core::RunSpec spec = spec_for(id, 256 * MB);
      const mr::JobTrace& t = ch.trace(spec);
      const perf::EventPricer& ep = ch.event_pricer(server);
      // Two segments at one frequency: a flat plan, coalesced to one.
      power::FreqPlan flat({{0.0, spec.freq}, {10.0, spec.freq}});
      PricePair pair{wl::short_name(id) + "/" + server.name + " flat FreqPlan",
                     ep.price(t, spec.freq, spec.mappers), ep.price(t, flat, spec.mappers)};
      check_bitwise_equal(pair, o.problems);
      if (!sample_price) sample_price = pair;
    }
  }
  self_test("decision argmin", *sample_decision, check_decision,
            [](DecisionPair& p) { std::swap(p.chosen.xeon_cores, p.chosen.atom_cores); },
            o.problems);
  self_test("flat-plan price", *sample_price, check_bitwise_equal,
            [](PricePair& p) { p.b.map.energy = std::nextafter(p.b.map.energy, 1e300); },
            o.problems);

  o.digest.str("decisions_fnv1a", hash_hex(decision_text))
      .num("grid_edp_sum_analytic", edp_sum[0])
      .num("grid_edp_sum_event", edp_sum[1])
      .integer("grid_points", static_cast<std::int64_t>(grid_points))
      .integer("decisions", static_cast<std::int64_t>(n_decisions));

  if (ctx.tracer.enabled()) {
    record_setup_layers(ctx, ch, specs, o);
    record_call_stats(o, "characterizer.trace_hit_us",
                      ctx.tracer.durations("bench.pass", "characterizer.trace_hit"), 1e6, "us");
    record_call_stats(o, "perf.analytic.price_us",
                      ctx.tracer.durations("bench.pass", "perf.analytic.price"), 1e6, "us");
    record_call_stats(o, "perf.event.price_us",
                      ctx.tracer.durations("bench.pass", "perf.event.price"), 1e6, "us");
    record_call_stats(o, "scheduler.decision_ms",
                      ctx.tracer.durations("bench.pass", "scheduler.schedule_measured"), 1e3,
                      "ms");
    o.layer["perf.points"] = {static_cast<double>(grid_points), "count"};
  }
  return o;
}

}  // namespace perfbench
