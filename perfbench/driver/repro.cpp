// repro: what every user of the repository runs. Set-up regenerates
// every registered figure group cold, through FigureRegistry::build,
// into a fresh on-disk trace cache; engine characterization dominates
// it. Each timed pass builds every group again with a fresh
// Characterizer that reads that cache, in an order drawn from the
// seed; the groups that run the engine directly (ablate) and the rack
// replays dominate it.
#include <unistd.h>

#include <filesystem>
#include <map>
#include <optional>

#include "checks.hpp"
#include "core/characterizer.hpp"
#include "figures/figures.hpp"
#include "report/emitters.hpp"
#include "workloads.hpp"

namespace perfbench {

Outcome run_repro(RunContext& ctx) {
  namespace fs = std::filesystem;
  using namespace bvl;
  Outcome o;
  report::FigureRegistry registry;
  figs::register_all_figures(registry);
  const std::vector<std::string> groups = registry.groups();
  const std::string cache_dir = ctx.work_dir + "/repro-trace-cache-" + std::to_string(getpid());
  fs::remove_all(cache_dir);

  auto fresh_characterizer = [&] {
    auto ch = std::make_unique<core::Characterizer>();
    ch->set_exec_threads(ctx.threads);
    ch->set_cache_dir(cache_dir);
    return ch;
  };
  // Builds and renders one group; nullopt when the build threw.
  auto build = [&](core::Characterizer& ch, const std::string& g) -> std::optional<report::Report> {
    ++o.attempted;
    try {
      report::Context rctx{ch, std::nullopt};
      Scope s(ctx.tracer, "figures.build", g);
      return registry.build(g, rctx);
    } catch (const std::exception& e) {
      note_failure(o, g + ": build threw: " + e.what());
      return std::nullopt;
    }
  };
  auto render = [&](const report::Report& rep, const std::string& g) {
    Scope s(ctx.tracer, "report.render", g);
    return report::render_text(rep) + report::render_checks_text(rep);
  };

  std::map<std::string, std::string> cold_text;
  std::int64_t shape_checks_passed = 0;
  std::optional<report::Report> sample;  // a passing report, for the self-test
  const Clock::time_point t0 = Clock::now();
  {
    Scope setup(ctx.tracer, "bench.setup");
    auto ch = fresh_characterizer();
    for (const auto& g : groups) {
      std::optional<report::Report> rep = build(*ch, g);
      if (!rep) continue;
      cold_text[g] = render(*rep, g);
      check_shapes(*rep, o.problems);
      for (const auto& c : rep->checks) shape_checks_passed += c.passed ? 1 : 0;
      if (!sample && !rep->checks.empty()) sample = std::move(rep);
    }
  }
  o.setup_s = seconds_between(t0, Clock::now());

  double files = 0, bytes = 0;
  for (const auto& e : fs::directory_iterator(cache_dir)) {
    if (!e.is_regular_file()) continue;
    files += 1;
    bytes += static_cast<double>(e.file_size());
  }

  const std::vector<std::size_t> order = seeded_permutation(groups.size(), ctx.seed);
  std::optional<RenderPair> last_pair;
  PassLog log = run_passes(ctx, 2, [&] {
    auto ch = fresh_characterizer();
    for (std::size_t i : order) {
      const std::string& g = groups[i];
      std::optional<report::Report> rep = build(*ch, g);
      if (!rep) continue;
      RenderPair pair{g, cold_text[g], render(*rep, g)};
      check_render_identical(pair, o.problems);
      last_pair = std::move(pair);
    }
    return static_cast<double>(groups.size());
  }, PassCpus::kAll);
  record_passes(ctx, log, o);

  if (sample) {
    self_test("shape check", *sample, check_shapes,
              [](report::Report& r) { r.checks.front().passed = false; }, o.problems);
  }
  if (last_pair) {
    self_test("render identity", *last_pair, check_render_identical,
              [](RenderPair& p) { p.warm += " "; }, o.problems);
  }

  std::string all_text;
  for (const auto& g : groups) all_text += cold_text[g];
  o.digest.integer("groups", static_cast<std::int64_t>(cold_text.size()))
      .integer("shape_checks_passed", shape_checks_passed)
      .integer("trace_cache_files", static_cast<std::int64_t>(files))
      .str("report_text_fnv1a", hash_hex(all_text));

  if (ctx.tracer.enabled()) {
    for (const auto& g : groups) {
      double cold = 0;
      for (double s : ctx.tracer.durations("bench.setup", "figures.build", g)) cold += s;
      o.layer["figures.cold_s." + g] = {cold, "s"};
      o.layer["figures.warm_s." + g] = {
          median(ctx.tracer.durations("bench.pass", "figures.build", g)), "s"};
    }
    double render_s = 0;
    for (double s : ctx.tracer.durations("bench.pass", "report.render")) render_s += s;
    o.layer["report.render_s"] = {render_s / static_cast<double>(log.traced_s.size()), "s"};
    o.layer["char_cache.files_written"] = {files, "count"};
    o.layer["char_cache.bytes_written"] = {bytes, "B"};
  }
  fs::remove_all(cache_dir);
  return o;
}

}  // namespace perfbench
