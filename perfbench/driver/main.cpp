// perfbench: the repository's layer-timed benchmark driver. One
// process runs one named workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--commit ID]
//   perfbench --catalog
//   perfbench --batch-curve [--seed N]
//   perfbench --service-sweep [--seed N]
//
// It prints a provenance line, a digest of the simulated statistics
// and, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. Untraced runs (--trace 0) report the
// end-to-end metrics; traced runs (--trace 1) report every per-layer
// metric of the catalog and write their spans to
// DIR/trace-<workload>-seed<N>.json. --catalog prints the per-layer
// catalog as JSON; --batch-curve prints the rack-batch replay time
// against job count; --service-sweep prints the rack-service rack's
// utilization and queue delay against arrival rate. Exit status: 0 when every output checked correct,
// 1 when a check failed or the workload could not run, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
  bool catalog = false;
  bool batch_curve = false;
  bool service_sweep = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload repro|advisor|rack-service|rack-batch --seed N\n"
               "                 --seconds S --trace 0|1 [--work-dir DIR] [--commit ID]\n"
               "       perfbench --catalog\n"
               "       perfbench --batch-curve [--seed N]\n"
               "       perfbench --service-sweep [--seed N]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--catalog" || flag == "--batch-curve" || flag == "--service-sweep") {
      (flag == "--catalog" ? a.catalog : flag == "--batch-curve" ? a.batch_curve : a.service_sweep) =
          true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && *end == '\0' && v[0] != '-';
      if (!have_seed) usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = !v.empty() && *end == '\0' && a.seconds > 0 && a.seconds <= 3600;
      if (!have_seconds) usage("--seconds takes a number in (0, 3600]");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      usage(("unknown option " + flag).c_str());
    }
  }
  if (!a.catalog && !a.batch_curve && !a.service_sweep && !(have_workload && have_seed && have_seconds && have_trace)) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::vector<LayerMetricDef> catalog = layer_metric_catalog();
  if (args.catalog) {
    std::string out = "[\n";
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      out += "    " + JsonObject()
                          .str("name", catalog[i].name)
                          .str("unit", catalog[i].unit)
                          .str("better", catalog[i].better)
                          .dump();
      out += i + 1 < catalog.size() ? ",\n" : "\n";
    }
    std::fputs((out + "]\n").c_str(), stdout);
    return 0;
  }

  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::min(nproc, 4);
  if (args.batch_curve) {
    Tracer off(false);
    RunContext ctx{"rack-batch", args.seed, args.seconds, threads, args.work_dir, off};
    return print_batch_curve(ctx);
  }
  if (args.service_sweep) {
    Tracer off(false);
    RunContext ctx{"rack-service", args.seed, args.seconds, threads, args.work_dir, off};
    return print_service_sweep(ctx);
  }

  Outcome (*run)(RunContext&) = nullptr;
  if (args.workload == "repro") run = run_repro;
  else if (args.workload == "advisor") run = run_advisor;
  else if (args.workload == "rack-service") run = run_rack_service;
  else if (args.workload == "rack-batch") run = run_rack_batch;
  else usage(("unknown workload " + args.workload).c_str());

  const std::string provenance = JsonObject()
                                     .integer("nproc", nproc)
                                     .str("cpu_model", cpu_model())
                                     .str("compiler", "g++ " __VERSION__)
                                     .str("cxx_flags", PERFBENCH_CXX_FLAGS)
                                     .str("build_type", PERFBENCH_BUILD_TYPE)
                                     .str("commit", args.commit)
                                     .str("workload", args.workload)
                                     .integer("seed", static_cast<std::int64_t>(args.seed))
                                     .num("seconds", args.seconds)
                                     .integer("trace", args.trace ? 1 : 0)
                                     .integer("pool_threads", threads)
                                     .dump();
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  Tracer tracer(args.trace);
  RunContext ctx{args.workload, args.seed, args.seconds, threads, args.work_dir, tracer};
  Outcome o;
  try {
    o = run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s set-up failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  std::printf("digest %s\n", o.digest.dump().c_str());

  std::set<std::string> problems(o.problems.begin(), o.problems.end());
  JsonObject metrics;
  auto metric = [&metrics](const std::string& name, double value, const std::string& unit) {
    metrics.raw(name, JsonObject().num("value", value).str("unit", unit).dump());
  };
  if (!args.trace) {
    std::vector<double> rates;
    for (std::size_t i = 0; i < o.pass_s.size(); ++i) rates.push_back(o.pass_units[i] / o.pass_s[i]);
    metric("setup_s", o.setup_s, "s");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
    metric("pass_s", median(o.pass_s), "s");
    metric("work_per_s", median(rates), "1/s");
  } else {
    for (const auto& def : catalog) {
      auto it = o.layer.find(def.name);
      if (it != o.layer.end() && it->second.unit != def.unit) {
        problems.insert("metric " + def.name + " measured in " + it->second.unit + ", catalog says " +
                        def.unit);
      }
      metric(def.name, it == o.layer.end() ? 0.0 : it->second.value, def.unit);
    }
    for (const auto& [name, m] : o.layer) {
      bool known = std::any_of(catalog.begin(), catalog.end(),
                               [&](const LayerMetricDef& d) { return d.name == name; });
      if (!known) problems.insert("metric " + name + " is missing from the catalog");
    }
    const std::string path =
        args.work_dir + "/trace-" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
    if (!tracer.write_json(path, args.workload, provenance)) {
      problems.insert("cannot write " + path);
    } else {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n", tracer.spans().size(),
                   path.c_str());
    }
  }
  for (const auto& p : problems) std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());

  std::printf("%s\n", JsonObject()
                          .boolean("correct", problems.empty())
                          .integer("attempted", o.attempted)
                          .integer("failed", o.failed)
                          .raw("metrics", metrics.dump())
                          .dump()
                          .c_str());
  return problems.empty() ? 0 : 1;
}
