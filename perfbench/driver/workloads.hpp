// The benchmark's four workloads and what each hands back to the
// driver. A workload does its set-up once (timed as a whole), then
// repeats one pass of its timed operation until the run length is
// spent, checks every output it produced, and fills the per-layer
// metrics from the spans of a traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/characterizer.hpp"
#include "json.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};

struct Outcome {
  /// Operations attempted and failed (an operation is one call the
  /// workload makes per pass: a figure group build, an advisor
  /// decision or grid point, one rack replay).
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Failed correctness checks (including self-test failures).
  std::vector<std::string> problems;
  double setup_s = 0;
  std::vector<double> pass_s;      ///< wall time of each untraced pass
  std::vector<double> pass_units;  ///< work units each untraced pass completed
  std::map<std::string, Metric> layer;
  /// Simulated statistics of the run; identical code and seed give an
  /// identical digest, whatever the host speed.
  JsonObject digest;
};

/// Counts a failed operation and reports it on stderr. A failed
/// operation is not a failed check: `correct` speaks of the operations
/// that completed.
void note_failure(Outcome& o, const std::string& what);

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int threads = 1;       ///< characterizer and replay pool width
  std::string work_dir;  ///< scratch space inside the checkout
  Tracer& tracer;
};

/// Runs `pass` (which returns the work units it completed) until
/// `ctx.seconds` have elapsed and at least `min_passes` ran. Every
/// pass sits under a root span "bench.pass". In a traced run passes
/// alternate untraced and traced, starting untraced, so the recorder's
/// overhead is measured within the run (at most 16 passes are traced); `traced_s` holds the traced
/// passes, and only untraced passes count towards `Outcome::pass_s`.
struct PassLog {
  std::vector<double> untraced_s;
  std::vector<double> untraced_units;
  std::vector<double> traced_s;
};
///
/// With PassCpus::kRotate each pass runs pinned to the next CPU the
/// process may use, so every run samples every CPU: single-threaded
/// passes here ran up to 25% slower on some CPUs of a shared host than
/// on others, steadily within one run, which made run-to-run spread a
/// draw of the CPU the scheduler picked. A pass that starts threads of
/// its own (repro builds a fresh Characterizer and its pool) keeps the
/// process's CPUs, since new threads inherit the pin.
enum class PassCpus { kAll, kRotate };
PassLog run_passes(RunContext& ctx, int min_passes, const std::function<double()>& pass,
                   PassCpus cpus);

/// Stores the pass log in `o` and, in a traced run, the per-layer self
/// times per traced pass and the tracing overhead.
void record_passes(const RunContext& ctx, const PassLog& log, Outcome& o);

/// Records the set-up characterization of `specs`: cold time per app
/// from the spans under "bench.setup" (spans "characterizer.trace_cold"
/// tagged with the app), and the engine's task, spill and comparator
/// counts summed over the traces.
void record_setup_layers(const RunContext& ctx, bvl::core::Characterizer& ch,
                         const std::vector<bvl::core::RunSpec>& specs, Outcome& o);

/// Records median, tail, tail percentile and sample count of a
/// per-call timing under `<name>`, `<name>.tail`, `<name>.tail_q` and
/// `<name>.n`, scaling seconds by `scale` into `unit`.
void record_call_stats(Outcome& o, const std::string& name, const std::vector<double>& seconds,
                       double scale, const std::string& unit);

/// Deterministic Fisher-Yates permutation of [0, n) from a seed
/// (Pcg32), identical on every platform.
std::vector<std::size_t> seeded_permutation(std::size_t n, std::uint64_t seed);

/// mr::stable_hash (FNV-1a 64) of a byte string, as 16 hex digits.
std::string hash_hex(const std::string& bytes);

/// The per-layer metric catalog: every name a traced run prints, with
/// its unit and better direction, in print order.
struct LayerMetricDef {
  std::string name;
  std::string unit;
  std::string better;
};
std::vector<LayerMetricDef> layer_metric_catalog();

Outcome run_repro(RunContext& ctx);
Outcome run_advisor(RunContext& ctx);
Outcome run_rack_service(RunContext& ctx);
Outcome run_rack_batch(RunContext& ctx);

/// Replays the rack-batch mix once per job count (48 to 384 jobs),
/// without and with fabric and power control, and prints the wall
/// times: the dispatch loop's growth with job count.
int print_batch_curve(RunContext& ctx);

/// Replays the rack-service rack and tenants on a flat Poisson stream
/// (6 h, 1 h warm-up) at a ladder of arrival rates and prints per-class
/// slot utilization and queue delay: where the rack saturates.
int print_service_sweep(RunContext& ctx);

}  // namespace perfbench
