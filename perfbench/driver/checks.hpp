// Output checks of the four workloads. None compares against a stored
// copy of earlier output: each checks an identity the result must
// satisfy, or compares two results computed independently in the same
// run. Every check appends a description of each violation to
// `problems`; an empty list means the result passed.
//
// self_test() feeds a check a deliberately corrupted copy of a real
// result and records a problem when the check fails to notice, so a
// check that silently accepts everything cannot go unseen. Every run
// self-tests every check it uses.
#pragma once

#include <string>
#include <vector>

#include "core/cluster_sim.hpp"
#include "core/scheduler.hpp"
#include "perf/perf_model.hpp"
#include "report/report.hpp"

namespace perfbench {

using Problems = std::vector<std::string>;

/// repro: every shape assertion of the group passed.
void check_shapes(const bvl::report::Report& rep, Problems& problems);

/// repro: the warm pass rendered the same bytes as the cold pass.
struct RenderPair {
  std::string group;
  std::string cold;
  std::string warm;
};
void check_render_identical(const RenderPair& r, Problems& problems);

/// advisor: schedule_measured chose the argmin the benchmark computed.
struct DecisionPair {
  std::string what;
  bvl::core::Allocation chosen;
  bvl::core::Allocation expected;
};
void check_decision(const DecisionPair& d, Problems& problems);

/// advisor: two priced results are equal bit for bit.
struct PricePair {
  std::string what;
  bvl::perf::RunResult a;
  bvl::perf::RunResult b;
};
void check_bitwise_equal(const PricePair& p, Problems& problems);

/// rack-service: Little's law, ordered latency quantiles, utilization
/// within [0, 1].
void check_service(const bvl::core::ServiceResult& r, Problems& problems);

/// rack-batch: replayed tasks match the jobs' traces, the fabric
/// delivered every injected byte, the spine links carried exactly the
/// cross-rack bytes, and the rack cap was never exceeded.
struct BatchReplay {
  bvl::core::MixResult result;
  long expected_tasks = 0;  ///< maps + reduces summed over the jobs' traces
  double cap_w = 0;
};
void check_batch(const BatchReplay& b, Problems& problems);

template <class T, class Check, class Corrupt>
void self_test(const char* name, const T& good, Check check, Corrupt corrupt,
               Problems& problems) {
  T bad = good;
  corrupt(bad);
  Problems seen;
  check(bad, seen);
  if (seen.empty()) {
    problems.push_back(std::string("self-test: ") + name + " accepted a corrupted result");
  }
}

}  // namespace perfbench
