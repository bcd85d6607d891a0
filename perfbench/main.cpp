// gridroute benchmark driver: runs one workload for a fixed time at one
// seed and prints one JSON result line (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--examples <dir>]
//   perfbench --self-test
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer split of a traced run. Informational lines
// (host, fingerprints, tail percentiles, ladder steps) come first.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_suite/suite.hpp"
#include "common.hpp"
#include "io/solution_format.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const std::vector<std::string> kEndToEnd = {
    "setup_s",          "jobs_per_s",         "job_p50_ms",
    "job_tail_ms",      "goodput_jobs_per_s", "nets_completed_frac",
    "wire_plus_vias",   "peak_rss_mb"};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"io.parse_ms", "ms"},
    {"io.parse_mb_per_s", "MB/s"},
    {"io.write_ms", "ms"},
    {"io.write_bytes", "bytes"},
    {"problem.validate_ms", "ms"},
    {"problem.hash_ms", "ms"},
    {"core.route_ms", "ms"},
    {"core.run_ms", "ms"},
    {"core.improve_ms", "ms"},
    {"core.weak_attempts", "count"},
    {"core.weak_success_frac", "frac"},
    {"core.strong_ripups", "count"},
    {"core.improved", "count"},
    {"search.expansions", "count"},
    {"search.ns_per_expansion", "ns"},
    {"delta.apply_ms", "ms"},
    {"delta.plan_ms", "ms"},
    {"delta.assess_ms", "ms"},
    {"delta.warm_route_ms", "ms"},
    {"delta.rerouted_frac", "frac"},
    {"delta.expansions", "count"},
    {"verify.layout_ms", "ms"},
    {"verify.equivalence_ms", "ms"},
    {"service.submit_ms", "ms"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_tail_ms", "ms"},
    {"service.worker_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.cache_hit_frac", "frac"},
    {"service.rejected", "count"},
    {"service.browned", "count"},
    {"service.peak_queue_depth", "count"},
    {"self.io_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.service_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"self.other_ms", "ms"},
    {"self.other_frac", "frac"},
    {"bench.traced_job_ms", "ms"},
    {"bench.gen_lag_ms", "ms"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.fail_frac", "frac"},
};

const std::map<std::string, std::function<RunResult(const Config&)>>
    kWorkloads = {{"congested_batch", run_congested_batch},
                  {"open_board", run_open_board},
                  {"service_mix", run_service_mix},
                  {"eco_session", run_eco_session}};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0)
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

/// Keeps exactly the metrics of the requested mode: every end-to-end
/// metric, or every per-layer metric (zero where a layer does not run in
/// this workload). Any other name is a driver bug.
bool select_metrics(RunResult& r, bool trace) {
  std::map<std::string, Metric> selected;
  if (!trace) {
    for (const std::string& name : kEndToEnd) {
      const auto it = r.metrics.find(name);
      if (it == r.metrics.end()) return false;
      selected[name] = it->second;
    }
  } else {
    r.set("bench.fail_frac", r.tally.fail_frac(), "frac");
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = r.metrics.find(name);
      selected[name] = it == r.metrics.end() ? Metric{0.0, unit} : it->second;
      if (selected[name].unit != unit) return false;
    }
  }
  for (const auto& [name, metric] : r.metrics)
    if (!selected.count(name)) return false;
  r.metrics = std::move(selected);
  return true;
}

void print_result(const RunResult& r) {
  bool finite = true;
  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    finite &= std::isfinite(m.value);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  const bool correct = r.valid && finite && r.tally.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max(1LL, r.tally.attempted)
            << ", \"failed\": " << r.tally.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// Self-tests of the benchmark's own machinery.
// ---------------------------------------------------------------------------

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    failures += !ok;
  };

  // Tail rule on known samples of 1..n ms: the p90 value, and whether ten
  // samples lie beyond it (the run is void otherwise).
  auto ramp = [](int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
  };
  const Tail t1000 = tail_at(ramp(1000), kTailPercentile);
  expect(t1000.value == 900 && t1000.beyond == 100 && t1000.samples == 1000,
         "p90 of 1..1000 is 900 with 100 beyond");
  const Tail t100 = tail_at(ramp(100), kTailPercentile);
  expect(t100.value == 90 && t100.beyond == 10,
         "p90 of 1..100 is 90 with exactly ten beyond");
  expect(tail_at(ramp(99), kTailPercentile).beyond == 9,
         "99 samples leave only nine beyond p90: too few for a tail");
  expect(median(ramp(9)) == 5, "median of 1..9 is 5");

  // Open-loop schedule: evenly spaced due times, independent of how the
  // system responds. A single server with a 50 ms stall shows why jobs are
  // timed from their due time: the backlog the stall leaves behind is
  // charged to every job it delays.
  const std::vector<double> due = open_loop_schedule(1000, 0.2);
  bool spaced = due.size() == 200;
  for (std::size_t i = 1; spaced && i < due.size(); ++i)
    spaced = std::abs(due[i] - due[i - 1] - 1e-3) < 1e-12;
  expect(spaced, "schedule at 1000/s over 0.2 s: 200 jobs 1 ms apart");
  double free_at = 0;
  std::vector<double> from_due, from_start;
  for (const double d : due) {
    const double start = std::max(d, free_at);
    const double service = d >= 0.050 && d < 0.051 ? 0.050 : 0.0005;
    free_at = start + service;
    from_due.push_back((free_at - d) * 1e3);
    from_start.push_back((free_at - start) * 1e3);
  }
  expect(percentile(from_due, 90) > 10 && percentile(from_start, 90) < 1,
         "a stall shows in latency from due time, not from service start");

  // Negative test: a verified layout with one net ripped out must fail the
  // output check and raise fail_frac.
  using namespace gridroute;
  const Problem problem = suite::dense_switchbox().to_problem();
  RouteRequest request;
  request.problem = &problem;
  request.improve_passes = kImprovePasses;
  RouteResult result = route(request);
  const std::string text = solution_to_string(problem, result.grid);
  const OutputReference reference{fnv1a(text), result.stats.expansions};
  Tally tally;
  tally.op(check_output(result, text, reference).empty(), "intact");
  expect(tally.failed == 0, "the verified layout passes its check");
  NetId victim = kNoNet;
  for (NetId id = 0; id < problem.net_count() && victim == kNoNet; ++id)
    if (result.grid.node_count(id) > 0) victim = id;
  result.grid.rip_net(victim);
  const std::string ripped = solution_to_string(problem, result.grid);
  tally.op(check_output(result, ripped, reference).empty(), "ripped");
  expect(victim != kNoNet && tally.failed == 1 && tally.fail_frac() == 0.5,
         "ripping one net fails the check: fail_frac 0 -> 0.5");

  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << std::endl;
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--examples <dir>]\n       perfbench "
               "--self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") workload = value;
      else if (arg == "--seed") config.seed = std::stoull(value);
      else if (arg == "--seconds") config.seconds = std::stod(value);
      else if (arg == "--trace") config.trace = std::stoi(value) != 0;
      else if (arg == "--examples") config.examples_dir = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  const auto it = kWorkloads.find(workload);
  if (it == kWorkloads.end() || !(config.seconds > 0)) return usage();

  std::cout << "host: nproc " << std::thread::hardware_concurrency()
            << ", cpu " << cpu_model() << "\n"
            << "workload " << workload << ", seed " << config.seed << ", "
            << config.seconds << " s, trace " << config.trace
            << "; routing: library defaults, improve_passes "
            << kImprovePasses << ", no multi-start\n";
  RunResult result;
  try {
    result = it->second(config);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& line : result.info) std::cout << line << "\n";
  for (const std::string& why : result.tally.why)
    std::cout << "check failed: " << why << "\n";
  if (!select_metrics(result, config.trace)) {
    std::cerr << "error: workload reported an unexpected metric set\n";
    return 1;
  }
  print_result(result);
  return 0;
}
