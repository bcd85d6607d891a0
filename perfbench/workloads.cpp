#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/delta.hpp"
#include "inputs.hpp"
#include "io/solution_format.hpp"
#include "io/text_format.hpp"
#include "obs/trace.hpp"
#include "service/routing_service.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace perfbench {

using namespace gridroute;
using namespace gridroute::service;

std::string check_output(const RouteResult& result,
                         const std::string& solution_text,
                         const OutputReference& reference) {
  if (!result.status.ok()) return "route status: " + result.status.message();
  if (result.stats.expansions != reference.expansions)
    return "expansions " + std::to_string(result.stats.expansions) +
           " != reference " + std::to_string(reference.expansions);
  if (fnv1a(solution_text) != reference.text_fnv)
    return "solution text differs from the verified reference";
  return {};
}

namespace {

std::string fmt(double v, int precision = 4) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << v;
  return out.str();
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

double since_s(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Order-independent layout fingerprint: every net's wire fingerprint,
/// mixed with its id.
std::uint64_t layout_fingerprint(const RoutingGrid& grid) {
  std::uint64_t h = 1469598103934665603ull;
  for (NetId id = 0; id < grid.net_count(); ++id)
    h = fnv_mix(h, net_wire_fingerprint(grid, id) ^
                       (static_cast<std::uint64_t>(id) << 1));
  return h;
}

/// Completion and wire quality over verified layouts: verified-complete
/// routable nets over all routable nets, and the wire cells plus vias of
/// the completed nets over their half-perimeter lower bound (pins' bounding
/// box half-perimeter + 1 cells per net).
struct Quality {
  long long routable = 0;
  long long completed = 0;
  long long wire_plus_vias = 0;
  long long hpwl_bound = 0;

  void add(const Problem& problem, const VerifyReport& report) {
    routable += report.routable_net_count;
    completed += report.completed_net_count;
    for (const NetReport& n : report.nets) {
      const Net& net = problem.net(n.id);
      if (!n.ok() || net.pins.size() < 2) continue;
      int lx = net.pins[0].pos.x, hx = lx, ly = net.pins[0].pos.y, hy = ly;
      for (const Pin& pin : net.pins) {
        lx = std::min(lx, pin.pos.x);
        hx = std::max(hx, pin.pos.x);
        ly = std::min(ly, pin.pos.y);
        hy = std::max(hy, pin.pos.y);
      }
      wire_plus_vias += n.wire_nodes + n.vias;
      hpwl_bound += (hx - lx) + (hy - ly) + 1;
    }
  }
  double completed_frac() const {
    return routable == 0 ? 1.0
                         : static_cast<double>(completed) /
                               static_cast<double>(routable);
  }
  double wire_ratio() const {
    return hpwl_bound == 0 ? 0.0
                           : static_cast<double>(wire_plus_vias) /
                                 static_cast<double>(hpwl_bound);
  }
};

/// Router work counts summed over a fixed set of routes. Exact: a pure
/// function of the inputs, so they must repeat across runs at one seed.
struct Work {
  long long expansions = 0;
  long long weak_attempts = 0;
  long long weak_modifications = 0;
  long long strong_ripups = 0;
  long long improved = 0;

  void add(const RouteResult& r) {
    expansions += r.stats.expansions;
    weak_attempts += r.stats.weak_attempts;
    weak_modifications += r.stats.weak_modifications;
    strong_ripups += r.stats.strong_ripups;
    improved += r.improved;
  }
  bool operator==(const Work&) const = default;
  std::string describe() const {
    return "expansions=" + std::to_string(expansions) +
           " weak_attempts=" + std::to_string(weak_attempts) +
           " weak_modifications=" + std::to_string(weak_modifications) +
           " strong_ripups=" + std::to_string(strong_ripups) +
           " improved=" + std::to_string(improved);
  }
};

/// The router's exact work counts as per-layer metrics.
void report_work(const Work& work, RunResult& out) {
  out.set("core.weak_attempts", static_cast<double>(work.weak_attempts),
          "count");
  out.set("core.weak_success_frac",
          work.weak_attempts == 0
              ? 0.0
              : static_cast<double>(work.weak_modifications) /
                    static_cast<double>(work.weak_attempts),
          "frac");
  out.set("core.strong_ripups", static_cast<double>(work.strong_ripups),
          "count");
  out.set("core.improved", static_cast<double>(work.improved), "count");
  out.set("search.expansions", static_cast<double>(work.expansions), "count");
}

RouteRequest make_request(const Problem* problem) {
  RouteRequest request;
  request.problem = problem;
  request.improve_passes = kImprovePasses;
  return request;
}

/// The end-to-end metrics every workload reports.
struct EndToEnd {
  double setup_s = 0;
  double jobs_per_s = 0;
  double goodput_jobs_per_s = 0;
  std::vector<double> latency_ms;
  Quality quality;
};

/// Closed-loop figures from consecutive windows of `window` jobs (one pass
/// over the inputs, or a block of deltas). Interference from other tenants
/// of the host only ever slows a window down, so the slowest third of the
/// windows is dropped. From the rest come the median of jobs per second of
/// job time, the median of jobs within `limit_ms` per second (goodput), and
/// the latencies the percentiles are taken over. False when fewer than
/// three windows completed.
bool closed_loop_figures(std::size_t window, double limit_ms, EndToEnd& e) {
  struct Window {
    std::size_t at = 0;
    double ms = 0;
    double within = 0;
  };
  std::vector<Window> windows;
  for (std::size_t at = 0; at + window <= e.latency_ms.size(); at += window) {
    Window w{at, 0, 0};
    for (std::size_t k = at; k < at + window; ++k) {
      w.ms += e.latency_ms[k];
      w.within += e.latency_ms[k] <= limit_ms;
    }
    windows.push_back(w);
  }
  if (windows.size() < 3) return false;
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) { return a.ms < b.ms; });
  windows.resize((windows.size() * 2 + 2) / 3);
  std::vector<double> rate, goodput, kept;
  for (const Window& w : windows) {
    rate.push_back(static_cast<double>(window) / (w.ms / 1e3));
    goodput.push_back(w.within / (w.ms / 1e3));
    kept.insert(kept.end(), e.latency_ms.begin() + static_cast<long>(w.at),
                e.latency_ms.begin() + static_cast<long>(w.at + window));
  }
  e.jobs_per_s = median(rate);
  e.goodput_jobs_per_s = median(goodput);
  e.latency_ms = std::move(kept);
  return true;
}

void report_end_to_end(const EndToEnd& e, RunResult& out) {
  const Tail tail = tail_at(e.latency_ms, kTailPercentile);
  out.set("setup_s", e.setup_s, "s");
  out.set("jobs_per_s", e.jobs_per_s, "1/s");
  out.set("job_p50_ms", median(e.latency_ms), "ms");
  out.set("job_tail_ms", tail.value, "ms");
  out.set("goodput_jobs_per_s", e.goodput_jobs_per_s, "1/s");
  out.set("nets_completed_frac", e.quality.completed_frac(), "frac");
  out.set("wire_plus_vias", e.quality.wire_ratio(), "cells/hpwl");
  out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  out.info.push_back("job_tail_ms is p" + fmt(tail.percentile, 1) + " of " +
                     std::to_string(tail.samples) + " jobs (" +
                     std::to_string(tail.beyond) + " beyond it)");
  if (tail.beyond < 10) {
    out.valid = false;
    out.info.push_back("invalid: fewer than ten jobs beyond the tail "
                       "percentile");
  }
}

/// Adds a child span of `duration_ms` starting at `at`, clamped to end no
/// later than `end`; returns where the next sibling starts. Used
/// for intervals the program measures itself (router phase timers, queue
/// wait), laid end to end inside the call that contains them.
std::int64_t add_sequential(SpanLog& spans, const char* name, std::int64_t at,
                            double duration_ms, std::int64_t end, int parent,
                            long long job) {
  const std::int64_t stop = std::min(
      end, at + static_cast<std::int64_t>(std::max(0.0, duration_ms) * 1e6));
  spans.add(name, at, std::max(at, stop), parent, job);
  return std::max(at, stop);
}

/// Per-layer self time per traced job, with the job spans' own remainder
/// as `other`. The parts must add up to the traced job time.
void report_self_time(const SpanLog& spans, RunResult& out) {
  double total_ms = 0;
  int overlaps = 0;
  const std::map<std::string, double> self =
      spans.self_ms_by_layer(&total_ms, &overlaps);
  const double jobs = static_cast<double>(spans.total("job").second);
  double sum = 0;
  for (const auto& [layer, ms] : self) sum += ms;
  const auto per_job = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() || jobs == 0 ? 0.0 : it->second / jobs;
  };
  for (const char* layer : {"io", "core", "service", "bench", "other"})
    out.set(std::string("self.") + layer + "_ms", per_job(layer), "ms");
  out.set("self.other_frac",
          total_ms > 0 ? per_job("other") * jobs / total_ms : 0.0, "frac");
  out.set("bench.traced_job_ms", jobs == 0 ? 0.0 : total_ms / jobs, "ms");
  for (const auto& [layer, ms] : self)
    if (layer != "io" && layer != "core" && layer != "service" &&
        layer != "bench" && layer != "other")
      out.tally.fail("span layer '" + layer + "' has no self-time metric");
  out.tally.op(overlaps == 0 && std::abs(sum - total_ms) <= 1e-9 * total_ms,
               "span self times do not add up to the traced job time");
}

/// The problem layer: Problem::validate_status and canonical_hash, timed
/// one call at a time on each distinct input, outside the job stream.
void report_problem_layer(const std::vector<Problem>& problems,
                          RunResult& out) {
  std::vector<double> validate_ms, hash_ms;
  for (const Problem& problem : problems) {
    const std::int64_t t0 = now_ns();
    const bool valid = problem.validate_status().empty();
    const std::int64_t t1 = now_ns();
    const std::uint64_t hash = problem.canonical_hash();
    const std::int64_t t2 = now_ns();
    out.tally.op(valid && hash != 0, "validate/hash probe");
    validate_ms.push_back(ns_to_ms(t1 - t0));
    hash_ms.push_back(ns_to_ms(t2 - t1));
  }
  out.set("problem.validate_ms", mean(validate_ms), "ms");
  out.set("problem.hash_ms", mean(hash_ms), "ms");
}

/// Median of the repeated set-up times, after checking every repeat
/// produced the same fingerprint and work (set-up is deterministic).
template <typename Setup>
double median_setup(const std::vector<double>& seconds,
                    const std::vector<Setup>& setups, RunResult& out) {
  for (std::size_t i = 1; i < setups.size(); ++i)
    out.tally.op(setups[i].fingerprint == setups[0].fingerprint &&
                     setups[i].work == setups[0].work,
                 "set-up repeat " + std::to_string(i) +
                     " gave another fingerprint or work count");
  return median(seconds);
}

// ===========================================================================
// Library workloads: congested_batch and open_board
// ===========================================================================

/// One distinct library input and its verified reference route.
struct LibraryInput {
  std::string name;
  std::string text;
  OutputReference reference;
};

struct LibrarySetup {
  std::vector<LibraryInput> inputs;
  std::vector<int> order;  ///< one pass of the job stream, shuffled; cycled
  std::uint64_t fingerprint = 0;
  Work work;
  Quality quality;
  double verify_ms = 0;  ///< summed verify() time over the references
};

LibrarySetup library_setup(std::vector<TextInput> texts, std::uint64_t seed,
                           Tally& tally) {
  LibrarySetup s;
  s.fingerprint = 1469598103934665603ull;
  for (TextInput& t : texts) {
    LibraryInput in;
    in.name = std::move(t.name);
    in.text = std::move(t.text);
    for (int k = 0; k < t.weight; ++k)
      s.order.push_back(static_cast<int>(s.inputs.size()));
    const Problem problem = parse_problem_string(in.text, in.name);
    const RouteResult result = route(make_request(&problem));
    const std::string solution = solution_to_string(problem, result.grid);
    const std::int64_t v0 = now_ns();
    const VerifyReport report = verify(problem, result.grid);
    s.verify_ms += ns_to_ms(now_ns() - v0);
    tally.op(report.drc_clean() && result.status.ok(),
             in.name + ": reference route does not verify");
    s.quality.add(problem, report);
    s.work.add(result);
    in.reference = {fnv1a(solution), result.stats.expansions};
    s.fingerprint = fnv_mix(s.fingerprint, in.reference.text_fnv);
    s.inputs.push_back(std::move(in));
  }
  Rng rng(seed ^ 0x5eedf00dULL);
  for (std::size_t i = s.order.size(); i > 1; --i)
    std::swap(s.order[i - 1], s.order[rng.next_below(i)]);
  return s;
}

/// Closed loop, one caller: each job is parse -> route -> write of the
/// next input in the stream. The clock runs only inside jobs; the output
/// checks between jobs are outside it. With tracing on, every second pass
/// over the inputs is traced, and the untraced passes give the overhead.
RunResult run_library(const Config& config, const char* workload,
                      double limit_ms,
                      const std::function<std::vector<TextInput>()>& make) {
  RunResult out;
  std::vector<LibrarySetup> setups;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::int64_t t0 = now_ns();
    setups.push_back(library_setup(make(), config.seed, out.tally));
    setup_s.push_back(since_s(t0));
  }
  EndToEnd e;
  e.setup_s = median_setup(setup_s, setups, out);
  const LibrarySetup& s = setups.back();
  const int n = static_cast<int>(s.inputs.size());
  const auto pass_len = static_cast<long long>(s.order.size());

  SpanLog spans;
  std::vector<double> pass_ms_traced, pass_ms_plain;
  double pass_ms = 0;
  std::int64_t busy_ns = 0;
  long long jobs = 0;
  double parse_bytes = 0, write_bytes = 0, route_engine_ms = 0;
  long long traced_expansions = 0;
  const auto budget_ns = static_cast<std::int64_t>(config.seconds * 1e9);
  while (busy_ns < budget_ns) {
    const long long pass = jobs / pass_len;
    const bool traced = config.trace && pass % 2 == 1;
    const LibraryInput& in = s.inputs[static_cast<std::size_t>(
        s.order[static_cast<std::size_t>(jobs % pass_len)])];

    const std::int64_t t0 = now_ns();
    const Problem problem = parse_problem_string(in.text);
    const std::int64_t t1 = now_ns();
    const RouteResult result = route(make_request(&problem));
    const std::int64_t t2 = now_ns();
    const std::string solution = solution_to_string(problem, result.grid);
    const std::int64_t t3 = now_ns();

    const double ms = ns_to_ms(t3 - t0);
    busy_ns += t3 - t0;
    e.latency_ms.push_back(ms);
    pass_ms += ms;
    if (traced) {
      const int job = spans.add("job", t0, t3, -1, jobs);
      spans.add("io.parse", t0, t1, job, jobs);
      const int r = spans.add("core.route", t1, t2, job, jobs);
      // The router's own phase timers, laid end to end inside the call.
      const std::int64_t at = add_sequential(spans, "core.run", t1,
                                             result.stats.run_ms, t2, r, jobs);
      add_sequential(spans, "core.improve", at, result.stats.improve_ms, t2, r,
                     jobs);
      spans.add("io.write", t2, t3, job, jobs);
      parse_bytes += static_cast<double>(in.text.size());
      write_bytes += static_cast<double>(solution.size());
      route_engine_ms += result.stats.run_ms + result.stats.improve_ms;
      traced_expansions += result.stats.expansions;
    }
    ++jobs;
    if (jobs % pass_len == 0) {
      (traced ? pass_ms_traced : pass_ms_plain).push_back(pass_ms);
      pass_ms = 0;
    }

    const std::string bad = check_output(result, solution, in.reference);
    out.tally.op(bad.empty(), in.name + ": " + bad);
  }
  const double busy_s = static_cast<double>(busy_ns) / 1e9;
  if (!closed_loop_figures(s.order.size(), limit_ms, e) && !config.trace) {
    out.valid = false;
    out.info.push_back("invalid: fewer than three passes over the inputs");
  }
  e.quality = s.quality;

  out.info.push_back(std::string(workload) + ": " + std::to_string(n) +
                     " distinct inputs, " + std::to_string(jobs) +
                     " jobs in " + fmt(busy_s, 3) + " s of job time");
  out.info.push_back("output fingerprint " + hex(s.fingerprint) +
                     "; work over the distinct inputs: " + s.work.describe());
  out.info.push_back("latency limit " + fmt(limit_ms, 0) +
                     " ms; figures from the faster two thirds of passes");

  if (!config.trace) {
    report_end_to_end(e, out);
    return out;
  }

  // Per-layer split from the traced passes.
  const long long traced_jobs = spans.total("job").second;
  const auto per_job = [&](const char* name) {
    return traced_jobs == 0 ? 0.0 : spans.total(name).first / traced_jobs;
  };
  const double parse_ms = spans.total("io.parse").first;
  out.set("io.parse_ms", per_job("io.parse"), "ms");
  out.set("io.parse_mb_per_s",
          parse_ms > 0 ? parse_bytes / 1e6 / (parse_ms / 1e3) : 0.0, "MB/s");
  out.set("io.write_ms", per_job("io.write"), "ms");
  out.set("io.write_bytes",
          traced_jobs == 0 ? 0.0 : write_bytes / traced_jobs, "bytes");
  out.set("core.route_ms", per_job("core.route"), "ms");
  out.set("core.run_ms", per_job("core.run"), "ms");
  out.set("core.improve_ms", per_job("core.improve"), "ms");
  out.set("search.ns_per_expansion",
          traced_expansions == 0 ? 0.0
                                 : route_engine_ms * 1e6 / traced_expansions,
          "ns");
  out.set("verify.layout_ms", s.verify_ms / n, "ms");
  report_work(s.work, out);

  std::vector<Problem> problems;
  for (const LibraryInput& in : s.inputs)
    problems.push_back(parse_problem_string(in.text));
  report_problem_layer(problems, out);

  report_self_time(spans, out);
  if (pass_ms_traced.empty() || pass_ms_plain.empty()) {
    out.info.push_back("trace overhead unmeasured: fewer than two passes");
    out.set("bench.trace_overhead_frac", 0.0, "frac");
  } else {
    out.set("bench.trace_overhead_frac",
            mean(pass_ms_traced) / mean(pass_ms_plain) - 1.0, "frac");
  }
  return out;
}

// ===========================================================================
// service_mix: open loop into RoutingService
// ===========================================================================

constexpr int kServiceWorkers = 2;  // + generator + waiter = 4 busy threads
constexpr int kServicePool = 384;
constexpr double kZipfExponent = 1.0;
constexpr int kServiceWarmupJobs = 1500;
constexpr double kServiceLimitMs = 10;  // on each step's tail percentile
constexpr double kLadder[] = {250, 500, 750, 1000};  // offered jobs/s
// The host's own timer and scheduling noise reaches a few ms at p99; a
// generator lag p99 beyond this means it fell behind and voids the run.
constexpr double kMaxGenLagMs = 20;
constexpr std::int64_t kSpinNs = 200'000;

/// Records, per job id, when the service finalized it and the queue depth
/// its admission left behind. Lock-free: one slot per id.
class ServiceProbe : public obs::TraceSink {
 public:
  explicit ServiceProbe(std::size_t max_id)
      : done_ns_(max_id + 1), depth_(max_id + 1) {}
  void on_event(const obs::TraceEvent& e) override {
    const auto id = static_cast<std::size_t>(e.value);
    if (id >= done_ns_.size()) return;
    if (e.kind == obs::EventKind::kJobCompleted)
      done_ns_[id].store(now_ns(), std::memory_order_relaxed);
    else if (e.kind == obs::EventKind::kJobAdmitted)
      depth_[id].store(e.extra, std::memory_order_relaxed);
  }
  std::int64_t done_ns(std::uint64_t id) const {
    return id < done_ns_.size() ? done_ns_[id].load() : 0;
  }
  std::int64_t depth(std::uint64_t id) const {
    return id < depth_.size() ? depth_[id].load() : 0;
  }

 private:
  std::vector<std::atomic<std::int64_t>> done_ns_;
  std::vector<std::atomic<std::int64_t>> depth_;
};

struct ServiceSetup {
  std::vector<std::shared_ptr<const Problem>> pool;
  std::vector<std::string> reference_text;  ///< direct route() solutions
  std::vector<long long> reference_expansions;
  std::vector<int> stream;  ///< pool index per job: warm-up, then ladder
  std::uint64_t fingerprint = 0;
  Work work;
  Quality quality;
  double verify_ms = 0;
};

ServiceSetup service_setup(std::uint64_t seed, std::size_t ladder_jobs,
                           Tally& tally) {
  ServiceSetup s;
  s.fingerprint = 1469598103934665603ull;
  for (Problem& p : service_pool(seed, kServicePool)) {
    auto problem = std::make_shared<const Problem>(std::move(p));
    const RouteResult result = route(make_request(problem.get()));
    const std::int64_t v0 = now_ns();
    const VerifyReport report = verify(*problem, result.grid);
    s.verify_ms += ns_to_ms(now_ns() - v0);
    tally.op(report.drc_clean() && result.status.ok(),
             "service pool reference does not verify");
    s.quality.add(*problem, report);
    s.work.add(result);
    s.reference_text.push_back(solution_to_string(*problem, result.grid));
    s.reference_expansions.push_back(result.stats.expansions);
    s.fingerprint = fnv_mix(s.fingerprint, fnv1a(s.reference_text.back()));
    s.pool.push_back(std::move(problem));
  }
  // Skewed repetition: Zipf-ranked draws over the pool. The pool is three
  // times the result cache, so the cold tail keeps missing while the head
  // hits.
  std::vector<double> cdf(s.pool.size());
  double sum = 0;
  for (std::size_t i = 0; i < cdf.size(); ++i)
    cdf[i] = sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  Rng rng(seed ^ 0x2197ULL);
  const std::size_t total = kServiceWarmupJobs + ladder_jobs;
  for (std::size_t j = 0; j < total; ++j) {
    const double u = rng.next_double() * sum;
    s.stream.push_back(static_cast<int>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
  }
  return s;
}

RunResult service_mix(const Config& config) {
  RunResult out;
  const double step_s = config.seconds / static_cast<double>(std::size(kLadder));
  std::vector<std::vector<double>> schedule;
  std::size_t ladder_jobs = 0;
  for (const double rate : kLadder) {
    schedule.push_back(open_loop_schedule(rate, step_s));
    ladder_jobs += schedule.back().size();
  }

  std::vector<ServiceSetup> setups;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::int64_t t0 = now_ns();
    setups.push_back(service_setup(config.seed, ladder_jobs, out.tally));
    setup_s.push_back(since_s(t0));
  }
  EndToEnd e;
  e.setup_s = median_setup(setup_s, setups, out);
  const ServiceSetup& s = setups.back();

  ServiceProbe probe(kServiceWarmupJobs + ladder_jobs);
  ServiceOptions options;
  options.workers = kServiceWorkers;
  options.trace = &probe;
  RoutingService service(options);
  auto job_request = [&](int pool_index) {
    JobRequest request;
    request.problem = s.pool[static_cast<std::size_t>(pool_index)];
    request.improve_passes = kImprovePasses;
    return request;
  };

  // Warm-up: fill the cache with the head of the stream, closed loop in
  // small batches (never past the queue bound).
  for (int j = 0; j < kServiceWarmupJobs; j += 32) {
    std::vector<std::uint64_t> ids;
    for (int k = j; k < std::min(j + 32, kServiceWarmupJobs); ++k) {
      auto id = service.submit(job_request(s.stream[static_cast<std::size_t>(k)]));
      if (out.tally.op(id.ok(), "warm-up submit rejected")) ids.push_back(*id);
    }
    for (const std::uint64_t id : ids) {
      auto outcome = service.wait(id);
      out.tally.op(outcome.ok() && outcome->state == JobState::kCompleted,
                   "warm-up job did not complete");
    }
  }

  struct Sent {
    std::size_t step = 0;
    int pool_index = 0;
    std::int64_t due_ns = 0, submit_ns = 0, admitted_ns = 0;
    std::uint64_t id = 0;  ///< 0 when rejected
    JobOutcome outcome;
  };
  std::vector<Sent> sent;
  sent.reserve(ladder_jobs);  // never reallocates while the waiter reads it

  // The waiter consumes outcomes in submission order; completion times come
  // from the probe, so a slow job never delays the clock of the next.
  std::mutex handoff_mutex;
  std::condition_variable handoff_cv;
  std::size_t handed_off = 0;
  bool generator_done = false;
  std::thread waiter([&] {
    for (std::size_t k = 0;; ++k) {
      std::uint64_t id = 0;
      {
        std::unique_lock<std::mutex> lock(handoff_mutex);
        handoff_cv.wait(lock,
                        [&] { return handed_off > k || generator_done; });
        if (handed_off <= k) return;
        id = sent[k].id;
      }
      if (id == 0) continue;
      auto outcome = service.wait(id);
      if (outcome.ok()) sent[k].outcome = *std::move(outcome);
    }
  });

  const std::int64_t ladder_start = now_ns();
  std::size_t next_job = kServiceWarmupJobs;
  for (std::size_t step = 0; step < schedule.size(); ++step) {
    const std::int64_t start = now_ns() + 1'000'000;
    for (const double due_s : schedule[step]) {
      Sent job;
      job.step = step;
      job.pool_index = s.stream[next_job++];
      job.due_ns = start + static_cast<std::int64_t>(due_s * 1e9);
      // Sleep to just short of the due time, then spin: the host's timer
      // wake-ups are too coarse to hold a schedule of sub-ms jobs.
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(job.due_ns - kSpinNs)));
      while (now_ns() < job.due_ns) {
      }
      job.submit_ns = now_ns();
      auto id = service.submit(job_request(job.pool_index));
      job.admitted_ns = now_ns();
      if (id.ok()) job.id = *id;
      {
        const std::lock_guard<std::mutex> lock(handoff_mutex);
        sent.push_back(std::move(job));
        ++handed_off;
      }
      handoff_cv.notify_one();
    }
  }
  {
    const std::lock_guard<std::mutex> lock(handoff_mutex);
    generator_done = true;
  }
  handoff_cv.notify_one();
  waiter.join();
  const double window_s = since_s(ladder_start);
  const ServiceStats stats = service.stats();
  service.shutdown();  // every lifecycle event has been emitted after this

  // Checks, outside the timed window: every job completed, and every
  // distinct result is byte-identical to the direct route() of its problem.
  std::map<const RouteResult*, bool> checked;
  for (const Sent& job : sent) {
    const std::string tag = "service job " + std::to_string(job.id);
    if (!out.tally.op(job.id != 0 && job.outcome.state == JobState::kCompleted &&
                          job.outcome.result != nullptr &&
                          probe.done_ns(job.id) != 0,
                      tag + ": rejected or not completed"))
      continue;
    const RouteResult* result = job.outcome.result.get();
    const auto [it, fresh] = checked.emplace(result, true);
    if (fresh) {
      const auto k = static_cast<std::size_t>(job.pool_index);
      it->second =
          solution_to_string(*s.pool[k], result->grid) == s.reference_text[k] &&
          result->stats.expansions == s.reference_expansions[k];
    }
    if (!it->second) out.tally.fail(tag + ": result differs from direct route()");
  }

  // Per-step figures and the ladder verdict. The traced run takes exactly
  // the timestamps the plain run takes; its spans are assembled here,
  // after the ladder.
  SpanLog spans;
  std::vector<double> lag_ms, submit_ms, queue_ms, worker_ms, overhead_ms;
  long long hits = 0;
  std::vector<std::vector<const Sent*>> by_step(schedule.size());
  for (const Sent& job : sent)
    if (job.id != 0 && job.outcome.result != nullptr)
      by_step[job.step].push_back(&job);
  for (std::size_t step = 0; step < schedule.size(); ++step) {
    std::vector<double> latency, depth, step_lag;
    long long within = 0;
    for (const Sent* job : by_step[step]) {
      // The client holds the outcome no earlier than submit() returns.
      const std::int64_t done =
          std::max(probe.done_ns(job->id), job->admitted_ns);
      const double ms = ns_to_ms(done - job->due_ns);
      latency.push_back(ms);
      e.latency_ms.push_back(ms);
      within += ms <= kServiceLimitMs;
      depth.push_back(static_cast<double>(probe.depth(job->id)));
      step_lag.push_back(ns_to_ms(job->submit_ns - job->due_ns));
      lag_ms.push_back(step_lag.back());
      const RouteStats& st = job->outcome.result->stats;
      const double worker =
          job->outcome.from_cache ? 0.0 : st.run_ms + st.improve_ms;
      submit_ms.push_back(ns_to_ms(job->admitted_ns - job->submit_ns));
      queue_ms.push_back(job->outcome.queue_wait_ms);
      worker_ms.push_back(worker);
      overhead_ms.push_back(ns_to_ms(done - job->admitted_ns) -
                            job->outcome.queue_wait_ms - worker);
      hits += job->outcome.from_cache;
      if (!config.trace) continue;
      const auto jid = static_cast<long long>(job - sent.data());
      const int root = spans.add("job", job->due_ns, done, -1, jid);
      spans.add("bench.gen_lag", job->due_ns, job->submit_ns, root, jid);
      spans.add("service.submit", job->submit_ns, job->admitted_ns, root, jid);
      const int exec =
          spans.add("service.execute", job->admitted_ns, done, root, jid);
      std::int64_t at =
          add_sequential(spans, "service.queue_wait", job->admitted_ns,
                         job->outcome.queue_wait_ms, done, exec, jid);
      if (!job->outcome.from_cache) {
        at = add_sequential(spans, "core.run", at, st.run_ms, done, exec, jid);
        add_sequential(spans, "core.improve", at, st.improve_ms, done, exec,
                       jid);
      }
    }
    if (latency.empty()) continue;
    // Growing backlog: the queue depth admissions saw in the step's last
    // fifth exceeds its first fifth by more than four jobs.
    const std::size_t fifth = std::max<std::size_t>(1, depth.size() / 5);
    const double head = mean({depth.begin(), depth.begin() + fifth});
    const double tail_depth = mean({depth.end() - fifth, depth.end()});
    const bool backlog = tail_depth > head + 4;
    const Tail tail = tail_at(latency, kTailPercentile);
    const bool pass = tail.value <= kServiceLimitMs && !backlog &&
                      latency.size() == schedule[step].size();
    if (pass) e.goodput_jobs_per_s = static_cast<double>(within) / step_s;
    out.info.push_back(
        "step " + fmt(kLadder[step], 0) + " jobs/s: " +
        std::to_string(latency.size()) + " jobs, p50 " + fmt(median(latency)) +
        " ms, p" + fmt(tail.percentile, 1) + " " + fmt(tail.value) +
        " ms, queue depth " + fmt(head, 1) + " -> " + fmt(tail_depth, 1) +
        (backlog ? " (growing backlog)" : "") +
        (pass ? ", meets" : ", misses") + " the " + fmt(kServiceLimitMs, 0) +
        " ms limit; generator lag p99 " + fmt(percentile(step_lag, 99)) +
        " ms");
  }
  const double lag_p99 = percentile(lag_ms, 99);
  if (lag_p99 > kMaxGenLagMs) {
    out.valid = false;
    out.info.push_back("invalid: generator fell behind (lag p99 " +
                       fmt(lag_p99) + " ms)");
  }
  const double hit_frac =
      e.latency_ms.empty() ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(e.latency_ms.size());
  out.info.push_back(
      "service_mix: " + std::to_string(kServiceWorkers) +
      " workers, 1 generator thread, 1 waiter thread; cache " +
      std::to_string(options.cache_capacity) + " entries, pool " +
      std::to_string(kServicePool) + " problems, Zipf s=" +
      fmt(kZipfExponent, 2) + ", cache hits " + fmt(hit_frac, 3) +
      "; generator lag p99 " + fmt(lag_p99) + " ms");
  out.info.push_back("output fingerprint " + hex(s.fingerprint) +
                     "; work over the pool: " + s.work.describe());

  e.jobs_per_s = static_cast<double>(e.latency_ms.size()) / window_s;
  e.quality = s.quality;
  if (!config.trace) {
    report_end_to_end(e, out);
    return out;
  }

  out.set("service.submit_ms", mean(submit_ms), "ms");
  out.set("service.queue_wait_p50_ms", median(queue_ms), "ms");
  out.set("service.queue_wait_tail_ms",
          tail_at(queue_ms, kTailPercentile).value, "ms");
  out.set("service.worker_ms", mean(worker_ms), "ms");
  out.set("service.overhead_ms", mean(overhead_ms), "ms");
  out.set("service.cache_hit_frac", hit_frac, "frac");
  out.set("service.rejected",
          static_cast<double>(stats.rejected_queue_full +
                              stats.rejected_prescreen),
          "count");
  out.set("service.browned", static_cast<double>(stats.browned_out), "count");
  out.set("service.peak_queue_depth",
          static_cast<double>(stats.peak_queue_depth), "count");
  out.set("bench.gen_lag_ms", lag_p99, "ms");
  // Tracing adds no work inside the ladder (see above).
  out.set("bench.trace_overhead_frac", 0.0, "frac");
  report_work(s.work, out);
  out.set("verify.layout_ms", s.verify_ms / kServicePool, "ms");

  std::vector<Problem> problems;
  for (const auto& problem : s.pool) problems.push_back(*problem);
  report_problem_layer(problems, out);
  report_self_time(spans, out);
  return out;
}

// ===========================================================================
// eco_session: one designer's closed loop of deltas into a service session
// ===========================================================================

constexpr int kEcoTiles = 32;  // 32 x 32 tiles of 8 x 8 cells: 1024 nets
constexpr int kEcoTile = 8;
constexpr int kEcoEdits = 8000;
constexpr int kEcoCountedDeltas = 16;  // deltas in the fingerprint and work
constexpr double kEcoLimitMs = 100;
constexpr std::size_t kEcoWindow = 32;  // deltas per throughput window

struct EcoSetup {
  std::unique_ptr<RoutingService> service;
  std::uint64_t session = 0;
  std::shared_ptr<const Problem> base_problem;
  std::shared_ptr<const RouteResult> base_layout;
  std::vector<ProblemEdit> edits;
  std::uint64_t fingerprint = 0;
  Work work;
  double verify_ms = 0;
};

EcoSetup eco_setup(std::uint64_t seed, Tally& tally) {
  EcoSetup s;
  auto board = std::make_shared<const Problem>(tiled_board(
      seed ^ 0xec0ULL, kEcoTiles, kEcoTiles, kEcoTile, kEcoTile));
  s.edits = eco_edits(seed, *board, kEcoTile, kEcoTile, kEcoEdits);
  const RouteResult direct = route(make_request(board.get()));

  ServiceOptions options;
  options.workers = 1;
  s.service = std::make_unique<RoutingService>(options);
  JobRequest base;
  base.problem = board;
  base.improve_passes = kImprovePasses;
  auto ticket = s.service->open_session(std::move(base));
  if (!tally.op(ticket.ok(), "open_session rejected")) return s;
  s.session = ticket->session;
  auto outcome = s.service->wait(ticket->base_job);
  if (!tally.op(outcome.ok() && outcome->state == JobState::kCompleted &&
                    outcome->result != nullptr && outcome->result->status.ok(),
                "session base route did not complete"))
    return s;
  s.base_problem = board;
  s.base_layout = outcome->result;
  const std::int64_t v0 = now_ns();
  const VerifyReport report = verify(*board, s.base_layout->grid);
  s.verify_ms = ns_to_ms(now_ns() - v0);
  s.fingerprint = layout_fingerprint(s.base_layout->grid);
  tally.op(report.drc_clean() &&
               s.fingerprint == layout_fingerprint(direct.grid),
           "session base layout does not verify or differs from route()");
  s.work.add(*s.base_layout);
  return s;
}

/// route_delta's public parts, called one by one on the same base and
/// edit, each timed: apply_edit -> validate_status -> plan_delta ->
/// assess_routability -> route(plan.warm), then the edited problem's hash.
struct ComposedDelta {
  bool ok = false;  ///< every part succeeded and the edit is feasible
  double apply_ms = 0, validate_ms = 0, plan_ms = 0, assess_ms = 0,
         warm_route_ms = 0, hash_ms = 0;
  std::uint64_t layout = 0;  ///< fingerprint of the warm route's layout
};

ComposedDelta compose_delta(const Problem& base, const RoutingGrid& layout,
                            const ProblemEdit& edit) {
  ComposedDelta out;
  const std::int64_t c0 = now_ns();
  StatusOr<Problem> edited = apply_edit(base, edit);
  const std::int64_t c1 = now_ns();
  out.apply_ms = ns_to_ms(c1 - c0);
  if (!edited.ok()) return out;
  const bool valid = edited->validate_status().empty();
  const std::int64_t c2 = now_ns();
  const DeltaPlan plan = plan_delta(base, layout, *edited, edit);
  const std::int64_t c3 = now_ns();
  const bool feasible = !assess_routability(*edited).provably_infeasible();
  const std::int64_t c4 = now_ns();
  const RouteResult warm = route(make_request(&plan.warm));
  const std::int64_t c5 = now_ns();
  const std::uint64_t hash = edited->canonical_hash();
  const std::int64_t c6 = now_ns();
  out.validate_ms = ns_to_ms(c2 - c1);
  out.plan_ms = ns_to_ms(c3 - c2);
  out.assess_ms = ns_to_ms(c4 - c3);
  out.warm_route_ms = ns_to_ms(c5 - c4);
  out.hash_ms = ns_to_ms(c6 - c5);
  out.layout = layout_fingerprint(warm.grid);
  out.ok = valid && feasible && hash != 0;
  return out;
}

RunResult eco_session(const Config& config) {
  RunResult out;
  std::vector<EcoSetup> setups;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::int64_t t0 = now_ns();
    setups.push_back(eco_setup(config.seed, out.tally));
    setup_s.push_back(since_s(t0));
  }
  EndToEnd e;
  e.setup_s = median_setup(setup_s, setups, out);
  EcoSetup& s = setups.back();
  if (s.base_layout == nullptr) {
    out.valid = false;
    return out;
  }

  SpanLog spans;
  std::shared_ptr<const Problem> problem = s.base_problem;
  std::shared_ptr<const RouteResult> layout = s.base_layout;
  std::uint64_t fingerprint = s.fingerprint;
  Work work;
  long long rerouted = 0, planned = 0;
  Quality quality;
  std::vector<double> plain_latency, traced_latency, equivalence_ms;
  std::vector<double> submit_ms, queue_ms, worker_ms, overhead_ms, run_ms,
      improve_ms;
  std::vector<double> apply_ms, validate_ms, plan_ms, assess_ms, warm_ms,
      hash_ms;
  double engine_ms = 0;
  long long engine_expansions = 0;
  std::int64_t busy_ns = 0;
  const auto budget_ns = static_cast<std::int64_t>(config.seconds * 1e9);
  std::size_t i = 0;
  for (; i < s.edits.size() && busy_ns < budget_ns; ++i) {
    const ProblemEdit& edit = s.edits[i];
    const bool traced = config.trace && i % 2 == 1;
    DeltaJobRequest request;
    request.edit = edit;
    request.improve_passes = kImprovePasses;

    const std::int64_t t0 = now_ns();
    auto id = s.service->submit_delta(s.session, std::move(request));
    const std::int64_t t1 = now_ns();
    StatusOr<JobOutcome> outcome =
        id.ok() ? s.service->wait(*id)
                : StatusOr<JobOutcome>(id.status());
    const std::int64_t t2 = now_ns();
    busy_ns += t2 - t0;
    const double ms = ns_to_ms(t2 - t0);
    e.latency_ms.push_back(ms);

    // Checks, outside the timed window.
    const std::string tag = "delta " + std::to_string(i);
    if (!out.tally.op(outcome.ok() && outcome->state == JobState::kCompleted &&
                          outcome->result != nullptr &&
                          outcome->result->status.ok() &&
                          outcome->delta != nullptr &&
                          !outcome->delta->prescreen_rejected,
                      tag + ": not committed")) {
      out.valid = false;  // the edit stream no longer matches the session
      break;
    }
    const RouteResult& result = *outcome->result;
    const std::int64_t q0 = now_ns();
    const DeltaEquivalenceReport eq = verify_delta_equivalence(
        *outcome->problem, result.grid, layout->grid,
        outcome->delta->preserved);
    equivalence_ms.push_back(ns_to_ms(now_ns() - q0));
    if (!eq.equivalent()) out.tally.fail(tag + ": not delta-equivalent");
    if (i < kEcoCountedDeltas) {
      fingerprint = fnv_mix(fingerprint, layout_fingerprint(result.grid));
      work.add(result);
      rerouted += static_cast<long long>(outcome->delta->rerouted.size());
      planned += static_cast<long long>(outcome->delta->rerouted.size() +
                                        outcome->delta->preserved.size());
      if (i + 1 == kEcoCountedDeltas) quality.add(*outcome->problem, eq.delta);
    }

    if (traced) {
      traced_latency.push_back(ms);
      const double worker = result.stats.run_ms + result.stats.improve_ms;
      submit_ms.push_back(ns_to_ms(t1 - t0));
      queue_ms.push_back(outcome->queue_wait_ms);
      worker_ms.push_back(worker);
      run_ms.push_back(result.stats.run_ms);
      improve_ms.push_back(result.stats.improve_ms);
      overhead_ms.push_back(ns_to_ms(t2 - t1) - outcome->queue_wait_ms -
                            worker);
      engine_ms += worker;
      engine_expansions += result.stats.expansions;
      const auto jid = static_cast<long long>(i);
      const int root = spans.add("job", t0, t2, -1, jid);
      spans.add("service.submit", t0, t1, root, jid);
      const int exec = spans.add("service.execute", t1, t2, root, jid);
      std::int64_t at = add_sequential(spans, "service.queue_wait", t1,
                                       outcome->queue_wait_ms, t2, exec, jid);
      at = add_sequential(spans, "core.run", at, result.stats.run_ms, t2, exec,
                          jid);
      add_sequential(spans, "core.improve", at, result.stats.improve_ms, t2,
                     exec, jid);

      const ComposedDelta parts = compose_delta(*problem, layout->grid, edit);
      out.tally.op(parts.ok && parts.layout == layout_fingerprint(result.grid),
                   tag + ": composed delta parts differ from route_delta");
      apply_ms.push_back(parts.apply_ms);
      validate_ms.push_back(parts.validate_ms);
      plan_ms.push_back(parts.plan_ms);
      assess_ms.push_back(parts.assess_ms);
      warm_ms.push_back(parts.warm_route_ms);
      hash_ms.push_back(parts.hash_ms);
    } else {
      plain_latency.push_back(ms);
    }
    problem = outcome->problem;
    layout = outcome->result;
  }
  if (i < static_cast<std::size_t>(kEcoCountedDeltas)) {
    out.valid = false;
    out.info.push_back("invalid: fewer than " +
                       std::to_string(kEcoCountedDeltas) + " deltas ran");
  }
  const double busy_s = static_cast<double>(busy_ns) / 1e9;
  if (!closed_loop_figures(kEcoWindow, kEcoLimitMs, e) && !config.trace) {
    out.valid = false;
    out.info.push_back("invalid: fewer than three windows of deltas");
  }
  e.quality = quality;
  out.info.push_back(
      "eco_session: 1 designer thread, 1 service worker; " +
      std::to_string(s.base_problem->net_count()) + "-net base, " +
      std::to_string(i) + " deltas in " + fmt(busy_s, 3) +
      " s of delta time; latency limit " + fmt(kEcoLimitMs, 0) + " ms");
  out.info.push_back("output fingerprint " + hex(fingerprint) +
                     "; work over base + first " +
                     std::to_string(kEcoCountedDeltas) + " deltas: " +
                     s.work.describe() + " | " + work.describe() +
                     " rerouted=" + std::to_string(rerouted));
  if (!config.trace) {
    report_end_to_end(e, out);
    return out;
  }

  out.set("delta.apply_ms", mean(apply_ms), "ms");
  out.set("problem.validate_ms", mean(validate_ms), "ms");
  out.set("problem.hash_ms", mean(hash_ms), "ms");
  out.set("delta.plan_ms", mean(plan_ms), "ms");
  out.set("delta.assess_ms", mean(assess_ms), "ms");
  out.set("delta.warm_route_ms", mean(warm_ms), "ms");
  out.set("delta.rerouted_frac",
          planned == 0 ? 0.0
                       : static_cast<double>(rerouted) /
                             static_cast<double>(planned),
          "frac");
  out.set("delta.expansions", static_cast<double>(work.expansions), "count");
  out.set("verify.equivalence_ms", mean(equivalence_ms), "ms");
  out.set("verify.layout_ms", s.verify_ms, "ms");
  out.set("core.route_ms", mean(warm_ms), "ms");
  out.set("core.run_ms", mean(run_ms), "ms");
  out.set("core.improve_ms", mean(improve_ms), "ms");
  out.set("search.ns_per_expansion",
          engine_expansions == 0 ? 0.0 : engine_ms * 1e6 / engine_expansions,
          "ns");
  report_work(work, out);
  out.set("service.submit_ms", mean(submit_ms), "ms");
  out.set("service.queue_wait_p50_ms", median(queue_ms), "ms");
  out.set("service.queue_wait_tail_ms",
          tail_at(queue_ms, kTailPercentile).value, "ms");
  out.set("service.worker_ms", mean(worker_ms), "ms");
  out.set("service.overhead_ms", mean(overhead_ms), "ms");
  const ServiceStats stats = s.service->stats();
  out.set("service.peak_queue_depth",
          static_cast<double>(stats.peak_queue_depth), "count");
  out.set("bench.trace_overhead_frac",
          mean(traced_latency) / mean(plain_latency) - 1.0, "frac");
  report_self_time(spans, out);
  return out;
}

}  // namespace

RunResult run_congested_batch(const Config& config) {
  return run_library(config, "congested_batch", 1000, [&] {
    return congested_inputs(config.seed, config.examples_dir);
  });
}

RunResult run_open_board(const Config& config) {
  return run_library(config, "open_board", 1500,
                     [&] { return open_board_inputs(config.seed); });
}

RunResult run_service_mix(const Config& config) { return service_mix(config); }

RunResult run_eco_session(const Config& config) { return eco_session(config); }

}  // namespace perfbench
