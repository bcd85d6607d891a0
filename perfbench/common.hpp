#pragma once

// Measurement plumbing shared by the workloads: clocks, percentiles and
// tails, FNV fingerprints, the in-memory span recorder, and the result
// record a run prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// A latency tail: the value at a fixed percentile and how many samples
/// lie beyond it. A tail is only reported with at least ten beyond it.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t beyond = 0;   ///< samples strictly past the percentile's rank
  std::size_t samples = 0;
};
Tail tail_at(std::vector<double> values, double p);

/// Fixed-rate open-loop schedule: due offsets (seconds from the step's
/// start) for `rate` jobs per second over `seconds`.
std::vector<double> open_loop_schedule(double rate, double seconds);

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a, chainable through `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ull);
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v);

// ---------------------------------------------------------------------------
// Correctness tally
// ---------------------------------------------------------------------------

/// Operations attempted and failed; a failure is an error, a rejection, a
/// failed output check or a determinism mismatch. `why` keeps the first
/// few failure reasons for the report.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> why;

  /// Counts one operation; returns `ok`.
  bool op(bool ok, const std::string& what = {});
  /// Charges a failure to an operation already counted.
  void fail(const std::string& what);
  double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One traced interval. Spans of one job share `job`; `parent` indexes the
/// span that caused it (-1 for a root). Names are "<layer>.<call>"; a root
/// job span is named "job" and its self time is the `other` remainder.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  long long job = -1;
};

/// In-memory span store, written out (aggregated) when the run ends.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }
  int add(const char* name, std::int64_t start, std::int64_t end, int parent,
          long long job) {
    spans_.push_back({name, start, end, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Self time (ms) summed per layer over every span of a job tree, with
  /// the root "job" spans' self time reported as layer "other". Also
  /// returns the summed root duration through `total_ms` and the number of
  /// spans whose children outlast them through `overlaps`.
  std::map<std::string, double> self_ms_by_layer(double* total_ms,
                                                 int* overlaps) const;
  /// Summed duration (ms) and count of the spans with this name.
  std::pair<double, long long> total(std::string_view name) const;

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the metrics of the
/// requested mode, and informational lines printed before the result.
struct RunResult {
  bool valid = true;  ///< false when the run itself was unsound
  Tally tally;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
