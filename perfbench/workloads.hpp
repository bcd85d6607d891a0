#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "core/api.hpp"

namespace perfbench {

/// One run's settings, all from the command line.
struct Config {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string examples_dir = "examples/data";
};

/// Runs `setup` this many times per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Every workload's latency tail is this percentile of its jobs. Each run
/// has at least ten jobs beyond it; a higher percentile would measure the
/// host's scheduling hiccups (several ms at p99) more than the program.
inline constexpr double kTailPercentile = 90;

/// The one routing configuration every workload uses: library defaults,
/// one improve pass, no multi-start.
inline constexpr int kImprovePasses = 1;

RunResult run_congested_batch(const Config& config);
RunResult run_open_board(const Config& config);
RunResult run_service_mix(const Config& config);
RunResult run_eco_session(const Config& config);

/// The reference a library job's output is checked against: the solution
/// text's FNV hash and the exact search work of a verified route.
struct OutputReference {
  std::uint64_t text_fnv = 0;
  long long expansions = 0;
};

/// Checks one library job's output against its reference. Empty when it
/// matches; otherwise the reason.
std::string check_output(const gridroute::RouteResult& result,
                         const std::string& solution_text,
                         const OutputReference& reference);

}  // namespace perfbench
