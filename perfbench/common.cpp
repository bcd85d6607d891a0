#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_at(std::vector<double> values, double p) {
  Tail tail;
  tail.percentile = p;
  tail.samples = values.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  tail.beyond = values.size() - std::min(rank, values.size());
  tail.value = percentile(std::move(values), p);
  return tail;
}

std::vector<double> open_loop_schedule(double rate, double seconds) {
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> due(count);
  for (std::size_t i = 0; i < count; ++i)
    due[i] = static_cast<double>(i) / rate;
  return due;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

bool Tally::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
  return ok;
}

void Tally::fail(const std::string& what) {
  ++failed;
  if (why.size() < 8) why.push_back(what);
}

std::map<std::string, double> SpanLog::self_ms_by_layer(double* total_ms,
                                                        int* overlaps) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, std::int64_t> self_ns;
  std::int64_t total = 0;
  int bad = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t self = s.end_ns - s.start_ns - child_ns[i];
    if (self < 0) ++bad;
    const std::string_view name = s.name;
    const std::string layer =
        s.parent < 0 ? "other" : std::string(name.substr(0, name.find('.')));
    self_ns[layer] += self;
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const auto& [layer, ns] : self_ns) out[layer] = ns_to_ms(ns);
  if (total_ms != nullptr) *total_ms = ns_to_ms(total);
  if (overlaps != nullptr) *overlaps = bad;
  return out;
}

std::pair<double, long long> SpanLog::total(std::string_view name) const {
  double ms = 0;
  long long count = 0;
  for (const Span& s : spans_)
    if (name == s.name) {
      ms += ns_to_ms(s.end_ns - s.start_ns);
      ++count;
    }
  return {ms, count};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
