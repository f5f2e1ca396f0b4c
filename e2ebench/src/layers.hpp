#pragma once
// Per-layer measurements: host time taken around public calls (with a
// benchmark-side trace span of the same name), deltas of the counters the
// toolkit already keeps, and the per-layer metrics derived from both.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"

namespace e2e {

/// Host seconds of every timed call in one round, by span name.
class Timings {
 public:
  void add(const std::string& name, double seconds) { samples_[name].push_back(seconds); }
  double sum(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  const std::vector<double>& samples(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Times one call from outside: a steady_clock interval recorded into
/// Timings, and an "e2e" trace span of the same name while a trace sink is
/// on. `name` must be a string literal (the span keeps the pointer).
class Timed {
 public:
  Timed(Timings& timings, const char* name)
      : timings_(timings), name_(name), span_(name, "e2e"),
        start_(std::chrono::steady_clock::now()) {}
  ~Timed() {
    timings_.add(name_, std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_).count());
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Timings& timings_;
  const char* name_;
  orp::obs::Span span_;
  std::chrono::steady_clock::time_point start_;
};

/// Counter values and histogram (count, sum) pairs gained between two
/// registry snapshots.
struct CounterDelta {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  ///< count, sum
  double counter(const std::string& name) const;
  double hist_count(const std::string& name) const;
  double hist_sum(const std::string& name) const;
};
CounterDelta diff(const orp::obs::MetricsSnapshot& before,
                  const orp::obs::MetricsSnapshot& after);

/// Per-layer metrics of one round from its timings and counter deltas.
/// A layer the workload does not exercise reads 0.
std::map<std::string, double> round_layer_metrics(const Timings& timings,
                                                  const CounterDelta& delta);

/// pipeline.<stage>_s of one traced round: the total time of each stage
/// span, read back from the trace's self-time analysis.
std::map<std::string, double> pipeline_metrics(
    const orp::obs::report::TraceAnalysis& analysis);

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);

}  // namespace e2e
