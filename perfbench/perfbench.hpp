#pragma once

/// \file perfbench.hpp
/// The end-to-end benchmark driver: two workloads (a native screen and a
/// durable-provenance campaign) run through the public library API,
/// their outputs checked against PROV-Wf, and every metric printed by name
/// and unit. See perfbench/README.md for the workloads and the metrics.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "wf/pipeline.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
};

/// What one repetition of a workload reports: the output check's verdict,
/// the pair counts behind it, and the metrics (end-to-end untraced,
/// per-layer traced).
struct Outcome {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  /// Metric values by name; units live with the metric list in driver.cpp.
  std::map<std::string, double> metrics;
  /// Check findings and sample facts, printed before the result line.
  std::vector<std::string> notes;

  void add(const std::string& name, double value) { metrics[name] = value; }
  /// Record a failed check: the run is no longer correct.
  void fail(std::string why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + std::move(why));
  }
};

// ---- host.cpp: clocks, process counters, host record ----

double wall_now();
/// User + system CPU seconds of the whole process so far.
double cpu_seconds();
/// Peak resident set of the process so far, MiB.
double peak_rss_mb();
double median(std::vector<double> values);
/// One-line JSON record of the host and build: nproc, load average,
/// build type, SIMD backend and lane width.
std::string host_record_json();

// ---- layers.cpp: outside-in per-layer instrumentation ----

/// Busy time and call count of every stage implementation, collected by
/// timers wrapped around each wf::Stage::impl from outside the library.
class StageTimers {
 public:
  /// A copy of `pipeline` whose stage impls record into this object.
  scidock::wf::Pipeline wrap(const scidock::wf::Pipeline& pipeline);
  double busy_s(const std::string& tag) const;
  long long calls(const std::string& tag) const;
  double total_busy_s() const;

 private:
  struct Slot {
    std::atomic<long long> busy_ns{0};
    std::atomic<long long> calls{0};
  };
  /// One slot per stage tag, created by wrap(); the wrapped impls hold
  /// the slots they record into.
  std::map<std::string, std::shared_ptr<Slot>> slots_;
};

/// Sum of the durations (seconds) of every complete span named `name`.
double complete_span_seconds(const scidock::obs::TraceRecorder& trace,
                             const std::string& name);
/// _sum of a histogram series, 0 when never registered.
double histogram_sum(scidock::obs::MetricsRegistry& metrics,
                     const std::string& name);

// ---- workloads.cpp ----

Outcome run_screen_auto(const Options& options);
Outcome run_campaign_prov(const Options& options);

}  // namespace perfbench
