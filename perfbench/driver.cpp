// perfbench_driver — runs one repetition of one benchmark workload and
// prints its result.
//
//   perfbench_driver --workload screen_auto|campaign_prov --seed N --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Lines before it carry
// the host record and the output check's findings. Exit status is 0 when
// a result was printed, non-zero on a usage error or an exception.
// perfbench/run.py runs it once per repetition and takes the medians.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"pairs_per_s", "1/s"},    {"pairs_ok_ratio", "ratio"},
    {"core_s_per_pair", "s"},  {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},    {"query_set_s", "s"},
};

// A layer a workload does not exercise reads 0 (no AutoGrid in the
// campaign, no simulator or WAL in the screen).
constexpr MetricSpec kPerLayer[] = {
    {"data.stage_s", "s"},
    {"dock.lut_build_s", "s"},
    {"dock.autogrid_busy_s", "s"},
    {"dock.autogrid_compute_s", "s"},
    {"dock.autogrid_wait_s", "s"},
    {"dock.mapsets_computed", "count"},
    {"dock.gridmap_hit_ratio", "ratio"},
    {"dock.mapsets_unused", "count"},
    {"dock.ad4_ms_per_pair", "ms"},
    {"dock.vina_ms_per_pair", "ms"},
    {"mol.prep_busy_s", "s"},
    {"wf.activations", "count"},
    {"wf.activations_failed", "count"},
    {"wf.pool_queue_wait_s", "s"},
    {"wf.thread_busy_ratio", "ratio"},
    {"wf.sim_run_s", "s"},
    {"cloud.tet_s", "s"},
    {"prov.ingest_s", "s"},
    {"prov.records_durable", "count"},
    {"prov.group_commits", "count"},
    {"prov.wal_replay_s", "s"},
    {"sql.query1_ms", "ms"},
    {"sql.query2_ms", "ms"},
    {"sql.figure5_ms", "ms"},
    {"sql.forensics_ms", "ms"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.layer_residual_ratio", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload screen_auto|campaign_prov "
               "--seed N --trace 0|1\n");
  return 2;
}

std::string arg(int argc, char** argv, const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.workload = arg(argc, argv, "workload");
  const std::string seed = arg(argc, argv, "seed");
  const std::string trace = arg(argc, argv, "trace");
  const bool screen = options.workload == "screen_auto";
  if ((!screen && options.workload != "campaign_prov") || seed.empty() ||
      (trace != "0" && trace != "1")) {
    return usage();
  }
  options.seed = std::strtoull(seed.c_str(), nullptr, 10);
  options.trace = trace == "1";

  std::printf("host: %s\n", perfbench::host_record_json().c_str());
  perfbench::Outcome out;
  try {
    out = screen ? perfbench::run_screen_auto(options)
                 : perfbench::run_campaign_prov(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());

  const std::vector<MetricSpec> specs =
      options.trace
          ? std::vector<MetricSpec>(std::begin(kPerLayer), std::end(kPerLayer))
          : std::vector<MetricSpec>(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const auto& [name, value] : out.metrics) {
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const MetricSpec& m) { return name == m.name; })) {
      std::fprintf(stderr, "perfbench_driver: unlisted metric %s\n", name.c_str());
      return 1;
    }
  }
  std::string metrics;
  for (const MetricSpec& m : specs) {
    const auto it = out.metrics.find(m.name);
    if (it == out.metrics.end() && !options.trace) {
      std::fprintf(stderr, "perfbench_driver: %s was not measured\n", m.name);
      return 1;
    }
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench_driver: %s is not finite\n", m.name);
      return 1;
    }
    std::printf("%-26s %16.6f %s\n", m.name, value, m.unit);
    char entry[160];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += entry;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false", out.attempted, out.failed,
              metrics.c_str());
  return 0;
}
