#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string host_record_json() {
  std::string load = "unknown";
  {
    std::ifstream in("/proc/loadavg");
    double one = 0, five = 0, fifteen = 0;
    if (in >> one >> five >> fifteen) {
      load = scidock::strformat("[%.2f, %.2f, %.2f]", one, five, fifteen);
    }
  }
  return scidock::strformat(
      "{\"nproc\": %ld, \"loadavg\": %s, \"build_type\": \"%s\", "
      "\"simd_backend\": \"%s\", \"simd_lane_width\": %d}",
      sysconf(_SC_NPROCESSORS_ONLN), load.c_str(), PERFBENCH_BUILD_TYPE,
      scidock::simd::backend_name(), scidock::simd::f64x::kWidth);
}

}  // namespace perfbench
