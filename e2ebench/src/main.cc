// Copyright 2026 The ARSP Authors.
//
// arsp_e2ebench — runs one workload of the end-to-end ARSP benchmark.
//
//   arsp_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-file PATH]
//
// Prints a table of every metric with its unit, then, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (metrics of a layer the workload does not exercise read 0
// and are marked absent in the table). Exit code 0 iff every answer was
// correct; 1 on a wrong answer or failed request; 2 on a usage or set-up
// error, with no JSON printed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: arsp_e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH]\nworkloads:",
               why);
  for (const std::string& name : e2ebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0) {
        return Usage("--seed must be a non-negative integer");
      }
      config.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0) {
        return Usage("--seconds must be positive");
      }
      config.seconds = number;
    } else if (flag == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        return Usage("--trace must be 0 or 1");
      }
      config.trace = std::string(value) == "1";
    } else if (flag == "--trace-file") {
      config.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty()) return Usage("--workload is required");

  auto report = e2ebench::RunWorkload(config);
  if (!report.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n", report.status().ToString().c_str());
    return 2;
  }

  std::printf("workload %s  seed %llu  seconds %g  %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? "traced (per-layer metrics)"
                           : "untraced (end-to-end metrics)");
  std::printf("  %s\n", report->provenance.c_str());
  if (!report->oracle_error.empty()) {
    std::printf("  ORACLE MISMATCH: %s\n", report->oracle_error.c_str());
  }
  const e2ebench::Tally& tally = report->tally;
  std::printf("  %-32s %14.6g %-8s %lld of %lld: failed %lld, retry_later "
              "%lld, wrong %lld\n",
              "error_rate", tally.error_rate(), "fraction",
              static_cast<long long>(tally.not_correct()),
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              static_cast<long long>(tally.retry_later),
              static_cast<long long>(tally.wrong));
  std::string json;
  for (const e2ebench::Metric& metric : report->metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("  %-32s %14.6g %-8s %s%s\n", metric.name.c_str(), value,
                metric.unit.c_str(), metric.absent ? "absent " : "",
                metric.note.c_str());
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", metric.name.c_str(), value,
                  metric.unit.c_str());
    json += entry;
  }
  if (!config.trace_path.empty() && config.trace) {
    std::printf("  chrome trace: %s\n", config.trace_path.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      report->correct() ? "true" : "false",
      static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.not_correct()), json.c_str());
  return report->correct() ? 0 : 1;
}
