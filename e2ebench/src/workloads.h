// Copyright 2026 The ARSP Authors.
//
// The benchmark's four workloads, each driven through the entry points users
// call: ArspEngine::Solve in process, ArspClient::Query against an
// in-process ArspServer, and an ArspServer fronting a cluster::Coordinator
// over RemoteShards. BENCH.md next to this file is the glossary of the
// workloads, the metrics and the layer → end-to-end map.

#ifndef E2EBENCH_SRC_WORKLOADS_H_
#define E2EBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/harness.h"

namespace e2ebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time of the run.
  double seconds = 10.0;
  /// The traced run: an untraced phase, then a traced phase, each half of
  /// `seconds`, then the per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its Chrome trace_event JSON.
  std::string trace_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// The workload does not exercise this metric's layer (value stays 0).
  bool absent = false;
  /// Extra context for the human-readable table (e.g. a sample count).
  std::string note;
};

struct Report {
  /// One line: generator spec, constraints, request mix, clients, loop.
  std::string provenance;
  /// Every request the run issued (both phases of a traced run).
  Tally tally;
  /// Set when the reference answers disagreed with each other.
  std::string oracle_error;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;

  bool correct() const {
    return oracle_error.empty() && tally.not_correct() == 0;
  }
};

/// solve-nba, solve-large, serve-hot, cluster-scatter.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Errors are set-up failures (no result is reported);
/// wrong answers are reported through Report::correct.
arsp::StatusOr<Report> RunWorkload(const RunConfig& config);

}  // namespace e2ebench

#endif  // E2EBENCH_SRC_WORKLOADS_H_
