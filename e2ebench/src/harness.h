// Copyright 2026 The ARSP Authors.
//
// The benchmark's own measurement machinery, kept apart from the program it
// measures so that a change to the program cannot redefine a metric:
//
//   * NearestRank — the percentile definition behind p50_ms / p90_ms;
//   * Tally — request accounting behind error_rate (failed requests,
//     RETRY_LATER refusals and wrong answers all count against it);
//   * the oracle comparisons every workload checks answers with;
//   * SpanStore + TimedBackend — the traced run's spans, recorded from
//     outside the program around calls into each layer's public entry
//     points, and written out as Chrome trace_event JSON when the run ends.

#ifndef E2EBENCH_SRC_HARNESS_H_
#define E2EBENCH_SRC_HARNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/backend.h"
#include "src/net/protocol.h"

namespace e2ebench {

/// Monotonic now in nanoseconds (steady_clock).
uint64_t NowNs();

/// The nearest-rank q-quantile: the ceil(q·n)-th smallest sample (1-based),
/// q in (0, 1]. 0 for an empty sample. Takes its sample by value (sorts a
/// copy).
double NearestRank(std::vector<double> samples, double q);

/// How one request ended, from the client's point of view.
enum class Outcome {
  kCorrect,     ///< answered, and the answer matched the oracle
  kFailed,      ///< an error status (transport, protocol, server-side)
  kRetryLater,  ///< refused by admission control (typed RETRY_LATER)
  kWrong,       ///< answered, but the oracle rejected the answer
};

/// The outcome of a request that returned `status` without an answer.
/// RETRY_LATER surfaces from ArspClient as kUnavailable.
Outcome OutcomeOf(const arsp::Status& status);

/// Request accounting over one measured phase.
struct Tally {
  int64_t attempted = 0;
  int64_t correct = 0;
  int64_t failed = 0;
  int64_t retry_later = 0;
  int64_t wrong = 0;

  void Add(Outcome outcome);
  void Merge(const Tally& other);
  /// Requests that did not give a correct answer.
  int64_t not_correct() const { return attempted - correct; }
  /// not_correct ÷ attempted; 0 when nothing was attempted.
  double error_rate() const;
};

// ------------------------------------------------------------------ oracle

/// True iff both vectors have the same length and every element has the
/// same bit pattern (the determinism contracts are bit-identity).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);

/// True iff both vectors have the same length and differ by at most `tol`
/// everywhere (cross-solver agreement).
bool WithinTolerance(const std::vector<double>& a,
                     const std::vector<double>& b, double tol);

/// True iff the wire ranking carries exactly the reference (object id,
/// probability) pairs, in order, probabilities bit for bit.
bool SameRanking(const std::vector<std::pair<int, double>>& want,
                 const std::vector<arsp::net::RankedEntry>& got);

// ----------------------------------------------------------------- tracing

/// One span of the traced run. `id` is unique in the run; `parent` is the
/// id of the span that caused it (0 for a client-side root), so the spans
/// of one request form a tree rooted at its client call.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int shard = -1;          ///< shard index for cluster spans, else -1
  int thread = 0;          ///< recording thread (set by SpanStore::Add)
  double solve_ms = 0.0;   ///< solver time reported by the layer's answer
  bool cache_hit = false;  ///< the layer's answer came from its cache

  double DurationMs() const;
};

/// Thread-safe, in-memory span collector. Recording is off until Enable;
/// while off, Add is a no-op and decorators skip their clock reads.
class SpanStore {
 public:
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh span id (never 0).
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Add(SpanRecord span);
  std::vector<SpanRecord> Snapshot() const;

  /// Writes every recorded span as one Chrome trace_event JSON document
  /// ("X" complete events, one track per recording thread; args carry id,
  /// parent, the root request and the shard).
  arsp::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, int> threads_;
};

/// Milliseconds of `span` not covered by the union of its children's
/// intervals (children are clipped to the span) — the layer's self time.
double SelfTimeMs(const SpanRecord& span,
                  const std::vector<const SpanRecord*>& children);

/// A ServiceBackend decorator that records one span per QUERY around the
/// wrapped backend while the store is enabled, and forwards everything else
/// untouched. The wire's trace_id carries span ids between layers: the
/// incoming trace_id is the caller's span (this span's parent), and with
/// `stamp_children` the request is forwarded with trace_id set to this
/// span, so the next layer down — across a socket or a thread pool — links
/// to it. The program reads trace_id only when want_trace is set, which the
/// benchmark never sets, so answers are unaffected.
class TimedBackend : public arsp::net::ServiceBackend {
 public:
  TimedBackend(std::shared_ptr<arsp::net::ServiceBackend> inner,
               std::string span_name, int shard, bool stamp_children,
               SpanStore* store);

  arsp::StatusOr<arsp::net::LoadDatasetResponse> Load(
      const arsp::net::LoadDatasetRequest& request) override;
  arsp::StatusOr<arsp::net::AddViewResponse> AddView(
      const arsp::net::AddViewRequest& request) override;
  arsp::StatusOr<arsp::net::QueryResponseWire> Query(
      const arsp::net::QueryRequestWire& request) override;
  arsp::StatusOr<arsp::net::StatsResponse> Stats(
      const arsp::net::StatsRequest& request) override;
  arsp::Status Drop(const arsp::net::DropRequest& request) override;

 private:
  std::shared_ptr<arsp::net::ServiceBackend> inner_;
  std::string span_name_;
  int shard_;
  bool stamp_children_;
  SpanStore* store_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SRC_HARNESS_H_
