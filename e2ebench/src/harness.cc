// Copyright 2026 The ARSP Authors.

#include "src/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace e2ebench {

using arsp::Status;
using arsp::StatusCode;
using arsp::StatusOr;
namespace net = arsp::net;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

Outcome OutcomeOf(const Status& status) {
  return status.code() == StatusCode::kUnavailable ? Outcome::kRetryLater
                                                   : Outcome::kFailed;
}

void Tally::Add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kCorrect:
      ++correct;
      break;
    case Outcome::kFailed:
      ++failed;
      break;
    case Outcome::kRetryLater:
      ++retry_later;
      break;
    case Outcome::kWrong:
      ++wrong;
      break;
  }
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  correct += other.correct;
  failed += other.failed;
  retry_later += other.retry_later;
  wrong += other.wrong;
}

double Tally::error_rate() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(not_correct()) /
                              static_cast<double>(attempted);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool WithinTolerance(const std::vector<double>& a,
                     const std::vector<double>& b, double tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(std::fabs(a[i] - b[i]) <= tol)) return false;
  }
  return true;
}

bool SameRanking(const std::vector<std::pair<int, double>>& want,
                 const std::vector<net::RankedEntry>& got) {
  if (want.size() != got.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].first != got[i].object_id ||
        std::memcmp(&want[i].second, &got[i].prob, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

double SpanRecord::DurationMs() const {
  return end_ns >= start_ns ? static_cast<double>(end_ns - start_ns) / 1e6
                            : 0.0;
}

void SpanStore::Add(SpanRecord span) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  span.thread = threads_
                    .emplace(std::this_thread::get_id(),
                             static_cast<int>(threads_.size()) + 1)
                    .first->second;
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> SpanStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status SpanStore::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& span : spans) {
    by_id[span.id] = &span;
    origin = std::min(origin, span.start_ns);
  }
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    // The root request: follow parents up to the client-side span.
    const SpanRecord* root = &span;
    for (auto it = by_id.find(root->parent); it != by_id.end();
         it = by_id.find(root->parent)) {
      root = it->second;
    }
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"request\":%llu,\"shard\":%d,\"solve_ms\":%.6f,"
        "\"cache_hit\":%s}}",
        i == 0 ? "" : ",", span.name.c_str(), span.thread,
        static_cast<double>(span.start_ns - origin) / 1e3,
        static_cast<double>(span.end_ns - span.start_ns) / 1e3,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(root->id), span.shard, span.solve_ms,
        span.cache_hit ? "true" : "false");
    out << line;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  out.close();
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

double SelfTimeMs(const SpanRecord& span,
                  const std::vector<const SpanRecord*>& children) {
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (const SpanRecord* child : children) {
    const uint64_t begin = std::max(child->start_ns, span.start_ns);
    const uint64_t end = std::min(child->end_ns, span.end_ns);
    if (begin < end) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  uint64_t busy = 0;
  uint64_t reach = span.start_ns;
  for (const auto& [begin, end] : covered) {
    const uint64_t from = std::max(begin, reach);
    if (end > from) {
      busy += end - from;
      reach = end;
    }
  }
  const uint64_t total = span.end_ns - span.start_ns;
  return static_cast<double>(total - std::min(total, busy)) / 1e6;
}

TimedBackend::TimedBackend(std::shared_ptr<net::ServiceBackend> inner,
                           std::string span_name, int shard,
                           bool stamp_children, SpanStore* store)
    : inner_(std::move(inner)),
      span_name_(std::move(span_name)),
      shard_(shard),
      stamp_children_(stamp_children),
      store_(store) {}

StatusOr<net::LoadDatasetResponse> TimedBackend::Load(
    const net::LoadDatasetRequest& request) {
  return inner_->Load(request);
}

StatusOr<net::AddViewResponse> TimedBackend::AddView(
    const net::AddViewRequest& request) {
  return inner_->AddView(request);
}

StatusOr<net::QueryResponseWire> TimedBackend::Query(
    const net::QueryRequestWire& request) {
  if (!store_->enabled()) return inner_->Query(request);
  SpanRecord span;
  span.id = store_->NewId();
  span.parent = request.trace_id;
  span.name = span_name_;
  span.shard = shard_;
  span.start_ns = NowNs();
  StatusOr<net::QueryResponseWire> response = [&] {
    if (!stamp_children_) return inner_->Query(request);
    net::QueryRequestWire stamped = request;
    stamped.trace_id = span.id;
    return inner_->Query(stamped);
  }();
  span.end_ns = NowNs();
  if (response.ok()) {
    span.cache_hit = response->cache_hit;
    span.solve_ms = response->cache_hit ? 0.0 : response->stats.solve_millis;
  }
  store_->Add(std::move(span));
  return response;
}

StatusOr<net::StatsResponse> TimedBackend::Stats(
    const net::StatsRequest& request) {
  return inner_->Stats(request);
}

Status TimedBackend::Drop(const net::DropRequest& request) {
  return inner_->Drop(request);
}

}  // namespace e2ebench
