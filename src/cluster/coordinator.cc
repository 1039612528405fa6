// Copyright 2026 The ARSP Authors.

#include "src/cluster/coordinator.h"

#include <algorithm>
#include <condition_variable>
#include <limits>

#include "src/common/macros.h"
#include "src/core/arsp_result.h"

namespace arsp {
namespace cluster {

namespace {

// A shard's goal string is the scoped goal ("top-5 scope=[0,7)"); the
// coordinator's assembled answer presents as the unscoped query, exactly
// what a single daemon would report.
std::string StripScopeSuffix(const std::string& goal) {
  const size_t pos = goal.rfind(" scope=[");
  return pos == std::string::npos ? goal : goal.substr(0, pos);
}

// Stitches one shard reply's span subtree (if it carries one) under the
// trace's innermost open span — called with the scatter/refine span open,
// strictly after RunParallel returned (the Trace is single-threaded).
// The subtree keeps its shard-local clock (offsets are per-process; only
// structure and durations are comparable across the stitch boundary).
void AdoptShardTrace(obs::Trace* trace, const QueryResponseWire& part,
                     int shard) {
  if (trace == nullptr || part.trace_spans.empty()) return;
  std::vector<obs::Span> subtree;
  if (!obs::DeserializeSpans(part.trace_spans, &subtree) || subtree.empty()) {
    return;
  }
  subtree[0].annotations.emplace_back("shard", std::to_string(shard));
  trace->AdoptChild(std::move(subtree[0]));
}

// The exact comparator of TopKObjects / AnswerGoal: probability descending,
// base object id ascending. Merged candidates sorted with the same rule
// over bit-identical probabilities reproduce the unsharded order.
bool RankedLess(const RankedEntry& a, const RankedEntry& b) {
  if (a.prob != b.prob) return a.prob > b.prob;
  return a.object_id < b.object_id;
}

// Replicates queries.cc SliceRanked on merged candidates so the assembled
// answer obeys the identical boundary rules (resize / ties / threshold).
void SliceMerged(std::vector<RankedEntry>* ranked,
                 const QueryRequestWire& request, double* count_threshold) {
  switch (request.derived_kind) {
    case WireDerivedKind::kTopKObjects:
      // k < 0 ranks everything (the full-slicing collapse); k == 0 is an
      // empty answer, not everything.
      if (request.k >= 0 &&
          ranked->size() > static_cast<size_t>(request.k)) {
        ranked->resize(static_cast<size_t>(request.k));
      }
      break;
    case WireDerivedKind::kCountControlled: {
      const size_t cut =
          std::min(ranked->size(),
                   static_cast<size_t>(std::max(0, request.max_objects)));
      const double threshold = cut == 0 ? 0.0 : (*ranked)[cut - 1].prob;
      *count_threshold = threshold;
      while (!ranked->empty() && ranked->back().prob < threshold) {
        ranked->pop_back();
      }
      break;
    }
    case WireDerivedKind::kObjectsAboveThreshold: {
      const auto cut = std::find_if(
          ranked->begin(), ranked->end(), [&request](const RankedEntry& e) {
            return e.prob < request.threshold;
          });
      ranked->erase(cut, ranked->end());
      break;
    }
    default:
      break;
  }
}

}  // namespace

Coordinator::Coordinator(
    std::vector<std::shared_ptr<net::ServiceBackend>> shards,
    std::vector<std::string> shard_names, CoordinatorOptions options)
    : shards_(std::move(shards)),
      plan_(std::move(shard_names), options.plan),
      options_(std::move(options)) {
  ARSP_CHECK_MSG(!shards_.empty(), "coordinator needs at least one shard");
  ARSP_CHECK_MSG(static_cast<int>(shards_.size()) == plan_.num_shards(),
                 "shards/shard_names size mismatch");
  const int threads =
      options_.fanout_threads > 0
          ? options_.fanout_threads
          : std::max(static_cast<int>(shards_.size()),
                     ThreadPool::DefaultConcurrency());
  pool_ = std::make_unique<ThreadPool>(threads);
}

void Coordinator::RunParallel(std::vector<std::function<void()>>* tasks) {
  if (tasks->empty()) return;
  if (tasks->size() == 1) {
    (*tasks)[0]();
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = tasks->size();
  for (auto& task : *tasks) {
    pool_->Submit([&mu, &cv, &remaining, &task] {
      task();
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&remaining] { return remaining == 0; });
}

StatusOr<Coordinator::Placement> Coordinator::PlacementFor(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("dataset '" + name +
                            "' is not registered with this coordinator "
                            "(LOAD it through the coordinator first)");
  }
  return it->second;
}

std::vector<std::pair<int, int>> Coordinator::PartitionScopes(
    int num_objects, int parts) const {
  if (options_.partition_fn != nullptr) {
    return options_.partition_fn(num_objects, parts);
  }
  return ShardPlan::EvenPartition(num_objects, parts);
}

StatusOr<LoadDatasetResponse> Coordinator::Load(
    const LoadDatasetRequest& request) {
  const std::vector<int> holders = plan_.HoldersFor(request.name);
  std::vector<StatusOr<LoadDatasetResponse>> results(
      holders.size(), Status::Internal("not run"));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(holders.size());
  for (size_t i = 0; i < holders.size(); ++i) {
    tasks.push_back([this, &request, &results, &holders, i] {
      results[i] =
          shards_[static_cast<size_t>(holders[i])]->Load(request);
    });
  }
  RunParallel(&tasks);
  // All-or-error: failed holders are reported; succeeded holders keep the
  // dataset (loads are idempotent, so a retry converges).
  for (const auto& result : results) {
    if (!result.ok()) return result.status();
  }
  LoadDatasetResponse response = *results[0];
  for (size_t i = 1; i < results.size(); ++i) {
    response.reused = response.reused && results[i]->reused;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Placement& placement = registry_[request.name];
    placement.holders = holders;
    placement.num_objects = response.num_objects;
  }
  return response;
}

StatusOr<AddViewResponse> Coordinator::AddView(const AddViewRequest& request) {
  auto base = PlacementFor(request.base_name);
  if (!base.ok()) return base.status();
  std::vector<StatusOr<AddViewResponse>> results(
      base->holders.size(), Status::Internal("not run"));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(base->holders.size());
  for (size_t i = 0; i < base->holders.size(); ++i) {
    const int shard = base->holders[i];
    tasks.push_back([this, &request, &results, shard, i] {
      results[i] = shards_[static_cast<size_t>(shard)]->AddView(request);
    });
  }
  RunParallel(&tasks);
  for (const auto& result : results) {
    if (!result.ok()) return result.status();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Placement& placement = registry_[request.view_name];
    placement.holders = base->holders;
    placement.num_objects = results[0]->num_objects;
  }
  return *results[0];
}

StatusOr<QueryResponseWire> Coordinator::ForwardToOne(
    const QueryRequestWire& request, const Placement& placement,
    obs::Trace* trace) {
  const size_t pick =
      round_robin_.fetch_add(1, std::memory_order_relaxed) %
      placement.holders.size();
  const int shard = placement.holders[pick];
  obs::ScopedSpan forward_span(trace, "forward");
  forward_span.Annotate("shard", static_cast<int64_t>(shard));
  auto result = shards_[static_cast<size_t>(shard)]->Query(request);
  if (result.ok()) AdoptShardTrace(trace, *result, shard);
  return result;
}

StatusOr<QueryResponseWire> Coordinator::Query(
    const QueryRequestWire& request) {
  auto placement = PlacementFor(request.dataset);
  if (!placement.ok()) return placement.status();
  ARSP_CHECK(!placement->holders.empty());

  // Distributed tracing: one id — the caller's if stamped, freshly minted
  // otherwise — rides in every scattered frame, so each shard's reply
  // subtree stitches under this coordinator trace into one cross-process
  // timeline. Untraced requests keep trace == nullptr end to end.
  std::unique_ptr<obs::Trace> trace;
  QueryRequestWire effective = request;
  if (request.want_trace) {
    trace = std::make_unique<obs::Trace>(
        request.trace_id != 0 ? request.trace_id : obs::Trace::NewTraceId(),
        "coordinator_query");
    effective.trace_id = trace->id();
  }

  // Instance-level goals need the complete solve (no scope semantics), and
  // an already-scoped request means the caller partitions for itself;
  // either way a single holder is authoritative — full replication.
  const bool passthrough =
      request.derived_kind == WireDerivedKind::kTopKInstances ||
      request.scope_begin >= 0 || request.scope_end >= 0 ||
      placement->holders.size() == 1;
  StatusOr<QueryResponseWire> out =
      passthrough ? ForwardToOne(effective, *placement, trace.get())
      : request.derived_kind == WireDerivedKind::kNone
          ? ScatterFull(effective, *placement, trace.get())
          : ScatterRanked(effective, *placement, trace.get());
  if (out.ok() && trace != nullptr) {
    trace->Annotate("dataset", request.dataset);
    trace->Finish();
    out->trace_id = trace->id();
    out->trace_spans = obs::SerializeSpans({trace->root()});
    obs::MaybeWriteChromeTrace(trace->root(), trace->id());
  }
  return out;
}

StatusOr<QueryResponseWire> Coordinator::ScatterFull(
    const QueryRequestWire& request, const Placement& placement,
    obs::Trace* trace) {
  const std::vector<std::pair<int, int>> scopes = PartitionScopes(
      placement.num_objects, static_cast<int>(placement.holders.size()));
  ARSP_CHECK(scopes.size() == placement.holders.size());

  std::vector<StatusOr<QueryResponseWire>> results(
      placement.holders.size(), Status::Internal("not run"));
  {
    obs::ScopedSpan scatter_span(trace, "scatter");
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < placement.holders.size(); ++i) {
      if (scopes[i].first >= scopes[i].second) continue;  // empty scope
      const int shard = placement.holders[i];
      tasks.push_back([this, &request, &results, &scopes, shard, i] {
        QueryRequestWire scoped = request;
        scoped.scope_begin = scopes[i].first;
        scoped.scope_end = scopes[i].second;
        results[i] = shards_[static_cast<size_t>(shard)]->Query(scoped);
      });
    }
    scatter_span.Annotate("fanout", static_cast<int64_t>(tasks.size()));
    RunParallel(&tasks);
    for (size_t i = 0; i < results.size(); ++i) {
      if (scopes[i].first >= scopes[i].second || !results[i].ok()) continue;
      AdoptShardTrace(trace, *results[i], placement.holders[i]);
    }
  }
  obs::ScopedSpan merge_span(trace, "merge");

  QueryResponseWire out;
  // The assembled full answer presents exactly as an unsharded full solve:
  // complete, goal "full", no pushdown (the per-shard scope pushdown is an
  // internal mechanism, invisible in the unscoped answer).
  out.complete = true;
  out.goal = "full";
  out.cache_hit = true;
  out.result_size = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (scopes[i].first >= scopes[i].second) continue;
    if (!results[i].ok()) return results[i].status();
    const QueryResponseWire& part = *results[i];
    if (out.solver.empty()) out.solver = part.solver;
    out.cache_hit = out.cache_hit && part.cache_hit;
    out.stats.MergeShard(part.stats);
    if (part.result_size >= 0) out.result_size += part.result_size;
    if (request.include_instances) {
      // Disjoint contiguous slices placed at their offsets reassemble the
      // full vector.
      const size_t begin = static_cast<size_t>(part.instance_offset);
      const size_t end = begin + part.instance_probs.size();
      if (end > out.instance_probs.size()) {
        out.instance_probs.resize(end, 0.0);
      }
      std::copy(part.instance_probs.begin(), part.instance_probs.end(),
                out.instance_probs.begin() + static_cast<long>(begin));
    }
  }
  return out;
}

StatusOr<QueryResponseWire> Coordinator::ScatterRanked(
    const QueryRequestWire& request, const Placement& placement,
    obs::Trace* trace) {
  const std::vector<std::pair<int, int>> scopes = PartitionScopes(
      placement.num_objects, static_cast<int>(placement.holders.size()));
  ARSP_CHECK(scopes.size() == placement.holders.size());

  std::vector<StatusOr<QueryResponseWire>> results(
      placement.holders.size(), Status::Internal("not run"));
  {
    obs::ScopedSpan scatter_span(trace, "scatter");
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < placement.holders.size(); ++i) {
      if (scopes[i].first >= scopes[i].second) continue;
      const int shard = placement.holders[i];
      tasks.push_back([this, &request, &results, &scopes, shard, i] {
        // Each scope answers with the GLOBAL goal parameters (k, p): an
        // object in the global answer has fewer than k better objects in its
        // own scope, so the union of per-scope answers covers the global
        // answer (see header).
        QueryRequestWire scoped = request;
        scoped.scope_begin = scopes[i].first;
        scoped.scope_end = scopes[i].second;
        scoped.include_instances = request.include_instances;
        results[i] = shards_[static_cast<size_t>(shard)]->Query(scoped);
      });
    }
    scatter_span.Annotate("fanout", static_cast<int64_t>(tasks.size()));
    RunParallel(&tasks);
    for (size_t i = 0; i < results.size(); ++i) {
      if (scopes[i].first >= scopes[i].second || !results[i].ok()) continue;
      AdoptShardTrace(trace, *results[i], placement.holders[i]);
    }
  }
  QueryResponseWire out;
  out.complete = true;
  out.cache_hit = true;
  std::vector<RankedEntry> candidates;
  // (holder index, view-local object id, upper bound) of every in-scope
  // object some shard left undecided — the refinement work list.
  struct Undecided {
    int holder;
    int object;
    double upper;
  };
  std::vector<Undecided> undecided;
  std::vector<Undecided> refine;
  {
    obs::ScopedSpan merge_span(trace, "merge");
    for (size_t i = 0; i < results.size(); ++i) {
      if (scopes[i].first >= scopes[i].second) continue;
      if (!results[i].ok()) return results[i].status();
      const QueryResponseWire& part = *results[i];
      if (out.solver.empty()) {
        out.solver = part.solver;
        out.goal = StripScopeSuffix(part.goal);
      }
      out.cache_hit = out.cache_hit && part.cache_hit;
      out.pushdown = out.pushdown || part.pushdown;
      out.complete = out.complete && part.complete;
      out.stats.MergeShard(part.stats);
      candidates.insert(candidates.end(), part.ranked.begin(),
                        part.ranked.end());
      for (const ObjectReportWire& report : part.object_reports) {
        if (report.decision ==
            static_cast<uint8_t>(ObjectDecision::kUndecided)) {
          undecided.push_back(
              Undecided{static_cast<int>(i), report.object_id, report.upper});
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(), RankedLess);

    // λ — the value an object must reach to influence the merged answer.
    // Undecided objects (a shard stopped refining once its scope's goal was
    // met) whose upper bound reaches it are fetched exactly; excluded
    // objects are provably below their scope's cut, which merging only
    // raises.
    double lambda;
    if (request.derived_kind == WireDerivedKind::kObjectsAboveThreshold) {
      lambda = request.threshold;
    } else {
      const int k = request.derived_kind == WireDerivedKind::kCountControlled
                        ? request.max_objects
                        : request.k;
      lambda =
          (k >= 0 && candidates.size() >= static_cast<size_t>(k) && k > 0)
              ? candidates[static_cast<size_t>(k) - 1].prob
              : -std::numeric_limits<double>::infinity();
      if (k == 0 &&
          request.derived_kind == WireDerivedKind::kTopKObjects) {
        // Empty answer; nothing can influence it.
        lambda = std::numeric_limits<double>::infinity();
      }
    }

    for (const Undecided& u : undecided) {
      if (u.upper >= lambda - kProbabilityEps) refine.push_back(u);
    }
    merge_span.Annotate("candidates",
                        static_cast<int64_t>(candidates.size()));
    merge_span.Annotate("undecided", static_cast<int64_t>(undecided.size()));
  }
  if (!refine.empty()) {
    obs::ScopedSpan refine_span(trace, "refine");
    refine_span.Annotate("objects", static_cast<int64_t>(refine.size()));
    std::vector<StatusOr<QueryResponseWire>> refined(
        refine.size(), Status::Internal("not run"));
    std::vector<std::function<void()>> refine_tasks;
    refine_tasks.reserve(refine.size());
    for (size_t i = 0; i < refine.size(); ++i) {
      refine_tasks.push_back([this, &request, &refine, &refined,
                              &placement, i] {
        // A single-object scope with k = 1 forces the object exact (k ≥
        // |scope| disables top-k pruning) and returns it ranked with its
        // base id and name.
        QueryRequestWire probe = request;
        probe.derived_kind = WireDerivedKind::kTopKObjects;
        probe.k = 1;
        probe.include_instances = false;
        probe.scope_begin = refine[i].object;
        probe.scope_end = refine[i].object + 1;
        const int shard = placement.holders[static_cast<size_t>(
            refine[i].holder)];
        refined[i] = shards_[static_cast<size_t>(shard)]->Query(probe);
      });
    }
    RunParallel(&refine_tasks);
    for (size_t i = 0; i < refined.size(); ++i) {
      if (!refined[i].ok()) return refined[i].status();
      AdoptShardTrace(
          trace, *refined[i],
          placement.holders[static_cast<size_t>(refine[i].holder)]);
      out.stats.MergeShard(refined[i]->stats);
      out.cache_hit = out.cache_hit && refined[i]->cache_hit;
      if (!refined[i]->ranked.empty()) {
        candidates.push_back(refined[i]->ranked.front());
      }
    }
    std::sort(candidates.begin(), candidates.end(), RankedLess);
  }

  SliceMerged(&candidates, request, &out.count_threshold);
  out.ranked = std::move(candidates);
  // k < 0 collapses to a full solve per scope (GoalForDerived): every
  // in-scope answer is exact and the scopes cover the view, so the merged
  // ranking is complete even though each scoped part reports partial —
  // exactly what the unsharded daemon reports for the same request.
  const bool full_equivalent =
      request.derived_kind == WireDerivedKind::kTopKObjects && request.k < 0;
  if (full_equivalent) {
    out.complete = true;
    int32_t total = 0;
    bool have_sizes = true;
    for (size_t i = 0; i < results.size(); ++i) {
      if (scopes[i].first >= scopes[i].second) continue;
      if (results[i]->result_size < 0) have_sizes = false;
      total += std::max(0, results[i]->result_size);
    }
    if (have_sizes) out.result_size = total;  // per-scope counts, summed
  }
  if (out.complete) {
    // Every shard ran a goal-oblivious solver (or served a cached full
    // answer): per-scope slices are exact everywhere, so the full-result
    // extras a single complete daemon reply carries can be assembled too.
    if (!full_equivalent) {
      // Complete shards of a non-full goal report the *global* nonzero
      // count (they solved the full dataset); any one is authoritative.
      // (full_equivalent parts report per-scope counts, summed above.)
      bool have_sizes = true;
      for (size_t i = 0; i < results.size(); ++i) {
        if (scopes[i].first >= scopes[i].second) continue;
        have_sizes = have_sizes && results[i]->result_size >= 0;
      }
      if (have_sizes) {
        for (size_t i = 0; i < results.size(); ++i) {
          if (scopes[i].first < scopes[i].second) {
            out.result_size = results[i]->result_size;
            break;
          }
        }
      }
    }
    if (request.include_instances) {
      size_t max_end = 0;
      for (size_t i = 0; i < results.size(); ++i) {
        if (scopes[i].first >= scopes[i].second) continue;
        const QueryResponseWire& part = *results[i];
        const size_t begin = static_cast<size_t>(part.instance_offset);
        const size_t end = begin + part.instance_probs.size();
        if (end > out.instance_probs.size()) {
          out.instance_probs.resize(end, 0.0);
        }
        std::copy(part.instance_probs.begin(), part.instance_probs.end(),
                  out.instance_probs.begin() + static_cast<long>(begin));
        max_end = std::max(max_end, end);
      }
      out.instance_probs.resize(max_end);
    }
  }
  return out;
}

StatusOr<StatsResponse> Coordinator::Stats(const StatsRequest& request) {
  std::vector<StatusOr<StatsResponse>> results(
      shards_.size(), Status::Internal("not run"));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    tasks.push_back([this, &request, &results, i] {
      StatsRequest shard_request = request;
      // Only holders know the named dataset; others answer engine-level
      // stats (a NotFound for the name would fail the whole aggregate).
      if (!request.dataset.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = registry_.find(request.dataset);
        if (it == registry_.end() ||
            std::find(it->second.holders.begin(), it->second.holders.end(),
                      static_cast<int>(i)) == it->second.holders.end()) {
          shard_request.dataset.clear();
        }
      }
      results[i] = shards_[i]->Stats(shard_request);
    });
  }
  RunParallel(&tasks);

  StatsResponse out;
  int64_t latency_weight = 0;
  for (const auto& result : results) {
    if (!result.ok()) return result.status();
    const StatsResponse& part = *result;
    out.cache_hits += part.cache_hits;
    out.cache_misses += part.cache_misses;
    out.cache_entries += part.cache_entries;
    out.pooled_contexts += part.pooled_contexts;
    out.latency_count += part.latency_count;
    out.latency_window += part.latency_window;
    if (part.latency_count > 0) {
      out.latency_min_ms = latency_weight == 0
                               ? part.latency_min_ms
                               : std::min(out.latency_min_ms,
                                          part.latency_min_ms);
      out.latency_mean_ms += part.latency_mean_ms * part.latency_count;
      // Percentiles cannot be merged exactly; report the worst shard —
      // conservative for capacity planning.
      out.latency_p50_ms = std::max(out.latency_p50_ms, part.latency_p50_ms);
      out.latency_p95_ms = std::max(out.latency_p95_ms, part.latency_p95_ms);
      out.latency_p99_ms = std::max(out.latency_p99_ms, part.latency_p99_ms);
      out.latency_p999_ms =
          std::max(out.latency_p999_ms, part.latency_p999_ms);
      latency_weight += part.latency_count;
    }
    if (out.kernel_arch.empty()) out.kernel_arch = part.kernel_arch;
    for (const DatasetInfo& info : part.datasets) {
      const bool seen =
          std::any_of(out.datasets.begin(), out.datasets.end(),
                      [&info](const DatasetInfo& d) {
                        return d.name == info.name;
                      });
      if (!seen) out.datasets.push_back(info);
    }
    if (part.has_index_stats) {
      out.has_index_stats = true;
      out.kdtree_builds += part.kdtree_builds;
      out.rtree_builds += part.rtree_builds;
      out.score_maps += part.score_maps;
      out.score_reuses += part.score_reuses;
      out.parent_index_hits += part.parent_index_hits;
    }
  }
  if (latency_weight > 0) out.latency_mean_ms /= latency_weight;
  std::sort(out.datasets.begin(), out.datasets.end(),
            [](const DatasetInfo& a, const DatasetInfo& b) {
              return a.name < b.name;
            });
  return out;
}

Status Coordinator::Drop(const DropRequest& request) {
  auto placement = PlacementFor(request.name);
  if (!placement.ok()) return placement.status();
  std::vector<Status> results(placement->holders.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(placement->holders.size());
  for (size_t i = 0; i < placement->holders.size(); ++i) {
    const int shard = placement->holders[i];
    tasks.push_back([this, &request, &results, shard, i] {
      results[i] = shards_[static_cast<size_t>(shard)]->Drop(request);
    });
  }
  RunParallel(&tasks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_.erase(request.name);
    // A base drop cascades to its views on every shard; mirror that in the
    // placement registry by dropping every entry the shards no longer have.
    // (Conservative: views of the dropped base share its holder set, and
    // their names are not tracked here — they will NotFound on next use and
    // can simply be re-registered. Simplicity over bookkeeping.)
  }
  for (const Status& result : results) {
    if (!result.ok()) return result;
  }
  return Status::OK();
}

}  // namespace cluster
}  // namespace arsp
