// Copyright 2026 The ARSP Authors.
//
// Coordinator — turns N shards (in-process EngineBackends or remote arspd
// peers behind RemoteShard) into one logical ARSP service with the same
// ServiceBackend interface, so an ArspServer can serve it over the wire
// unchanged (arspd --coordinator).
//
// Placement: LOAD fans a dataset out to the shards ShardPlan picks for it
// (consistent hashing, `replication` copies); every holder gets the FULL
// dataset. Rskyline dominance is global — a shard holding a subset of the
// objects would compute wrong probabilities — so scale-out never splits
// data, it splits *evaluation scope*: a QUERY is scattered to the holders
// with disjoint contiguous object ranges (QueryRequestWire.scope_*), each
// holder evaluates only its range (goal pushdown prunes the rest), and the
// merge below reassembles the exact unsharded answer.
//
// Merge, per derived kind:
//   * full — per-scope instance slices are exact and disjoint; concatenate
//     by instance_offset, sum per-scope result sizes. Bit-identical by the
//     scoped-goal invariants (tests/scoped_goal_test.cc).
//   * top-k / count-controlled — every shard answers its scope with the
//     *global* k, so the union of per-scope ranked lists provably contains
//     the global answer (an object in the global top-k has fewer than k
//     better objects anywhere, in particular in its own scope). λ = the
//     k-th merged candidate; any in-scope object a shard left undecided
//     whose upper bound reaches λ − ε is fetched exactly in a second,
//     single-object-scope refinement round. Objects a shard *excluded* are
//     provably below its scope's k-th lower bound, which global merging
//     only raises — never refined. Final slicing replicates AnswerGoal's
//     SliceRanked rules exactly (ties / resize / derived threshold).
//   * p-threshold — union of per-scope answers; undecided objects whose
//     upper reaches p − ε are refined the same way.
//   * top-k instances — instance-level goals need the complete solve and
//     do not partition; forwarded to one holder (full replication makes
//     any holder authoritative). Already-scoped requests pass through the
//     same way: the caller is doing its own partitioning.
//
// Thread safety: all methods are safe for concurrent calls (the server
// invokes them from every connection handler). Scatter and refinement run
// on an internal pool; pool tasks never re-enter the pool, so fan-out from
// many connections cannot deadlock.

#ifndef ARSP_CLUSTER_COORDINATOR_H_
#define ARSP_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/cluster/shard_plan.h"
#include "src/net/backend.h"
#include "src/obs/trace.h"

namespace arsp {
namespace cluster {

// The cluster layer speaks the wire vocabulary natively.
using net::AddViewRequest;
using net::AddViewResponse;
using net::DatasetInfo;
using net::DropRequest;
using net::LoadDatasetRequest;
using net::LoadDatasetResponse;
using net::ObjectReportWire;
using net::QueryRequestWire;
using net::QueryResponseWire;
using net::RankedEntry;
using net::StatsRequest;
using net::StatsResponse;
using net::WireDerivedKind;

struct CoordinatorOptions {
  ShardPlanOptions plan;
  /// Scatter/refinement concurrency; 0 = max(num_shards,
  /// ThreadPool::DefaultConcurrency()).
  int fanout_threads = 0;
  /// Test hook: (num_objects, num_holders) → per-holder scope ranges. Must
  /// return exactly num_holders disjoint ranges covering [0, num_objects)
  /// in ascending order (empty ranges allowed). Null = even split.
  std::function<std::vector<std::pair<int, int>>(int, int)> partition_fn;
};

class Coordinator : public net::ServiceBackend {
 public:
  /// `shards[i]` is named `shard_names[i]` (the ring key — for remote
  /// shards, conventionally host:port). Sizes must match and be non-empty.
  Coordinator(std::vector<std::shared_ptr<net::ServiceBackend>> shards,
              std::vector<std::string> shard_names,
              CoordinatorOptions options = {});

  StatusOr<LoadDatasetResponse> Load(const LoadDatasetRequest& request) override;
  StatusOr<AddViewResponse> AddView(const AddViewRequest& request) override;
  StatusOr<QueryResponseWire> Query(const QueryRequestWire& request) override;
  StatusOr<StatsResponse> Stats(const StatsRequest& request) override;
  Status Drop(const DropRequest& request) override;

  const ShardPlan& plan() const { return plan_; }

 private:
  struct Placement {
    std::vector<int> holders;
    int num_objects = 0;
  };

  /// Runs every task on the fan-out pool and blocks until all finish.
  void RunParallel(std::vector<std::function<void()>>* tasks);

  StatusOr<Placement> PlacementFor(const std::string& name) const;

  /// Scatter-gather for kNone (the full ARSP answer). `trace` (nullable)
  /// gains scatter/merge phase spans with each shard's reply subtree
  /// stitched under the scatter span.
  StatusOr<QueryResponseWire> ScatterFull(const QueryRequestWire& request,
                                          const Placement& placement,
                                          obs::Trace* trace);
  /// Scatter-gather + refinement for the object-ranking kinds; the trace
  /// additionally gains a refine span when a refinement round runs.
  StatusOr<QueryResponseWire> ScatterRanked(const QueryRequestWire& request,
                                            const Placement& placement,
                                            obs::Trace* trace);
  /// Forwards `request` unchanged to one holder (round robin).
  StatusOr<QueryResponseWire> ForwardToOne(const QueryRequestWire& request,
                                           const Placement& placement,
                                           obs::Trace* trace);

  std::vector<std::pair<int, int>> PartitionScopes(int num_objects,
                                                   int parts) const;

  std::vector<std::shared_ptr<net::ServiceBackend>> shards_;
  ShardPlan plan_;
  CoordinatorOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<uint64_t> round_robin_{0};

  mutable std::mutex mu_;
  std::map<std::string, Placement> registry_;
};

}  // namespace cluster
}  // namespace arsp

#endif  // ARSP_CLUSTER_COORDINATOR_H_
