// Copyright 2026 The ARSP Authors.
//
// The one σ/β/χ traversal behind KDTT, KDTT+, QDTT+ and MWTT (Pei et al.'s
// instance-counting walk of Algorithm 1), separated from the space
// partition it runs over. A solver supplies only a *split* — how a node's
// rows divide into children — and AspWalker<Split> owns every step of the
// per-node visit; SolveAspTraversal owns the per-solve setup around it.
//
// Parallelism is the same walker with an executor. The walk above a
// *frontier depth* D runs on the calling thread (lane 0) as in serial, and
// every child subtree at depth D becomes one TaskArena task. Each task
// carries a PathChain — the per-node (object, prob) Add-deltas from the
// root to the subtree — which it replays into its lane's state before
// descending. Replay performs the exact Add calls of the serial walk in the
// same order, and Add/Undo are bitwise-exact, so a subtree computes
// bit-identical values whichever lane runs it. A subtree touches only its
// own slice of the shared `order` permutation and the instance_probs
// entries of that slice, so lanes write disjoint entries and need no merge;
// counters are associative sums (see TraversalCounters).
//
// Goal pushdown under parallelism flows through SharedGoalState (declared
// in asp_traversal_state.h, defined here): lanes buffer resolutions and
// flush them to the single authoritative GoalPruner under a lock; decided
// masks and the global early-exit flag come back as epoch-published
// snapshots that lanes poll between tasks. Monotone pruning only, so no
// torn decisions.

#ifndef ARSP_CORE_PARALLEL_TRAVERSAL_H_
#define ARSP_CORE_PARALLEL_TRAVERSAL_H_

#include <deque>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/common/task_arena.h"
#include "src/core/asp_traversal_state.h"
#include "src/core/solver.h"

namespace arsp {
namespace internal {

/// Immutable chain of per-node Add-deltas from the traversal root down to
/// one frontier subtree. Nodes share their prefix (shared_ptr parent
/// links), so capturing a chain per frontier task costs only that node's
/// own deltas. Replay applies root-first — the serial Add order.
class PathChain {
 public:
  PathChain(std::shared_ptr<const PathChain> parent,
            std::vector<std::pair<int, double>> adds)
      : parent_(std::move(parent)), adds_(std::move(adds)) {}

  /// Re-applies every (object, prob) delta from the root to this node into
  /// `state`, logging into `undo_log` so the caller can unwind afterwards.
  void Replay(AspTraversalState* state,
              std::vector<AspTraversalState::Change>* undo_log) const {
    if (parent_ != nullptr) parent_->Replay(state, undo_log);
    for (const auto& add : adds_) {
      state->Add(add.first, add.second, undo_log);
    }
  }

 private:
  std::shared_ptr<const PathChain> parent_;
  std::vector<std::pair<int, double>> adds_;
};

/// Parses the shared "parallelism" / "frontier_depth" solver options into
/// the given fields (left untouched when absent, so solver defaults
/// survive). parallelism must be >= 1 (1 = serial); frontier_depth must be
/// 0 (auto) or in [2, 12]. Callers still list the keys in ExpectOnly —
/// alongside their solver-specific ones.
Status ReadParallelOptions(const SolverOptions& options, int* parallelism,
                           int* frontier_depth);

/// Frontier depth for a traversal with the given branching factor: the
/// smallest depth whose level holds at least kTaskFactor tasks per worker
/// (so steal-half has slack to balance irregular subtrees), clamped to
/// [2, 12] — at least one split level, at most ~4k tasks even for binary
/// trees.
int DefaultFrontierDepth(int branch_factor, int workers);

/// Per-worker multiplier in DefaultFrontierDepth's task-count target.
inline constexpr int kTaskFactor = 8;

/// Ties a TaskArena to one TraversalLane per worker. Lane 0 belongs to the
/// calling thread: the walker descends to the frontier on it (helpers
/// execute frontier tasks concurrently on lanes 1..W-1), and after the
/// descent unwinds, lane 0's pristine state lets the caller join task
/// execution in RunAndWait(). Construct once per solve; `parallel()` false
/// (budget granted a single worker) means the solve runs serially instead.
class ParallelExecutor {
 public:
  /// `shared` may be null or inert (full goal): lanes then get inactive
  /// channels. `instance_objects` is the local instance → object map the
  /// buffered channels answer AllDecided from (may be null when `shared`
  /// is null/inert).
  ParallelExecutor(int requested_workers, int num_objects,
                   SharedGoalState* shared, const int* instance_objects)
      : arena_(requested_workers) {
    for (int w = 0; w < arena_.num_workers(); ++w) {
      lanes_.emplace_back(num_objects,
                          shared != nullptr && shared->active()
                              ? GoalChannel(shared, instance_objects)
                              : GoalChannel());
      lanes_.back().channel.BeginTask();
    }
  }

  bool parallel() const { return arena_.num_workers() >= 2; }
  int num_workers() const { return arena_.num_workers(); }

  /// The calling thread's lane; use it for the above-frontier descent.
  TraversalLane& main_lane() { return lanes_[0]; }

  /// Submits one subtree task. The wrapper refreshes the lane's goal
  /// snapshot before the body and flushes its buffered resolutions after,
  /// so a task is the unit of goal-state propagation.
  void Spawn(std::function<void(TraversalLane&)> body) {
    arena_.Submit([this, body = std::move(body)](int worker) {
      TraversalLane& lane = lanes_[static_cast<size_t>(worker)];
      lane.channel.BeginTask();
      body(lane);
      lane.channel.Flush();
    });
  }

  /// Runs every spawned task to completion (caller participates), then
  /// flushes lane 0 — the descent may have buffered resolutions too.
  void RunAndWait() {
    arena_.RunAndWait();
    lanes_[0].channel.Flush();
  }

  /// Lane-summed counters; call after RunAndWait(). Totals equal the
  /// serial run's (associative sums / max — see TraversalCounters).
  TraversalCounters MergedCounters() const {
    TraversalCounters total;
    for (const TraversalLane& lane : lanes_) total.MergeFrom(lane.counters);
    return total;
  }

  int64_t tasks_spawned() const { return arena_.tasks_spawned(); }
  int64_t tasks_stolen() const { return arena_.tasks_stolen(); }

 private:
  TaskArena arena_;
  // deque: lanes are neither movable nor copyable once workers hold
  // references, and only the constructor appends.
  std::deque<TraversalLane> lanes_;
};

/// Rows order[begin..end) of the walker's `order` permutation.
struct RowRange {
  int begin, end;
};

/// A node's tight score corners; valid for the duration of its visit.
struct NodeBox {
  const double* pmin;
  const double* pmax;
};

/// The dimension of largest extent pmax - pmin (the first on ties).
inline int WidestDim(const NodeBox& box, int dim) {
  int widest_dim = 0;
  double widest = -1.0;
  for (int k = 0; k < dim; ++k) {
    const double extent = box.pmax[k] - box.pmin[k];
    if (extent > widest) {
      widest = extent;
      widest_dim = k;
    }
  }
  return widest_dim;
}

/// The Split base of every construction-fused traversal (KDTT+, QDTT+,
/// MWTT): nodes are row ranges whose corners are computed on each visit.
/// Derived splits add BranchFactor and ForEachChild (see AspWalker).
struct RangeSplit {
  using Node = RowRange;

  RowRange Root(const ScoreSpan& scores, std::vector<int>* /*order*/) const {
    return RowRange{0, scores.n};
  }
  RowRange Rows(const RowRange& node) const { return node; }
  NodeBox Corners(const RowRange& node, const ScoreSpan& scores,
                  const std::vector<int>& order, std::vector<double>* pmin,
                  std::vector<double>* pmax) const {
    ComputeScoreCorners(scores, order, node.begin, node.end, pmin, pmax);
    return NodeBox{pmin->data(), pmax->data()};
  }
};

/// The frontier walker: one pre-order σ/β/χ traversal over the nodes a
/// Split yields. With a null executor it is the serial walk; otherwise
/// nodes above `frontier_depth` record their Add-deltas and the children
/// of depth frontier_depth - 1 become executor tasks. Split is a template
/// parameter, so the per-node calls into it are static. It supplies:
///   using Node;                   a cheap-to-copy subtree handle
///   int BranchFactor(int dim);    typical fan-out, for the auto frontier
///   Node Root(scores, &order);    may build storage first (KDTT)
///   RowRange Rows(node);
///   NodeBox Corners(node, scores, order, &pmin, &pmax);
///   void ForEachChild(node, box, scores, &order, emit);
/// Corners may fill the scratch vectors or point into the split's own
/// storage. ForEachChild calls emit(child) in child order and may permute
/// `order` only within the node's rows; it runs on several lanes at once
/// (on disjoint nodes), so it must not mutate the split.
template <typename Split>
class AspWalker {
 public:
  using Node = typename Split::Node;

  AspWalker(Split split, ScoreSpan scores, double* probs,
            ParallelExecutor* executor, int frontier_depth)
      : split_(std::move(split)),
        scores_(scores),
        order_(static_cast<size_t>(scores.n)),
        probs_(probs),
        executor_(executor),
        frontier_depth_(frontier_depth) {
    std::iota(order_.begin(), order_.end(), 0);
  }

  void Run(TraversalLane& lane) {
    const Node root = split_.Root(scores_, &order_);
    const std::vector<int> candidates(order_);
    Visit(lane, root, candidates, 1, nullptr);
  }

 private:
  void Visit(TraversalLane& lane, const Node& node,
             const std::vector<int>& parent_candidates, int depth,
             const std::shared_ptr<const PathChain>& chain) {
    const RowRange rows = split_.Rows(node);
    if (lane.SkipSubtree(order_, rows.begin, rows.end, depth)) return;
    ++lane.counters.nodes_visited;
    std::vector<double> pmin, pmax;
    const NodeBox box = split_.Corners(node, scores_, order_, &pmin, &pmax);

    // Above the frontier, record this node's Add-deltas so frontier tasks
    // can replay the root→subtree path. Inside a task depth starts at the
    // frontier, so capture (and spawning) never re-fires there.
    const bool capture = executor_ != nullptr && depth < frontier_depth_;
    std::vector<std::pair<int, double>> adds;
    std::vector<int> kept;
    std::vector<AspTraversalState::Change> undo_log;
    FilterAspCandidates(scores_, parent_candidates, box.pmin, box.pmax,
                        &lane.state, &kept, &undo_log, &lane.class_scratch,
                        &lane.counters, capture ? &adds : nullptr);

    if (!HandleAspTerminal(scores_, order_, rows.begin, rows.end, box.pmin,
                           box.pmax, lane.state, probs_, &lane.counters,
                           &lane.channel)) {
      std::shared_ptr<const PathChain> node_chain;
      std::shared_ptr<const std::vector<int>> shared_kept;
      if (capture) {
        node_chain = std::make_shared<const PathChain>(chain, std::move(adds));
        if (depth + 1 == frontier_depth_) {
          shared_kept =
              std::make_shared<const std::vector<int>>(std::move(kept));
        }
      }
      split_.ForEachChild(node, box, scores_, &order_, [&](const Node& child) {
        if (shared_kept != nullptr) {
          SpawnSubtree(child, node_chain, shared_kept);
        } else {
          Visit(lane, child, kept, depth + 1, node_chain);
        }
      });
    }
    lane.state.Undo(undo_log);
  }

  void SpawnSubtree(const Node& node,
                    const std::shared_ptr<const PathChain>& chain,
                    const std::shared_ptr<const std::vector<int>>& kept) {
    executor_->Spawn([this, node, chain, kept](TraversalLane& lane) {
      if (lane.stopped) return;  // global goal-met: skip even the replay
      std::vector<AspTraversalState::Change> replay_log;
      chain->Replay(&lane.state, &replay_log);
      Visit(lane, node, *kept, frontier_depth_, nullptr);
      lane.state.Undo(replay_log);
    });
  }

  Split split_;  // Root() may build storage; const during the walk
  const ScoreSpan scores_;
  std::vector<int> order_;  // subtrees permute disjoint slices
  double* const probs_;     // result->instance_probs, disjoint writes
  ParallelExecutor* const executor_;  // null = serial
  const int frontier_depth_;
};

/// Solves the context's query with an AspWalker over `split`: sets up the
/// goal pruner, then runs the walker on a ParallelExecutor when
/// `parallelism` >= 2 and the core budget grants at least two workers, and
/// on a single serial lane otherwise. `frontier_depth` 0 picks
/// DefaultFrontierDepth from the split's branch factor.
template <typename Split>
ArspResult SolveAspTraversal(ExecutionContext& context, int parallelism,
                             int frontier_depth, Split split) {
  const DatasetView& view = context.view();
  ArspResult result;
  result.instance_probs.assign(static_cast<size_t>(view.num_instances()),
                               0.0);
  if (view.num_instances() == 0) return result;
  const ScoreSpan scores = context.scores();
  GoalPruner pruner(context.goal(), view, &scores);
  GoalPruner* active = pruner.active() ? &pruner : nullptr;

  std::optional<SharedGoalState> shared;
  std::optional<ParallelExecutor> executor;
  std::optional<TraversalLane> serial_lane;
  if (parallelism >= 2) {
    shared.emplace(active);
    executor.emplace(parallelism, view.num_objects(), &*shared,
                     scores.objects);
    if (!executor->parallel()) {  // core budget granted a single worker
      executor.reset();
      shared.reset();
    }
  }
  if (!executor.has_value()) {
    serial_lane.emplace(view.num_objects(), GoalChannel(active));
  } else if (frontier_depth == 0) {
    frontier_depth = DefaultFrontierDepth(split.BranchFactor(scores.dim),
                                          executor->num_workers());
  }
  AspWalker<Split> walker(std::move(split), scores,
                          result.instance_probs.data(),
                          executor.has_value() ? &*executor : nullptr,
                          frontier_depth);
  walker.Run(executor.has_value() ? executor->main_lane() : *serial_lane);
  if (executor.has_value()) {
    executor->RunAndWait();
    executor->MergedCounters().StoreInto(&result);
    result.tasks_spawned = executor->tasks_spawned();
    result.tasks_stolen = executor->tasks_stolen();
    result.parallel_workers = executor->num_workers();
  } else {
    serial_lane->counters.StoreInto(&result);
  }
  pruner.Finish(&result);
  return result;
}

}  // namespace internal
}  // namespace arsp

#endif  // ARSP_CORE_PARALLEL_TRAVERSAL_H_
