// Copyright 2026 The ARSP Authors.
//
// The one σ/β/χ traversal behind KDTT, KDTT+, QDTT+ and MWTT (Pei et al.'s
// instance-counting walk of Algorithm 1), separated from the space
// partition it runs over. A solver supplies only a *split* — how a node's
// rows divide into children — and AspWalker<Split> owns every step of the
// per-node visit; SolveAspTraversal owns the per-solve setup around it.
//
// Parallelism is the same walker with an executor, and one spawn rule: a
// non-terminal node whose row range holds at least SpawnMinRows() rows
// hands each child to the executor as a task instead of recursing. Tasks
// spawn further tasks by the same rule, so the decomposition follows the
// subtrees that survive pruning rather than a fixed depth. Each task
// carries a PathChain — the per-node (object, prob) Add-deltas from the
// root to the subtree — which it replays into its lane's state before
// descending. Replay performs the exact Add calls of the serial walk in the
// same order, and Add/CloseScope are bitwise-exact, so a subtree computes
// bit-identical values whichever lane runs it. A subtree touches only its
// own slice of the shared `order` permutation and the instance_probs
// entries of that slice, so lanes write disjoint entries and need no merge;
// lane counters merge by their work-counter rules (sums, and a max for
// early_exit_depth), so the totals equal the serial run's.
//
// Goal pushdown under parallelism flows through SharedGoalState (declared
// in asp_traversal_state.h, defined here): lanes buffer resolutions and
// flush them to the single authoritative GoalPruner under a lock; decided
// masks and the global early-exit flag come back as epoch-published
// snapshots that lanes poll between tasks. Monotone pruning only, so no
// torn decisions.

#ifndef ARSP_CORE_PARALLEL_TRAVERSAL_H_
#define ARSP_CORE_PARALLEL_TRAVERSAL_H_

#include <cstddef>
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
/// one spawned subtree. Nodes share their prefix (shared_ptr parent
/// links), so capturing a chain per spawning node costs only that node's
/// own deltas. Replay applies root-first — the serial Add order.
class PathChain {
 public:
  PathChain(std::shared_ptr<const PathChain> parent,
            std::vector<std::pair<int, double>> adds)
      : parent_(std::move(parent)), adds_(std::move(adds)) {}

  /// Re-applies every (object, prob) delta from the root to this node into
  /// `state`'s open scope; the caller closes it to unwind.
  void Replay(AspTraversalState* state) const {
    if (parent_ != nullptr) parent_->Replay(state);
    for (const auto& add : adds_) state->Add(add.first, add.second);
  }

 private:
  std::shared_ptr<const PathChain> parent_;
  std::vector<std::pair<int, double>> adds_;
};

/// Parses the shared "parallelism" solver option into `parallelism` (left
/// untouched when absent, so solver defaults survive); it must be >= 1
/// (1 = serial). Callers still list the key in ExpectOnly — alongside their
/// solver-specific ones.
Status ReadParallelism(const SolverOptions& options, int* parallelism);

/// Row count from which a non-terminal node hands each child to the
/// executor as a task (the spawn grain). On the Fig. 6 NBA workload
/// 512–4096 measure the same; 16384 leaves a 405K-instance solve too few
/// tasks.
inline constexpr int kSpawnMinRows = 1024;

/// The active spawn grain: kSpawnMinRows unless a test overrides it.
int SpawnMinRows();

/// Input rows from which a parallel-capable solver builds an executor at
/// all: twice the grain, so a median split's children spawn in turn. Below
/// it the root's own children are the only tasks (two under KDTT+): NBA-like
/// inputs of 1.1K rows solved 15% slower on 4 workers than serially and
/// 1.4–1.9K rows 1.0–1.5x faster, while 2.1K rows (6 tasks) solved 2.2x
/// faster.
inline int ParallelMinRows() { return 2 * SpawnMinRows(); }

/// Test hook: overrides SpawnMinRows() (0 restores kSpawnMinRows).
void SetSpawnMinRowsForTesting(int rows);

/// Ties a TaskArena to one TraversalLane per worker. Lane 0 belongs to the
/// calling thread: the walker visits the root on it (helpers execute the
/// spawned tasks concurrently on lanes 1..W-1), and after the root visit
/// unwinds, lane 0's pristine state lets the caller join task execution in
/// RunAndWait(). Construct once per solve; `parallel()` false
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

  /// The calling thread's lane; use it for the root visit.
  TraversalLane& main_lane() { return lanes_[0]; }

  /// Submits one subtree task; may be called from inside a running task.
  /// The wrapper refreshes the lane's goal
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

  /// Runs every spawned task, and the tasks they spawn, to completion
  /// (caller participates), then flushes lane 0 — the root visit may have
  /// buffered resolutions too.
  void RunAndWait() {
    arena_.RunAndWait();
    lanes_[0].channel.Flush();
  }

  /// Lane-merged counters; call after RunAndWait(). Totals equal the
  /// serial run's.
  WorkCounters MergedCounters() const {
    WorkCounters total;
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
/// Derived splits add ForEachChild (see AspWalker).
struct RangeSplit {
  using Node = RowRange;

  RowRange Root(const ScoreSpan& scores, std::vector<int>* /*order*/) const {
    return RowRange{0, scores.n};
  }
  RowRange Rows(const RowRange& node) const { return node; }
  NodeBox Corners(const RowRange& node, const ScoreSpan& scores,
                  const std::vector<int>& order, double* slot) const {
    ComputeScoreCorners(scores, order, node.begin, node.end, slot,
                        slot + scores.dim);
    return NodeBox{slot, slot + scores.dim};
  }
};

/// The walker: one pre-order σ/β/χ traversal over the nodes a
/// Split yields. With a null executor it is the serial walk; otherwise a
/// non-terminal node of at least `spawn_min_rows` rows records its
/// Add-deltas and spawns each child as an executor task. Split is a
/// template parameter, so the per-node calls into it are static. It
/// supplies:
///   using Node;                   a cheap-to-copy subtree handle
///   Node Root(scores, &order);    may build storage first (KDTT)
///   RowRange Rows(node);
///   NodeBox Corners(node, scores, order, slot);
///   void ForEachChild(node, box, scores, &order, emit);
/// Corners may fill the lane's 2·dim-double `slot` or point into the
/// split's own storage. ForEachChild calls emit(child) in child order and
/// may permute `order` only within the node's rows; it runs on several
/// lanes at once (on disjoint nodes), so it must not mutate the split.
template <typename Split>
class AspWalker {
 public:
  using Node = typename Split::Node;

  AspWalker(Split split, ScoreSpan scores, double* probs,
            ParallelExecutor* executor, int spawn_min_rows)
      : split_(std::move(split)),
        scores_(scores),
        order_(static_cast<size_t>(scores.n)),
        probs_(probs),
        executor_(executor),
        spawn_min_rows_(spawn_min_rows) {
    std::iota(order_.begin(), order_.end(), 0);
  }

  void Run(TraversalLane& lane) {
    const Node root = split_.Root(scores_, &order_);
    Visit(lane, root, CandidateSlice{&order_, 0, order_.size()}, 1,
          nullptr);
  }

 private:
  // Visits `node` given its parent's candidates. `chain` holds the
  // Add-deltas of every ancestor; it is only needed (and only non-null)
  // when the parent spawned, since a child never has more rows than its
  // parent.
  void Visit(TraversalLane& lane, const Node& node,
             const CandidateSlice& parent, int depth,
             const std::shared_ptr<const PathChain>& chain) {
    const RowRange rows = split_.Rows(node);
    if (lane.SkipSubtree(order_, rows.begin, rows.end, depth)) return;
    ++lane.counters.nodes_visited;
    const NodeBox box = split_.Corners(node, scores_, order_,
                                       lane.CornerSlot(depth, scores_.dim));
    const bool spawns =
        executor_ != nullptr && rows.end - rows.begin >= spawn_min_rows_;
    std::vector<std::pair<int, double>> adds;  // filled only if `spawns`
    const AspTraversalState::Mark mark = lane.state.OpenScope();
    const size_t kept_begin = lane.candidates.size();
    FilterAspCandidates(scores_, parent, box.pmin, box.pmax, &lane,
                        spawns ? &adds : nullptr);

    if (!HandleAspTerminal(scores_, order_, rows.begin, rows.end, box.pmin,
                           box.pmax, lane.state, probs_, &lane.counters,
                           &lane.channel)) {
      if (spawns) {
        // The child tasks share one exact copy of the kept list, which
        // outlives this visit; the lane's stack slice is popped below.
        auto own_kept = std::make_shared<const std::vector<int>>(
            lane.candidates.begin() + static_cast<std::ptrdiff_t>(kept_begin),
            lane.candidates.end());
        auto node_chain =
            std::make_shared<const PathChain>(chain, std::move(adds));
        split_.ForEachChild(node, box, scores_, &order_,
                            [&](const Node& child) {
                              SpawnSubtree(child, depth + 1, node_chain,
                                           own_kept);
                            });
      } else {
        const CandidateSlice kept{&lane.candidates, kept_begin,
                                  lane.candidates.size()};
        split_.ForEachChild(node, box, scores_, &order_,
                            [&](const Node& child) {
                              Visit(lane, child, kept, depth + 1, nullptr);
                            });
      }
    }
    lane.candidates.resize(kept_begin);
    lane.state.CloseScope(mark);
  }

  void SpawnSubtree(const Node& node, int depth,
                    const std::shared_ptr<const PathChain>& chain,
                    const std::shared_ptr<const std::vector<int>>& kept) {
    executor_->Spawn([this, node, depth, chain, kept](TraversalLane& lane) {
      if (lane.stopped) return;  // global goal-met: skip even the replay
      const AspTraversalState::Mark mark = lane.state.OpenScope();
      chain->Replay(&lane.state);
      Visit(lane, node, CandidateSlice{kept.get(), 0, kept->size()}, depth,
            chain);
      lane.state.CloseScope(mark);
    });
  }

  Split split_;  // Root() may build storage; const during the walk
  const ScoreSpan scores_;
  std::vector<int> order_;  // subtrees permute disjoint slices
  double* const probs_;     // result->instance_probs, disjoint writes
  ParallelExecutor* const executor_;  // null = serial
  const int spawn_min_rows_;
};

/// Solves the context's query with an AspWalker over `split`: sets up the
/// goal pruner, then runs the walker on a ParallelExecutor when
/// `parallelism` >= 2, the input holds at least ParallelMinRows() rows and
/// the core budget grants at least two workers, and on a single serial
/// lane otherwise.
template <typename Split>
ArspResult SolveAspTraversal(ExecutionContext& context, int parallelism,
                             Split split) {
  const DatasetView& view = context.view();
  ArspResult result;
  result.instance_probs.assign(static_cast<size_t>(view.num_instances()),
                               0.0);
  if (view.num_instances() == 0) return result;
  const ScoreSpan scores = context.scores();
  GoalPruner pruner(context.goal(), view, &scores);
  GoalPruner* active = pruner.active() ? &pruner : nullptr;

  const int spawn_min_rows = SpawnMinRows();
  std::optional<SharedGoalState> shared;
  std::optional<ParallelExecutor> executor;
  std::optional<TraversalLane> serial_lane;
  if (parallelism >= 2 && scores.n >= ParallelMinRows()) {
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
  }
  AspWalker<Split> walker(std::move(split), scores,
                          result.instance_probs.data(),
                          executor.has_value() ? &*executor : nullptr,
                          spawn_min_rows);
  walker.Run(executor.has_value() ? executor->main_lane() : *serial_lane);
  if (executor.has_value()) {
    executor->RunAndWait();
    static_cast<WorkCounters&>(result) = executor->MergedCounters();
    result.tasks_spawned = executor->tasks_spawned();
    result.tasks_stolen = executor->tasks_stolen();
    result.parallel_workers = executor->num_workers();
  } else {
    static_cast<WorkCounters&>(result) = serial_lane->counters;
  }
  pruner.Finish(&result);
  return result;
}

}  // namespace internal
}  // namespace arsp

#endif  // ARSP_CORE_PARALLEL_TRAVERSAL_H_
