// Copyright 2026 The ARSP Authors.
//
// Shared bookkeeping of the kd-ASP* style traversals (Algorithm 1 and its
// quadtree variant): the per-object dominating mass σ, the running product
// β = Π_{σ[j]≠1}(1 - σ[j]), and the full-object counter χ = |{j : σ[j]=1}|,
// with O(1) incremental apply/undo as candidates move into the dominating
// set D of a node.
//
// Deviation from the printed pseudocode (ARCHITECTURE.md, "Deviations and
// substitutions"): at a leaf, the case χ = 1 caused by the instance's *own*
// object still has non-zero probability — the paper handles this case in
// its DUAL-M variant (§IV-B) and we apply the same rule here.
//
// Parallel execution: a traversal runs on one or more TraversalLane's —
// each lane owns a private AspTraversalState, scratch buffers, counters
// and a GoalChannel.
// Lanes never share mutable state except through SharedGoalState (goal
// pushdown under parallelism), whose decisions are monotone, so lanes can
// proceed with stale snapshots without ever producing a wrong value.

#ifndef ARSP_CORE_ASP_TRAVERSAL_STATE_H_
#define ARSP_CORE_ASP_TRAVERSAL_STATE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/core/arsp_result.h"
#include "src/core/solver.h"
#include "src/core/work_counters.h"
#include "src/geometry/point.h"
#include "src/prefs/score_mapper.h"
#include "src/simd/kernels.h"

namespace arsp {
namespace internal {

/// Incremental (σ, β, χ) state over m objects, with scoped undo.
///
/// Adds happen inside scopes (one per node visit, plus one per replayed
/// PathChain). The undo stack records {object, old σ} only on an object's
/// *first* Add in the current scope, and a scope's Mark snapshots (β, χ)
/// at entry, so closing a scope restores the state *bitwise*: an
/// entered-and-exited subtree is indistinguishable from one never entered.
/// That exactness is what lets goal pruning, scoped (sharded) solves, and
/// path-replayed parallel tasks return values bit-identical to a full
/// serial solve. Adds made outside every scope are permanent.
class AspTraversalState {
 public:
  explicit AspTraversalState(int num_objects)
      : slots_(static_cast<size_t>(num_objects)) {}

  /// What CloseScope restores: the undo-stack height and (β, χ) at entry,
  /// and the enclosing scope.
  struct Mark {
    size_t undo_size;
    double beta;
    int chi;
    uint64_t scope;
  };

  double beta() const { return beta_; }
  int chi() const { return chi_; }
  double sigma(int object) const {
    return slots_[static_cast<size_t>(object)].sigma;
  }
  /// True iff object j's entire mass dominates the current node's min
  /// corner (σ[j] = 1 up to the shared probability tolerance).
  bool IsFull(int object) const {
    return sigma(object) >= 1.0 - kProbabilityEps;
  }
  /// Undo records currently held (one per object per open scope at most).
  size_t undo_size() const { return undo_.size(); }

  /// Opens a nested scope; pass the returned mark to CloseScope.
  Mark OpenScope() {
    const Mark mark{undo_.size(), beta_, chi_, scope_};
    scope_ = ++next_scope_;
    return mark;
  }

  /// σ[object] += prob, maintaining β and χ.
  void Add(int object, double prob) {
    Slot& slot = slots_[static_cast<size_t>(object)];
    if (slot.scope != scope_) {
      undo_.push_back(Change{object, slot.sigma});
      slot.scope = scope_;
    }
    const double old_value = slot.sigma;
    slot.sigma += prob;
    const bool was_full = old_value >= 1.0 - kProbabilityEps;
    const bool is_full = slot.sigma >= 1.0 - kProbabilityEps;
    if (!was_full && is_full) {
      ++chi_;
      beta_ /= (1.0 - old_value);  // remove the object's factor from β
    } else if (!is_full) {
      beta_ *= (1.0 - slot.sigma) / (1.0 - old_value);
    }
  }

  /// Reverts every Add since `mark` was opened (nested scopes must be
  /// closed first): σ from the records, newest first, and (β, χ) from the
  /// mark — no floating-point arithmetic, hence no drift, on the unwind
  /// path. A closed scope's ids are never reused, so an object the
  /// enclosing scope touches again is recorded again; newest-first restore
  /// keeps that exact.
  void CloseScope(const Mark& mark) {
    for (size_t i = undo_.size(); i > mark.undo_size; --i) {
      const Change& change = undo_[i - 1];
      slots_[static_cast<size_t>(change.object)].sigma = change.old_sigma;
    }
    undo_.resize(mark.undo_size);
    beta_ = mark.beta;
    chi_ = mark.chi;
    scope_ = mark.scope;
  }

  /// Final rskyline probability of an instance of `object` with existence
  /// probability `prob`, given that σ is exact for that instance's point:
  ///   χ = 0            →  β · p / (1 - σ[own])
  ///   χ = 1, own full  →  β · p      (β already excludes the own factor)
  ///   otherwise        →  0          (some foreign object fully dominates)
  double LeafProbability(int object, double prob) const {
    if (chi_ == 0) {
      return beta_ * prob / (1.0 - sigma(object));
    }
    if (chi_ == 1 && IsFull(object)) {
      return beta_ * prob;
    }
    return 0.0;
  }

 private:
  /// One undo record: an object's σ before its first Add in a scope.
  struct Change {
    int object;
    double old_sigma;
  };
  struct Slot {
    double sigma = 0.0;
    uint64_t scope = 0;  // the scope of this object's last recorded Add
  };

  std::vector<Slot> slots_;
  std::vector<Change> undo_;
  double beta_ = 1.0;
  int chi_ = 0;
  uint64_t scope_ = 0;       // 0 = outside every scope
  uint64_t next_scope_ = 0;  // ids are never reused
};

/// Cross-lane goal-pushdown state: wraps the query's single authoritative
/// GoalPruner behind a mutex and republishes its decided-object mask as an
/// epoch-stamped snapshot that lanes copy between tasks. Because pruner
/// decisions are monotone (an object, once decided, never becomes
/// undecided, and the global goal-met flag never clears), a lane acting on
/// a stale snapshot only *misses* pruning opportunities — it can never
/// skip work it still needed, so correctness is unconditional and the
/// final answer set matches serial. Defined in
/// src/core/parallel_traversal.cc.
class SharedGoalState {
 public:
  /// `pruner` may be null (full goal): then the state is inert and every
  /// channel built on it behaves as inactive.
  explicit SharedGoalState(GoalPruner* pruner);

  bool active() const { return pruner_ != nullptr; }

  /// Global early-exit flag: set once GoalMet() held under the lock.
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Applies a batch of (instance id, probability) resolutions to the
  /// authoritative pruner under the lock, then republishes the decided
  /// mask (epoch bump) if any new object decision landed.
  void Flush(const std::vector<std::pair<int, double>>& resolutions);

  /// Copies the latest published mask into `mask` iff `*epoch_seen` is
  /// stale, updating `*epoch_seen` / `*any_decided`.
  void RefreshSnapshot(std::vector<unsigned char>* mask,
                       uint64_t* epoch_seen, bool* any_decided) const;

 private:
  void PublishLocked();

  GoalPruner* const pruner_;
  mutable std::mutex mu_;
  std::vector<unsigned char> published_;  // decided mask copy, under mu_
  int published_count_ = 0;               // decided count at last publish
  std::atomic<uint64_t> epoch_{1};
  std::atomic<bool> stop_{false};
};

/// A lane's view of goal pushdown; one of three modes:
///  * inactive (default) — full goal, every query is a cheap no-op;
///  * direct — serial execution: calls straight into the GoalPruner;
///  * buffered — parallel execution: resolutions accumulate locally and
///    flush in batches to the SharedGoalState; decided/stopped queries are
///    answered from the lane's snapshot (refreshed between tasks).
/// The buffered mode is what makes goal pushdown race-free under
/// parallelism: the pruner itself is only ever touched under the shared
/// lock, and snapshots are plain lane-private copies.
class GoalChannel {
 public:
  static constexpr size_t kFlushBatch = 4096;

  GoalChannel() = default;
  /// Direct mode; a null pruner degrades to inactive.
  explicit GoalChannel(GoalPruner* pruner) : pruner_(pruner) {}
  /// Buffered mode; `instance_objects` maps local instance id → object id
  /// (needed to answer AllDecided from the object-indexed snapshot). An
  /// inert `shared` degrades to inactive.
  GoalChannel(SharedGoalState* shared, const int* instance_objects)
      : shared_(shared != nullptr && shared->active() ? shared : nullptr),
        objects_(instance_objects) {}

  bool active() const { return pruner_ != nullptr || shared_ != nullptr; }

  /// Global early-exit: the goal is met, stop traversing everywhere.
  bool GoalMet() const {
    if (pruner_ != nullptr) return pruner_->GoalMet();
    if (shared_ != nullptr) return shared_->stopped();
    return false;
  }

  /// True when every instance in ids[0..count) belongs to a decided
  /// object. Buffered mode answers from the lane snapshot — stale is fine,
  /// it only under-reports (see SharedGoalState).
  bool AllDecided(const int* ids, int count) const {
    if (pruner_ != nullptr) return pruner_->AllDecided(ids, count);
    if (shared_ == nullptr || !snapshot_any_) return false;
    for (int i = 0; i < count; ++i) {
      const int object = objects_[ids[i]];
      if (snapshot_[static_cast<size_t>(object)] == 0) return false;
    }
    return true;
  }

  /// Reports one instance's exact probability. Callers guard loops with
  /// active() so the full-goal path pays nothing per instance.
  void Resolve(int instance, double prob) {
    if (pruner_ != nullptr) {
      pruner_->Resolve(instance, prob);
      return;
    }
    if (shared_ != nullptr) {
      buffer_.emplace_back(instance, prob);
      if (buffer_.size() >= kFlushBatch) Flush();
    }
  }

  /// Pushes buffered resolutions to the shared pruner (no-op otherwise).
  /// Call at task end — resolutions must not outlive their task, or a
  /// long-running lane could starve the global goal check.
  void Flush() {
    if (shared_ != nullptr && !buffer_.empty()) {
      shared_->Flush(buffer_);
      buffer_.clear();
    }
  }

  /// Refreshes the decided-mask snapshot; call between tasks.
  void BeginTask() {
    if (shared_ != nullptr) {
      shared_->RefreshSnapshot(&snapshot_, &epoch_seen_, &snapshot_any_);
    }
  }

 private:
  GoalPruner* pruner_ = nullptr;     // direct mode
  SharedGoalState* shared_ = nullptr;  // buffered mode
  const int* objects_ = nullptr;
  std::vector<std::pair<int, double>> buffer_;
  std::vector<unsigned char> snapshot_;  // decided mask, object-indexed
  uint64_t epoch_seen_ = 0;
  bool snapshot_any_ = false;
};

/// Candidates FilterAspCandidates hands to one PartitionCorners call: the
/// size of the lane's fixed block buffers.
inline constexpr int kFilterBlock = 1024;

/// Everything one worker needs to traverse a subtree: private (σ, β, χ)
/// state with its undo stack, the candidate stack, corner slots, the
/// filter's block buffers, counters and its goal channel. Lane 0 is the
/// calling thread's (and the only lane in serial mode); helper workers get
/// lanes 1..W-1. A lane runs one task at a time and every node visit pops
/// what it pushed, so all buffers are empty between tasks and grow only
/// to the deepest path seen — allocations are O(depth) per lane, not
/// O(nodes). The `stopped` flag is lane-sticky: once a lane has observed
/// goal-met it records the depth and skips everything else handed to it.
struct TraversalLane {
  TraversalLane(int num_objects, GoalChannel channel_in)
      : state(num_objects), channel(std::move(channel_in)) {}

  AspTraversalState state;
  /// Candidate lists of the open nodes, each a slice [begin, end) of one
  /// stack: a node's kept list is pushed on top of its parent's.
  std::vector<int> candidates;
  /// PartitionCorners outputs of one filter block, consumed before the
  /// next block (so one pair serves every level).
  std::array<int, kFilterBlock> block_dominators;
  std::array<int, kFilterBlock> block_kept;
  WorkCounters counters;  // merged over lanes by WorkCounters::MergeFrom
  GoalChannel channel;
  bool stopped = false;  // this lane saw the global goal-met early exit

  /// 2·dim doubles for the corners of the node at `depth`. Slots are
  /// separate buffers, so a deeper slot's growth never moves this one.
  double* CornerSlot(int depth, int dim) {
    const size_t level = static_cast<size_t>(depth);
    if (corner_slots_.size() <= level) corner_slots_.resize(level + 1);
    std::vector<double>& slot = corner_slots_[level];
    if (slot.size() < 2 * static_cast<size_t>(dim)) {
      slot.resize(2 * static_cast<size_t>(dim));
    }
    return slot.data();
  }

  /// True when rows order[begin..end) at `depth` need not be visited
  /// (goal met globally, or every instance belongs to a decided object).
  /// Skipping is sound because a subtree's σ updates are local to it
  /// (undone on unwind) — they can never change another instance's value.
  bool SkipSubtree(const std::vector<int>& order, int begin, int end,
                   int depth) {
    if (!channel.active()) return false;
    if (stopped) return true;
    if (channel.GoalMet()) {
      stopped = true;
      counters.early_exit_depth = depth;
      return true;
    }
    if (channel.AllDecided(order.data() + begin, end - begin)) {
      ++counters.nodes_pruned;
      return true;
    }
    return false;
  }

 private:
  std::vector<std::vector<double>> corner_slots_;
};

// The steps of one node visit of AspWalker (parallel_traversal.h), which
// walks the SoA score storage (ScoreSpan; row index == local instance id,
// view-local object ids) through an `order` permutation for every
// traversal solver.

/// Tight [pmin, pmax] corners of rows order[begin..end) (end > begin),
/// written to pmin[0..dim) and pmax[0..dim), tightened by the dispatched
/// ScoreCorners kernel (strict-inequality updates: ties keep the first
/// occurrence, identically to the scalar reference on every arch).
inline void ComputeScoreCorners(const ScoreSpan& scores,
                                const std::vector<int>& order, int begin,
                                int end, double* pmin, double* pmax) {
  const int dim = scores.dim;
  const double* first = scores.row(order[static_cast<size_t>(begin)]);
  std::copy(first, first + dim, pmin);
  std::copy(first, first + dim, pmax);
  if (end - begin > 1) {
    simd::Ops().ScoreCorners(scores.coords, dim,
                             order.data() + begin + 1, end - begin - 1,
                             pmin, pmax);
  }
}

/// A node's candidate list: the slice [begin, end) of `list`, which is
/// either a lane's candidate stack or a spawned task's shared kept list.
/// Held by offsets, so growing the stack never invalidates it.
struct CandidateSlice {
  const std::vector<int>* list;
  size_t begin, end;

  const int* data() const { return list->data() + begin; }
  int size() const { return static_cast<int>(end - begin); }
};

/// Filters the parent's candidates against a node's corners: candidates
/// that dominate pmin move into D (σ, in the lane's open scope); those that
/// dominate pmax are kept, pushed on the lane's candidate stack; everything
/// else is discarded for this subtree. The candidates run through the
/// PartitionCorners kernel in blocks of kFilterBlock, each partitioned into
/// the lane's block buffers and applied before the next block: the block's
/// kept ids are appended, then its dominators are Added. Both lists come
/// out in candidate order, so the stack and the Add sequence — hence σ, β
/// and χ, bitwise — are those of a per-candidate loop. The parent slice is
/// re-read per block, since an append may move the stack it lies on. Counts
/// one dominance test per candidate. When `adds_out` is non-null, every
/// (object, prob) fed to Add is also appended there — the walker records
/// these per-node deltas into a PathChain so spawned tasks can replay the
/// root→node σ path with the exact same Add sequence (hence bitwise-equal
/// state).
inline void FilterAspCandidates(const ScoreSpan& scores,
                                const CandidateSlice& parent,
                                const double* pmin, const double* pmax,
                                TraversalLane* lane,
                                std::vector<std::pair<int, double>>*
                                    adds_out = nullptr) {
  const int count = parent.size();
  lane->counters.dominance_tests += count;
  std::vector<int>& kept = lane->candidates;
  for (int begin = 0; begin < count; begin += kFilterBlock) {
    const simd::PartitionCounts block = simd::Ops().PartitionCorners(
        scores.coords, scores.dim, parent.data() + begin,
        std::min(kFilterBlock, count - begin), pmin, pmax,
        lane->block_dominators.data(), lane->block_kept.data());
    kept.insert(kept.end(), lane->block_kept.data(),
                lane->block_kept.data() + block.kept);
    for (int i = 0; i < block.dominators; ++i) {
      const int cid = lane->block_dominators[static_cast<size_t>(i)];
      const int object = scores.object(cid);
      const double prob = scores.prob(cid);
      lane->state.Add(object, prob);
      if (adds_out != nullptr) adds_out->emplace_back(object, prob);
    }
  }
}

/// Terminal handling shared by every traversal mode; returns true when the
/// subtree [begin, end) of `order` is fully resolved (leaf emitted or
/// pruned):
///   χ ≥ 2        — two foreign full dominators: everything is zero;
///   χ = 1        — only instances coinciding with pmin (where σ is exact)
///                  can survive (ARCHITECTURE.md, "Deviations and
///                  substitutions");
///   pmin == pmax — true leaf; σ is exact for every (coincident) instance.
/// A terminal determines the exact probability of *every* instance in the
/// range (zeros included), so it is also the goal-pushdown resolution
/// point: when the channel is active each instance is reported to it once.
/// Probabilities land in `probs` (instance-indexed); since every instance
/// appears in exactly one terminal and subtree ranges are disjoint,
/// parallel lanes write disjoint entries — the merge is the identity.
inline bool HandleAspTerminal(const ScoreSpan& scores,
                              const std::vector<int>& order, int begin,
                              int end, const double* pmin, const double* pmax,
                              const AspTraversalState& state, double* probs,
                              WorkCounters* counters,
                              GoalChannel* channel) {
  if (state.chi() >= 2) {
    if (channel->active()) {
      for (int i = begin; i < end; ++i) {
        channel->Resolve(order[static_cast<size_t>(i)], 0.0);
      }
    }
    ++counters->nodes_pruned;
    return true;
  }
  if (state.chi() == 1) {
    for (int i = begin; i < end; ++i) {
      const int id = order[static_cast<size_t>(i)];
      double prob = 0.0;
      if (CoordsEqual(scores.row(id), pmin, scores.dim)) {
        prob = state.LeafProbability(scores.object(id), scores.prob(id));
        probs[static_cast<size_t>(id)] = prob;
      }
      if (channel->active()) channel->Resolve(id, prob);
    }
    ++counters->nodes_pruned;
    return true;
  }
  if (CoordsEqual(pmin, pmax, scores.dim)) {
    for (int i = begin; i < end; ++i) {
      const int id = order[static_cast<size_t>(i)];
      const double prob =
          state.LeafProbability(scores.object(id), scores.prob(id));
      probs[static_cast<size_t>(id)] = prob;
      if (channel->active()) channel->Resolve(id, prob);
    }
    return true;
  }
  return false;
}

}  // namespace internal
}  // namespace arsp

#endif  // ARSP_CORE_ASP_TRAVERSAL_STATE_H_
