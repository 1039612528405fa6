// Copyright 2026 The ARSP Authors.

#include "src/core/kdtt_algorithm.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/parallel_traversal.h"
#include "src/core/solver.h"
#include "src/prefs/score_mapper.h"

namespace arsp {

namespace {

using internal::NodeBox;
using internal::RowRange;

// KDTT+: halve a node's rows at the median of its widest dimension,
// construction fused with the walk.
struct MedianSplit : internal::RangeSplit {
  int BranchFactor(int /*dim*/) const { return 2; }

  template <typename Emit>
  void ForEachChild(const RowRange& node, const NodeBox& box,
                    const ScoreSpan& scores, std::vector<int>* order,
                    Emit&& emit) const {
    const int mid = node.begin + (node.end - node.begin) / 2;
    const int split_dim = internal::WidestDim(box, scores.dim);
    std::nth_element(order->begin() + node.begin, order->begin() + mid,
                     order->begin() + node.end,
                     [&scores, split_dim](int a, int b) {
                       return scores.row(a)[split_dim] <
                              scores.row(b)[split_dim];
                     });
    emit(RowRange{node.begin, mid});
    emit(RowRange{mid, node.end});
  }
};

// KDTT: the same median split applied to the whole tree before the walk
// (serially — construction is the cheap, memory-bound phase); the walk then
// reads each node's children and corners from storage.
class PrebuiltKdSplit {
 public:
  using Node = int;  // index into nodes_

  int BranchFactor(int /*dim*/) const { return 2; }

  int Root(const ScoreSpan& scores, std::vector<int>* order) {
    return Build(scores, order, RowRange{0, scores.n});
  }
  RowRange Rows(int node) const { return At(node).rows; }
  NodeBox Corners(int node, const ScoreSpan& /*scores*/,
                  const std::vector<int>& /*order*/,
                  std::vector<double>* /*pmin*/,
                  std::vector<double>* /*pmax*/) const {
    return NodeBox{At(node).pmin.data(), At(node).pmax.data()};
  }

  template <typename Emit>
  void ForEachChild(int node, const NodeBox& /*box*/,
                    const ScoreSpan& /*scores*/, std::vector<int>* /*order*/,
                    Emit&& emit) const {
    ARSP_DCHECK(At(node).left >= 0 && At(node).right >= 0);
    emit(At(node).left);
    emit(At(node).right);
  }

 private:
  struct KdNode {
    RowRange rows;
    int left = -1, right = -1;
    std::vector<double> pmin, pmax;
  };

  const KdNode& At(int node) const {
    return nodes_[static_cast<size_t>(node)];
  }

  int Build(const ScoreSpan& scores, std::vector<int>* order, RowRange rows) {
    const size_t id = nodes_.size();
    nodes_.emplace_back();
    nodes_.back().rows = rows;
    std::vector<double> pmin, pmax;
    const MedianSplit median;
    const NodeBox box = median.Corners(rows, scores, *order, &pmin, &pmax);
    nodes_[id].pmin = pmin;
    nodes_[id].pmax = pmax;
    if (rows.end - rows.begin > 1 &&
        !CoordsEqual(box.pmin, box.pmax, scores.dim)) {
      int children[2] = {-1, -1};
      int count = 0;
      median.ForEachChild(rows, box, scores, order, [&](RowRange child) {
        children[count++] = Build(scores, order, child);
      });
      nodes_[id].left = children[0];
      nodes_[id].right = children[1];
    }
    return static_cast<int>(id);
  }

  std::vector<KdNode> nodes_;
};

// Solver façade over both traversal modes; "kdtt+" fuses construction with
// the traversal, "kdtt" builds the full tree first. The mode is part of the
// solver's registered identity (two names), not an option — options must
// never make name() disagree with what the registry handed out.
class KdttSolver : public ArspSolver {
 public:
  explicit KdttSolver(bool integrated) : integrated_(integrated) {}

  const char* name() const override { return integrated_ ? "kdtt+" : "kdtt"; }
  const char* display_name() const override {
    return integrated_ ? "KDTT+" : "KDTT";
  }
  const char* description() const override {
    return integrated_
               ? "kd-tree traversal, construction fused with pruning "
                 "(Algorithm 1, the paper's default)"
               : "kd-tree traversal over a fully prebuilt tree";
  }
  uint32_t capabilities() const override {
    return kCapGoalPushdown | kCapIntraQueryParallel;
  }

  Status Configure(const SolverOptions& options) override {
    ARSP_RETURN_IF_ERROR(
        options.ExpectOnly({"parallelism", "frontier_depth"}));
    ARSP_RETURN_IF_ERROR(
        internal::ReadParallelOptions(options, &parallelism_,
                                      &frontier_depth_));
    return Status::OK();
  }

 protected:
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context) override {
    if (integrated_) {
      return internal::SolveAspTraversal(context, parallelism_,
                                         frontier_depth_, MedianSplit());
    }
    return internal::SolveAspTraversal(context, parallelism_, frontier_depth_,
                                       PrebuiltKdSplit());
  }

 private:
  const bool integrated_;
  int parallelism_ = 1;
  int frontier_depth_ = 0;  // 0 = auto
};

ARSP_REGISTER_SOLVER(kdtt, "kdtt",
                     [] { return std::make_unique<KdttSolver>(false); });
ARSP_REGISTER_SOLVER(kdtt_plus, "kdtt+",
                     [] { return std::make_unique<KdttSolver>(true); });

}  // namespace

namespace internal {
void LinkKdttSolver() {}
}  // namespace internal

ArspResult ComputeArspKdtt(const UncertainDataset& dataset,
                           const PreferenceRegion& region,
                           const KdttOptions& options) {
  ExecutionContext context(dataset, region);
  return KdttSolver(options.integrated).Solve(context).value();
}

}  // namespace arsp
