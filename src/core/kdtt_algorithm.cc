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
  template <typename Emit>
  void ForEachChild(const RowRange& node, const NodeBox& box,
                    const ScoreSpan& scores, std::vector<int>* order,
                    Emit&& emit) const {
    const int mid =
        Partition(node, internal::WidestDim(box, scores.dim), scores, order);
    emit(RowRange{node.begin, mid});
    emit(RowRange{mid, node.end});
  }

  // Moves the lower half of the node's rows on `split_dim` in front of the
  // upper half; returns the first row of the upper half.
  static int Partition(const RowRange& node, int split_dim,
                       const ScoreSpan& scores, std::vector<int>* order) {
    const int mid = node.begin + (node.end - node.begin) / 2;
    std::nth_element(order->begin() + node.begin, order->begin() + mid,
                     order->begin() + node.end,
                     [&scores, split_dim](int a, int b) {
                       return scores.row(a)[split_dim] <
                              scores.row(b)[split_dim];
                     });
    return mid;
  }
};

// KDTT: the same median split applied to the whole tree before the walk
// (serially — construction is the cheap, memory-bound phase); the walk then
// reads each node's children from storage and its corners from one flat
// array.
class PrebuiltKdSplit {
 public:
  using Node = int;  // index into nodes_

  int Root(const ScoreSpan& scores, std::vector<int>* order) {
    return Build(scores, order, RowRange{0, scores.n});
  }
  RowRange Rows(int node) const { return At(node).rows; }
  NodeBox Corners(int node, const ScoreSpan& scores,
                  const std::vector<int>& /*order*/,
                  double* /*slot*/) const {
    const double* pmin = CornersOf(node, scores.dim);
    return NodeBox{pmin, pmin + scores.dim};
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
  };

  const KdNode& At(int node) const {
    return nodes_[static_cast<size_t>(node)];
  }
  // Node `node`'s pmin, followed by its pmax.
  const double* CornersOf(int node, int dim) const {
    return corners_.data() + static_cast<size_t>(node) * 2 * dim;
  }

  int Build(const ScoreSpan& scores, std::vector<int>* order, RowRange rows) {
    const int dim = scores.dim;
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back(KdNode{rows});
    corners_.resize(corners_.size() + 2 * static_cast<size_t>(dim));
    double* pmin = corners_.data() + static_cast<size_t>(id) * 2 * dim;
    internal::ComputeScoreCorners(scores, *order, rows.begin, rows.end, pmin,
                                  pmin + dim);
    if (rows.end - rows.begin > 1 && !CoordsEqual(pmin, pmin + dim, dim)) {
      // The split dimension is read before recursing: the children's
      // corners may reallocate corners_.
      const int mid = MedianSplit::Partition(
          rows, internal::WidestDim(NodeBox{pmin, pmin + dim}, dim), scores,
          order);
      const int left = Build(scores, order, RowRange{rows.begin, mid});
      const int right = Build(scores, order, RowRange{mid, rows.end});
      nodes_[static_cast<size_t>(id)].left = left;
      nodes_[static_cast<size_t>(id)].right = right;
    }
    return id;
  }

  std::vector<KdNode> nodes_;
  std::vector<double> corners_;  // 2·dim per node, in node order
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
    ARSP_RETURN_IF_ERROR(options.ExpectOnly({"parallelism"}));
    return internal::ReadParallelism(options, &parallelism_);
  }

 protected:
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context) override {
    if (integrated_) {
      return internal::SolveAspTraversal(context, parallelism_,
                                         MedianSplit());
    }
    return internal::SolveAspTraversal(context, parallelism_,
                                       PrebuiltKdSplit());
  }

 private:
  const bool integrated_;
  int parallelism_ = 1;
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
