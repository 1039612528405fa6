// Copyright 2026 The ARSP Authors.

#include "src/core/qdtt_algorithm.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/parallel_traversal.h"
#include "src/core/solver.h"
#include "src/prefs/score_mapper.h"

namespace arsp {

namespace {

using internal::NodeBox;
using internal::RowRange;

// QDTT+: partition a node's rows into quadrants around its box center by
// sorting on the quadrant code; only non-empty quadrants become children
// (no 2^{d'} allocation, though the fan-out still hurts in high
// dimensions).
struct QuadrantSplit : internal::RangeSplit {
  // Quadrant codes are 64-bit masks with one bit per mapped dimension.
  static constexpr int kMaxDim = 63;

  RowRange Root(const ScoreSpan& scores, std::vector<int>* order) const {
    ARSP_CHECK_MSG(scores.dim <= kMaxDim,
                   "QDTT+ quadrant codes support at most 63 mapped "
                   "dimensions; use KDTT+ or B&B for larger vertex sets");
    return RangeSplit::Root(scores, order);
  }

  template <typename Emit>
  void ForEachChild(const RowRange& node, const NodeBox& box,
                    const ScoreSpan& scores, std::vector<int>* order,
                    Emit&& emit) const {
    const int dim = scores.dim;
    double center[kMaxDim];  // dim <= kMaxDim, checked by Root
    for (int k = 0; k < dim; ++k) {
      center[k] = 0.5 * (box.pmin[k] + box.pmax[k]);
    }
    const auto code = [&scores, &center, dim](int row) {
      const double* p = scores.row(row);
      uint64_t bits = 0;
      for (int k = 0; k < dim; ++k) {
        bits = (bits << 1) | (p[k] > center[k] ? 1u : 0u);
      }
      return bits;
    };
    std::sort(order->begin() + node.begin, order->begin() + node.end,
              [&code](int a, int b) { return code(a) < code(b); });
    int chunk = node.begin;
    while (chunk < node.end) {
      const uint64_t chunk_code = code((*order)[static_cast<size_t>(chunk)]);
      int chunk_end = chunk + 1;
      while (chunk_end < node.end &&
             code((*order)[static_cast<size_t>(chunk_end)]) == chunk_code) {
        ++chunk_end;
      }
      emit(RowRange{chunk, chunk_end});
      chunk = chunk_end;
    }
  }
};

class QdttSolver : public ArspSolver {
 public:
  const char* name() const override { return "qdtt+"; }
  const char* display_name() const override { return "QDTT+"; }
  const char* description() const override {
    return "quadtree traversal (2^d' quadrants per node), construction "
           "fused with pruning";
  }
  uint32_t capabilities() const override {
    return kCapExponentialInVertices | kCapGoalPushdown |
           kCapIntraQueryParallel;
  }

  Status Configure(const SolverOptions& options) override {
    ARSP_RETURN_IF_ERROR(options.ExpectOnly({"parallelism"}));
    return internal::ReadParallelism(options, &parallelism_);
  }

 protected:
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context) override {
    return internal::SolveAspTraversal(context, parallelism_,
                                       QuadrantSplit());
  }

 private:
  int parallelism_ = 1;
};

ARSP_REGISTER_SOLVER(qdtt_plus, "qdtt+",
                     [] { return std::make_unique<QdttSolver>(); });

}  // namespace

namespace internal {
void LinkQdttSolver() {}
}  // namespace internal

ArspResult ComputeArspQdtt(const UncertainDataset& dataset,
                           const PreferenceRegion& region) {
  ExecutionContext context(dataset, region);
  return QdttSolver().Solve(context).value();
}

}  // namespace arsp
