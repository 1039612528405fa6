// Copyright 2026 The ARSP Authors.

#include "src/core/mwtt_algorithm.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/parallel_traversal.h"
#include "src/core/solver.h"
#include "src/prefs/score_mapper.h"

namespace arsp {

namespace {

using internal::NodeBox;
using internal::RowRange;

// MWTT: sort a node's rows along its widest dimension and cut them into
// `fanout` equal slabs (1-D STR slicing). Slabs inherit small extents on
// the split dimension, improving min-corner dominance tests.
struct SlabSplit : internal::RangeSplit {
  explicit SlabSplit(int fanout_in) : fanout(fanout_in) {
    ARSP_CHECK_MSG(fanout >= 2, "MWTT fanout must be >= 2 (got %d)", fanout);
  }

  template <typename Emit>
  void ForEachChild(const RowRange& node, const NodeBox& box,
                    const ScoreSpan& scores, std::vector<int>* order,
                    Emit&& emit) const {
    const int split_dim = internal::WidestDim(box, scores.dim);
    std::sort(order->begin() + node.begin, order->begin() + node.end,
              [&scores, split_dim](int a, int b) {
                return scores.row(a)[split_dim] < scores.row(b)[split_dim];
              });
    const int slab = std::max(1, (node.end - node.begin + fanout - 1) / fanout);
    for (int chunk = node.begin; chunk < node.end; chunk += slab) {
      emit(RowRange{chunk, std::min(node.end, chunk + slab)});
    }
  }

  int fanout;
};

class MwttSolver : public ArspSolver {
 public:
  explicit MwttSolver(int fanout = MwttOptions{}.fanout) : fanout_(fanout) {}

  const char* name() const override { return "mwtt"; }
  const char* display_name() const override { return "MWTT"; }
  const char* description() const override {
    return "multi-way tree traversal (equal slabs along the widest mapped "
           "dimension); option fanout=N";
  }
  uint32_t capabilities() const override {
    return kCapGoalPushdown | kCapIntraQueryParallel;
  }

  Status Configure(const SolverOptions& options) override {
    ARSP_RETURN_IF_ERROR(options.ExpectOnly({"fanout", "parallelism"}));
    StatusOr<int64_t> fanout = options.IntOr("fanout", fanout_);
    if (!fanout.ok()) return fanout.status();
    if (*fanout < 2) {
      return Status::InvalidArgument("mwtt fanout must be >= 2, got " +
                                     std::to_string(*fanout));
    }
    fanout_ = static_cast<int>(*fanout);
    return internal::ReadParallelism(options, &parallelism_);
  }

 protected:
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context) override {
    return internal::SolveAspTraversal(context, parallelism_,
                                       SlabSplit(fanout_));
  }

 private:
  int fanout_;
  int parallelism_ = 1;
};

ARSP_REGISTER_SOLVER(mwtt, "mwtt",
                     [] { return std::make_unique<MwttSolver>(); });

}  // namespace

namespace internal {
void LinkMwttSolver() {}
}  // namespace internal

ArspResult ComputeArspMwtt(const UncertainDataset& dataset,
                           const PreferenceRegion& region,
                           const MwttOptions& options) {
  ExecutionContext context(dataset, region);
  return MwttSolver(options.fanout).Solve(context).value();
}

}  // namespace arsp
