// Copyright 2026 The ARSP Authors.
//
// Portable reference implementation of the kernel table. This file defines
// the semantics — the SIMD backends must match it bit for bit — so keep
// every loop here boring and explicit: strict-inequality min/max updates,
// the 4-accumulator sum spec, sequential per-output dot products.

#include <cstddef>

#include "src/simd/kernels.h"

namespace arsp {
namespace simd {
namespace {

inline const double* Row(const double* coords, int dim, int id) {
  return coords + static_cast<size_t>(id) * static_cast<size_t>(dim);
}

PartitionCounts PartitionCornersScalar(const double* coords, int dim,
                                       const int* ids, int count,
                                       const double* pmin, const double* pmax,
                                       int* dominators, int* kept) {
  int num_dominators = 0;
  int num_kept = 0;
  for (int c = 0; c < count; ++c) {
    const int id = ids[c];
    const double* row = Row(coords, dim, id);
    bool le_min = true;
    bool le_max = true;
    for (int k = 0; k < dim; ++k) {
      le_min &= !(row[k] > pmin[k]);
      le_max &= !(row[k] > pmax[k]);
    }
    dominators[num_dominators] = id;
    kept[num_kept] = id;
    num_dominators += static_cast<int>(le_min);
    num_kept += static_cast<int>(le_max & !le_min);
  }
  return PartitionCounts{num_dominators, num_kept};
}

void ScoreCornersScalar(const double* coords, int dim, const int* ids,
                        int count, double* pmin, double* pmax) {
  for (int c = 0; c < count; ++c) {
    const double* row = Row(coords, dim, ids[c]);
    for (int k = 0; k < dim; ++k) {
      if (row[k] < pmin[k]) pmin[k] = row[k];
      if (row[k] > pmax[k]) pmax[k] = row[k];
    }
  }
}

void DominatedMaskScalar(const double* rows, int n, int dim, const double* q,
                         unsigned char* out) {
  for (int i = 0; i < n; ++i) {
    const double* row = Row(rows, dim, i);
    bool dominated = true;
    for (int k = 0; k < dim; ++k) dominated &= !(q[k] > row[k]);
    out[i] = dominated ? 1 : 0;
  }
}

int DominanceCountScalar(const double* rows, int n, int dim,
                         const double* q) {
  int count = 0;
  for (int i = 0; i < n; ++i) {
    const double* row = Row(rows, dim, i);
    bool dominates = true;
    for (int k = 0; k < dim; ++k) dominates &= !(row[k] > q[k]);
    count += dominates ? 1 : 0;
  }
  return count;
}

bool AnyRowDominatesScalar(const double* rows, int n, int dim,
                           const double* q) {
  for (int i = 0; i < n; ++i) {
    const double* row = Row(rows, dim, i);
    bool dominates = true;
    for (int k = 0; k < dim; ++k) dominates &= !(row[k] > q[k]);
    if (dominates) return true;
  }
  return false;
}

void MapPointScalar(const double* t, int d, const double* vt, int dprime,
                    double* out) {
  for (int k = 0; k < dprime; ++k) out[k] = 0.0;
  for (int j = 0; j < d; ++j) {
    const double tj = t[j];
    const double* vrow = vt + static_cast<size_t>(j) * static_cast<size_t>(
                                                           dprime);
    for (int k = 0; k < dprime; ++k) out[k] += tj * vrow[k];
  }
}

double SumProbsScalar(const double* probs, int n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += probs[i];
    l1 += probs[i + 1];
    l2 += probs[i + 2];
    l3 += probs[i + 3];
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (; i < n; ++i) sum += probs[i];
  return sum;
}

void BoundSweepMaskScalar(const double* lower, const double* pending,
                          const unsigned char* decided, int m,
                          double threshold, unsigned char* out) {
  for (int j = 0; j < m; ++j) {
    out[j] = (decided[j] == 0 && lower[j] + pending[j] < threshold) ? 1 : 0;
  }
}

const KernelOps kScalarOps = {
    KernelArch::kScalar,    PartitionCornersScalar, ScoreCornersScalar,
    DominatedMaskScalar,    DominanceCountScalar,   AnyRowDominatesScalar,
    MapPointScalar,         SumProbsScalar,         BoundSweepMaskScalar,
};

}  // namespace

namespace internal {

const KernelOps& ScalarOps() { return kScalarOps; }

}  // namespace internal
}  // namespace simd
}  // namespace arsp
