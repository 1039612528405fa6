// Copyright 2026 The ARSP Authors.
//
// AVX2 kernel table (x86-64). Compiled into every x86-64 build via
// per-function target attributes — no global -mavx2, so the rest of the
// binary stays baseline and the table is only selected when CPUID reports
// AVX2 at runtime. Deliberately avoids FMA: the bit-identity contract
// requires the scalar multiply-then-add rounding, so every dot product is
// an explicit _mm256_mul_pd followed by _mm256_add_pd, and min/max use
// MINPD/MAXPD with the accumulator as the second operand (ties and ±0.0
// keep the incumbent, matching the scalar strict-inequality update).
//
// Comparison loops accumulate violation masks branchlessly across the
// 4-wide (then 2-wide, then scalar) dimension chunks and test once per
// row — the branch-per-coordinate pattern of the scalar DominatesWeak is
// exactly what this file exists to remove.

#include "src/simd/kernels.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#define ARSP_AVX2 __attribute__((target("avx2")))

namespace arsp {
namespace simd {
namespace {

inline const double* Row(const double* coords, int dim, int id) {
  return coords + static_cast<size_t>(id) * static_cast<size_t>(dim);
}

// Violation masks of `row` against two reference rows a and b over dim
// coordinates: sets *gt_a iff row[k] > a[k] for some k, likewise *gt_b.
ARSP_AVX2 inline void ViolationsAgainstTwo(const double* row, const double* a,
                                           const double* b, int dim,
                                           bool* gt_a, bool* gt_b) {
  __m256d viol_a4 = _mm256_setzero_pd();
  __m256d viol_b4 = _mm256_setzero_pd();
  int k = 0;
  for (; k + 4 <= dim; k += 4) {
    const __m256d r = _mm256_loadu_pd(row + k);
    viol_a4 = _mm256_or_pd(
        viol_a4, _mm256_cmp_pd(r, _mm256_loadu_pd(a + k), _CMP_GT_OQ));
    viol_b4 = _mm256_or_pd(
        viol_b4, _mm256_cmp_pd(r, _mm256_loadu_pd(b + k), _CMP_GT_OQ));
  }
  bool va = _mm256_movemask_pd(viol_a4) != 0;
  bool vb = _mm256_movemask_pd(viol_b4) != 0;
  if (k + 2 <= dim) {
    const __m128d r = _mm_loadu_pd(row + k);
    va |= _mm_movemask_pd(_mm_cmpgt_pd(r, _mm_loadu_pd(a + k))) != 0;
    vb |= _mm_movemask_pd(_mm_cmpgt_pd(r, _mm_loadu_pd(b + k))) != 0;
    k += 2;
  }
  if (k < dim) {
    va |= row[k] > a[k];
    vb |= row[k] > b[k];
  }
  *gt_a = va;
  *gt_b = vb;
}

// Violation mask of `row` against one reference row.
ARSP_AVX2 inline bool ViolatesAgainst(const double* row, const double* a,
                                      int dim) {
  __m256d viol4 = _mm256_setzero_pd();
  int k = 0;
  for (; k + 4 <= dim; k += 4) {
    viol4 = _mm256_or_pd(
        viol4, _mm256_cmp_pd(_mm256_loadu_pd(row + k),
                             _mm256_loadu_pd(a + k), _CMP_GT_OQ));
  }
  bool viol = _mm256_movemask_pd(viol4) != 0;
  if (k + 2 <= dim) {
    viol |= _mm_movemask_pd(_mm_cmpgt_pd(_mm_loadu_pd(row + k),
                                         _mm_loadu_pd(a + k))) != 0;
    k += 2;
  }
  if (k < dim) viol |= row[k] > a[k];
  return viol;
}

// Stores `id` at both output cursors and advances each by its comparison
// result — the branch-free step of PartitionCorners. gt_min/gt_max are
// nonzero iff the row exceeds that corner in some coordinate.
inline void PartitionStep(int id, int gt_min, int gt_max, int* dominators,
                          int* kept, PartitionCounts* counts) {
  dominators[counts->dominators] = id;
  kept[counts->kept] = id;
  counts->dominators += static_cast<int>(gt_min == 0);
  counts->kept += static_cast<int>((gt_max == 0) & (gt_min != 0));
}

// PartitionCorners for dim <= 4: the corners stay in registers for the
// whole call and each candidate costs one row load. Rows narrower than 4
// (kFullRow false) use a masked load — it never touches memory past the
// row — whose zeroed lanes compare 0 > 0, i.e. never violate, against the
// equally zeroed corner lanes.
template <bool kFullRow>
ARSP_AVX2 inline PartitionCounts PartitionNarrowAvx2(
    const double* coords, int dim, const int* ids, int count,
    const double* pmin, const double* pmax, int* dominators, int* kept) {
  const __m256i lanes = _mm256_cmpgt_epi64(_mm256_set1_epi64x(dim),
                                           _mm256_setr_epi64x(0, 1, 2, 3));
  const __m256d mn = _mm256_maskload_pd(pmin, lanes);
  const __m256d mx = _mm256_maskload_pd(pmax, lanes);
  PartitionCounts counts{0, 0};
  for (int c = 0; c < count; ++c) {
    const int id = ids[c];
    const double* row = Row(coords, dim, id);
    const __m256d r = kFullRow ? _mm256_loadu_pd(row)
                               : _mm256_maskload_pd(row, lanes);
    PartitionStep(id, _mm256_movemask_pd(_mm256_cmp_pd(r, mn, _CMP_GT_OQ)),
                  _mm256_movemask_pd(_mm256_cmp_pd(r, mx, _CMP_GT_OQ)),
                  dominators, kept, &counts);
  }
  return counts;
}

ARSP_AVX2 PartitionCounts PartitionCornersAvx2(const double* coords, int dim,
                                               const int* ids, int count,
                                               const double* pmin,
                                               const double* pmax,
                                               int* dominators, int* kept) {
  if (dim == 4) {
    return PartitionNarrowAvx2<true>(coords, dim, ids, count, pmin, pmax,
                                     dominators, kept);
  }
  if (dim < 4) {
    return PartitionNarrowAvx2<false>(coords, dim, ids, count, pmin, pmax,
                                      dominators, kept);
  }
  PartitionCounts counts{0, 0};
  for (int c = 0; c < count; ++c) {
    const int id = ids[c];
    bool gt_min, gt_max;
    ViolationsAgainstTwo(Row(coords, dim, id), pmin, pmax, dim, &gt_min,
                         &gt_max);
    PartitionStep(id, gt_min, gt_max, dominators, kept, &counts);
  }
  return counts;
}

ARSP_AVX2 void ScoreCornersAvx2(const double* coords, int dim, const int* ids,
                                int count, double* pmin, double* pmax) {
  int k = 0;
  for (; k + 4 <= dim; k += 4) {
    __m256d mn = _mm256_loadu_pd(pmin + k);
    __m256d mx = _mm256_loadu_pd(pmax + k);
    for (int c = 0; c < count; ++c) {
      const __m256d r = _mm256_loadu_pd(Row(coords, dim, ids[c]) + k);
      mn = _mm256_min_pd(r, mn);  // returns mn on ties: incumbent wins
      mx = _mm256_max_pd(r, mx);
    }
    _mm256_storeu_pd(pmin + k, mn);
    _mm256_storeu_pd(pmax + k, mx);
  }
  if (k + 2 <= dim) {
    __m128d mn = _mm_loadu_pd(pmin + k);
    __m128d mx = _mm_loadu_pd(pmax + k);
    for (int c = 0; c < count; ++c) {
      const __m128d r = _mm_loadu_pd(Row(coords, dim, ids[c]) + k);
      mn = _mm_min_pd(r, mn);
      mx = _mm_max_pd(r, mx);
    }
    _mm_storeu_pd(pmin + k, mn);
    _mm_storeu_pd(pmax + k, mx);
    k += 2;
  }
  if (k < dim) {
    for (int c = 0; c < count; ++c) {
      const double v = Row(coords, dim, ids[c])[k];
      if (v < pmin[k]) pmin[k] = v;
      if (v > pmax[k]) pmax[k] = v;
    }
  }
}

ARSP_AVX2 void DominatedMaskAvx2(const double* rows, int n, int dim,
                                 const double* q, unsigned char* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = ViolatesAgainst(q, Row(rows, dim, i), dim) ? 0 : 1;
  }
}

ARSP_AVX2 int DominanceCountAvx2(const double* rows, int n, int dim,
                                 const double* q) {
  int count = 0;
  for (int i = 0; i < n; ++i) {
    count += ViolatesAgainst(Row(rows, dim, i), q, dim) ? 0 : 1;
  }
  return count;
}

ARSP_AVX2 bool AnyRowDominatesAvx2(const double* rows, int n, int dim,
                                   const double* q) {
  for (int i = 0; i < n; ++i) {
    if (!ViolatesAgainst(Row(rows, dim, i), q, dim)) return true;
  }
  return false;
}

ARSP_AVX2 void MapPointAvx2(const double* t, int d, const double* vt,
                            int dprime, double* out) {
  const size_t stride = static_cast<size_t>(dprime);
  int k = 0;
  for (; k + 4 <= dprime; k += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* col = vt + k;
    for (int j = 0; j < d; ++j) {
      const __m256d prod = _mm256_mul_pd(
          _mm256_set1_pd(t[j]), _mm256_loadu_pd(col + stride * static_cast<
                                                              size_t>(j)));
      acc = _mm256_add_pd(acc, prod);  // no FMA: scalar rounding per term
    }
    _mm256_storeu_pd(out + k, acc);
  }
  if (k + 2 <= dprime) {
    __m128d acc = _mm_setzero_pd();
    const double* col = vt + k;
    for (int j = 0; j < d; ++j) {
      acc = _mm_add_pd(acc,
                       _mm_mul_pd(_mm_set1_pd(t[j]),
                                  _mm_loadu_pd(col + stride *
                                                         static_cast<size_t>(
                                                             j))));
    }
    _mm_storeu_pd(out + k, acc);
    k += 2;
  }
  for (; k < dprime; ++k) {
    double acc = 0.0;
    for (int j = 0; j < d; ++j) {
      acc += t[j] * vt[stride * static_cast<size_t>(j) +
                       static_cast<size_t>(k)];
    }
    out[k] = acc;
  }
}

ARSP_AVX2 double SumProbsAvx2(const double* probs, int n) {
  __m256d acc = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(probs + i));
  }
  // The fixed combine order of the 4-accumulator spec: (l0+l1)+(l2+l3).
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const double s01 =
      _mm_cvtsd_f64(lo) + _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double s23 =
      _mm_cvtsd_f64(hi) + _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  double sum = s01 + s23;
  for (; i < n; ++i) sum += probs[i];
  return sum;
}

ARSP_AVX2 void BoundSweepMaskAvx2(const double* lower, const double* pending,
                                  const unsigned char* decided, int m,
                                  double threshold, unsigned char* out) {
  const __m256d thr = _mm256_set1_pd(threshold);
  int j = 0;
  for (; j + 4 <= m; j += 4) {
    const __m256d upper = _mm256_add_pd(_mm256_loadu_pd(lower + j),
                                        _mm256_loadu_pd(pending + j));
    const int bits = _mm256_movemask_pd(_mm256_cmp_pd(upper, thr,
                                                      _CMP_LT_OQ));
    out[j] = (decided[j] == 0 && (bits & 1)) ? 1 : 0;
    out[j + 1] = (decided[j + 1] == 0 && (bits & 2)) ? 1 : 0;
    out[j + 2] = (decided[j + 2] == 0 && (bits & 4)) ? 1 : 0;
    out[j + 3] = (decided[j + 3] == 0 && (bits & 8)) ? 1 : 0;
  }
  for (; j < m; ++j) {
    out[j] = (decided[j] == 0 && lower[j] + pending[j] < threshold) ? 1 : 0;
  }
}

const KernelOps kAvx2Ops = {
    KernelArch::kAvx2,    PartitionCornersAvx2, ScoreCornersAvx2,
    DominatedMaskAvx2,    DominanceCountAvx2,   AnyRowDominatesAvx2,
    MapPointAvx2,         SumProbsAvx2,         BoundSweepMaskAvx2,
};

}  // namespace

namespace internal {

const KernelOps* Avx2OpsOrNull() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Ops : nullptr;
}

}  // namespace internal
}  // namespace simd
}  // namespace arsp

#else  // !x86-64

namespace arsp {
namespace simd {
namespace internal {

const KernelOps* Avx2OpsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace arsp

#endif
