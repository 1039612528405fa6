// Copyright 2026 The ARSP Authors.
//
// Unit tests for the incremental (σ, β, χ) bookkeeping shared by the
// kd/quad/multi-way traversals: β must always equal the direct product
// Π_{σ[j]≠1}(1 − σ[j]), χ must count full objects, and closing a scope
// must restore the state *bitwise* under randomized nested add/close
// sequences — including masses crossing the σ = 1 boundary, repeated Adds
// of one object within a scope, and a replayed path followed by a node
// scope (what a spawned parallel task does). FilterAspCandidates, the
// node filter that feeds the state, is checked against a per-candidate
// loop across its block boundary.

#include "src/core/asp_traversal_state.h"

#include <cmath>
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/simd/kernels.h"

namespace arsp {
namespace {

using internal::AspTraversalState;
using internal::CandidateSlice;
using internal::GoalChannel;
using internal::TraversalLane;

// Direct recomputation of β and χ from raw σ values.
void Recompute(const std::vector<double>& sigma, double* beta, int* chi) {
  *beta = 1.0;
  *chi = 0;
  for (double s : sigma) {
    if (s >= 1.0 - kProbabilityEps) {
      ++*chi;
    } else {
      *beta *= (1.0 - s);
    }
  }
}

TEST(AspTraversalStateTest, FreshState) {
  AspTraversalState state(4);
  EXPECT_DOUBLE_EQ(state.beta(), 1.0);
  EXPECT_EQ(state.chi(), 0);
  for (int j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(state.sigma(j), 0.0);
    EXPECT_FALSE(state.IsFull(j));
  }
}

// Every observable of the state, for bitwise comparisons.
struct Snapshot {
  std::vector<double> sigma;
  double beta;
  int chi;
};

Snapshot Capture(const AspTraversalState& state, int m) {
  Snapshot snapshot{{}, state.beta(), state.chi()};
  for (int j = 0; j < m; ++j) snapshot.sigma.push_back(state.sigma(j));
  return snapshot;
}

void ExpectBitwiseEqual(const Snapshot& expected, const Snapshot& actual) {
  EXPECT_EQ(actual.beta, expected.beta);
  EXPECT_EQ(actual.chi, expected.chi);
  ASSERT_EQ(actual.sigma.size(), expected.sigma.size());
  for (size_t j = 0; j < expected.sigma.size(); ++j) {
    EXPECT_EQ(actual.sigma[j], expected.sigma[j]) << "object " << j;
  }
}

TEST(AspTraversalStateTest, SingleAddUpdatesBeta) {
  AspTraversalState state(2);
  const AspTraversalState::Mark mark = state.OpenScope();
  state.Add(0, 0.25);
  EXPECT_DOUBLE_EQ(state.sigma(0), 0.25);
  EXPECT_DOUBLE_EQ(state.beta(), 0.75);
  EXPECT_EQ(state.chi(), 0);
  state.CloseScope(mark);
  EXPECT_DOUBLE_EQ(state.beta(), 1.0);
  EXPECT_DOUBLE_EQ(state.sigma(0), 0.0);
  EXPECT_EQ(state.undo_size(), 0u);
}

TEST(AspTraversalStateTest, CrossingFullBoundaryMovesFactorToChi) {
  AspTraversalState state(2);
  const AspTraversalState::Mark mark = state.OpenScope();
  state.Add(0, 0.6);
  state.Add(1, 0.5);
  EXPECT_NEAR(state.beta(), 0.4 * 0.5, 1e-15);
  state.Add(0, 0.4);  // σ[0] -> 1: its factor leaves β
  EXPECT_EQ(state.chi(), 1);
  EXPECT_TRUE(state.IsFull(0));
  EXPECT_NEAR(state.beta(), 0.5, 1e-12);
  state.CloseScope(mark);
  EXPECT_EQ(state.chi(), 0);
  EXPECT_EQ(state.beta(), 1.0);
}

TEST(AspTraversalStateTest, AddingBeyondFullDoesNotDoubleCountChi) {
  // Same object keeps receiving mass after σ = 1 within tolerance (can
  // happen when the remaining mass is epsilon-sized).
  AspTraversalState state(1);
  const AspTraversalState::Mark mark = state.OpenScope();
  state.Add(0, 1.0 - 1e-12);
  EXPECT_EQ(state.chi(), 1);
  state.Add(0, 1e-12);
  EXPECT_EQ(state.chi(), 1);
  state.CloseScope(mark);
  EXPECT_EQ(state.chi(), 0);
  EXPECT_EQ(state.beta(), 1.0);
}

TEST(AspTraversalStateTest, LeafProbabilityRules) {
  AspTraversalState state(3);
  const AspTraversalState::Mark mark = state.OpenScope();
  // χ = 0: own factor divided out.
  state.Add(0, 0.5);  // own object
  state.Add(1, 0.25);
  // Pr = β · p / (1 - σ[own]) = (0.5 · 0.75) · 0.5 / 0.5 = 0.375.
  EXPECT_NEAR(state.LeafProbability(0, 0.5), 0.375, 1e-12);

  // χ = 1 via the own object: Pr = β · p.
  state.Add(0, 0.5);  // σ[0] = 1
  EXPECT_EQ(state.chi(), 1);
  EXPECT_NEAR(state.LeafProbability(0, 0.5), 0.75 * 0.5, 1e-12);
  // χ = 1 via a *foreign* full object: zero.
  EXPECT_EQ(state.LeafProbability(2, 0.5), 0.0);

  // χ = 2: always zero.
  state.Add(1, 0.75);
  EXPECT_EQ(state.chi(), 2);
  EXPECT_EQ(state.LeafProbability(0, 0.5), 0.0);
  state.CloseScope(mark);
}

TEST(AspTraversalStateTest, RepeatedAddsInOneScopeRecordOnce) {
  AspTraversalState state(3);
  const AspTraversalState::Mark mark = state.OpenScope();
  state.Add(1, 0.125);
  state.Add(1, 0.25);
  state.Add(1, 0.5);
  EXPECT_EQ(state.undo_size(), 1u);
  state.Add(2, 0.5);
  EXPECT_EQ(state.undo_size(), 2u);
  EXPECT_EQ(state.sigma(1), 0.875);
  state.CloseScope(mark);
  EXPECT_EQ(state.undo_size(), 0u);
  EXPECT_EQ(state.sigma(1), 0.0);
  EXPECT_EQ(state.sigma(2), 0.0);
  EXPECT_EQ(state.beta(), 1.0);
}

TEST(AspTraversalStateTest, RandomizedAddUndoMatchesRecomputation) {
  // A random walk over nested scopes, as a traversal opens one per node:
  // each step either opens a scope and adds a batch (some objects several
  // times), or closes the innermost scope, which must restore the state
  // captured when it opened bitwise, not merely closely.
  Rng rng(17);
  const int m = 12;
  AspTraversalState state(m);
  std::vector<double> sigma(static_cast<size_t>(m), 0.0);
  std::vector<std::pair<AspTraversalState::Mark, Snapshot>> open;

  for (int round = 0; round < 400; ++round) {
    const bool close =
        !open.empty() && (open.size() >= 8 || rng.Bernoulli(0.45));
    if (close) {
      state.CloseScope(open.back().first);
      ExpectBitwiseEqual(open.back().second, Capture(state, m));
      sigma = open.back().second.sigma;
      open.pop_back();
      continue;
    }
    open.emplace_back(state.OpenScope(), Capture(state, m));
    const size_t undo_before = state.undo_size();
    std::vector<bool> touched(static_cast<size_t>(m), false);
    const int adds = rng.UniformInt(1, 6);
    for (int a = 0; a < adds; ++a) {
      // Repeat the previous object now and then.
      const int j = rng.UniformInt(0, m - 1);
      const double room = 1.0 - sigma[static_cast<size_t>(j)];
      if (room <= 0.0) continue;
      const int repeats = rng.Bernoulli(0.3) ? 2 : 1;
      for (int r = 0; r < repeats; ++r) {
        const double left = 1.0 - sigma[static_cast<size_t>(j)];
        // Occasionally exhaust the remaining mass exactly.
        const double p = rng.Bernoulli(0.2) ? left
                                            : rng.Uniform(0.0, left) * 0.9 +
                                                  1e-6;
        if (p <= 0.0) continue;
        state.Add(j, p);
        sigma[static_cast<size_t>(j)] += p;
        touched[static_cast<size_t>(j)] = true;
      }
    }
    // One record per distinct object of this scope.
    size_t distinct = 0;
    for (bool t : touched) distinct += t ? 1 : 0;
    EXPECT_EQ(state.undo_size() - undo_before, distinct) << "round " << round;
    double beta_expected;
    int chi_expected;
    Recompute(sigma, &beta_expected, &chi_expected);
    EXPECT_EQ(state.chi(), chi_expected) << "round " << round;
    EXPECT_NEAR(state.beta(), beta_expected, 1e-9 + 1e-9 * beta_expected)
        << "round " << round;
    for (int j = 0; j < m; ++j) {
      EXPECT_EQ(state.sigma(j), sigma[static_cast<size_t>(j)]);
    }
  }
  while (!open.empty()) {
    state.CloseScope(open.back().first);
    ExpectBitwiseEqual(open.back().second, Capture(state, m));
    open.pop_back();
  }
  ExpectBitwiseEqual(Snapshot{std::vector<double>(m, 0.0), 1.0, 0},
                     Capture(state, m));
}

TEST(AspTraversalStateTest, UndoRestoresBitwise) {
  // Enter-and-exit a "subtree" must leave (σ, β, χ) bit-identical to never
  // entering — the exactness goal pruning and scoped (sharded) solves rely
  // on for bit-identical answers.
  AspTraversalState state(4);
  const AspTraversalState::Mark path = state.OpenScope();
  state.Add(0, 0.3);
  state.Add(1, 0.7);
  const Snapshot at_node = Capture(state, 4);

  const AspTraversalState::Mark subtree = state.OpenScope();
  state.Add(2, 0.9999999);
  state.Add(0, 0.1);
  state.Add(0, 0.2);  // repeated within the scope
  const Snapshot at_child = Capture(state, 4);
  const AspTraversalState::Mark grandchild = state.OpenScope();
  state.Add(3, 1.0);  // crosses the full boundary
  state.Add(0, 0.4);  // crosses it too, on an object both parents touched
  EXPECT_EQ(state.chi(), 2);
  state.CloseScope(grandchild);
  ExpectBitwiseEqual(at_child, Capture(state, 4));
  state.CloseScope(subtree);
  ExpectBitwiseEqual(at_node, Capture(state, 4));

  // The enclosing scope adds again after a child closed: still exact.
  state.Add(2, 0.5);
  state.CloseScope(path);
  ExpectBitwiseEqual(Snapshot{{0.0, 0.0, 0.0, 0.0}, 1.0, 0},
                     Capture(state, 4));
}

TEST(AspTraversalStateTest, ReplayedChainThenNodeScopeMatchesSerial) {
  // A spawned task replays its ancestors' Adds in one scope, then visits
  // its node in a nested scope; a serial walk opened one scope per
  // ancestor. Both must reach bit-identical states, and unwind to pristine.
  const std::vector<std::vector<std::pair<int, double>>> ancestors = {
      {{0, 0.3}, {1, 0.1}, {0, 0.2}},
      {{2, 0.45}, {1, 0.6}},
      {{0, 0.5}, {3, 0.25}, {2, 0.3}},
  };
  const std::vector<std::pair<int, double>> node = {
      {3, 0.5}, {1, 0.3}, {3, 0.25}};

  AspTraversalState serial(4);
  std::vector<AspTraversalState::Mark> marks;
  for (const auto& adds : ancestors) {
    marks.push_back(serial.OpenScope());
    for (const auto& add : adds) serial.Add(add.first, add.second);
  }
  const Snapshot serial_at_node = Capture(serial, 4);
  marks.push_back(serial.OpenScope());
  for (const auto& add : node) serial.Add(add.first, add.second);
  const Snapshot serial_in_node = Capture(serial, 4);

  AspTraversalState task(4);
  const AspTraversalState::Mark replay = task.OpenScope();
  for (const auto& adds : ancestors) {
    for (const auto& add : adds) task.Add(add.first, add.second);
  }
  EXPECT_EQ(task.undo_size(), 4u);  // one record per distinct object
  ExpectBitwiseEqual(serial_at_node, Capture(task, 4));
  const AspTraversalState::Mark node_scope = task.OpenScope();
  for (const auto& add : node) task.Add(add.first, add.second);
  ExpectBitwiseEqual(serial_in_node, Capture(task, 4));
  task.CloseScope(node_scope);
  ExpectBitwiseEqual(serial_at_node, Capture(task, 4));
  task.CloseScope(replay);
  ExpectBitwiseEqual(Snapshot{{0.0, 0.0, 0.0, 0.0}, 1.0, 0},
                     Capture(task, 4));

  while (!marks.empty()) {
    serial.CloseScope(marks.back());
    marks.pop_back();
  }
  ExpectBitwiseEqual(Snapshot{{0.0, 0.0, 0.0, 0.0}, 1.0, 0},
                     Capture(serial, 4));
}

// FilterAspCandidates against the per-candidate loop it replaces, over
// enough candidates to cross the kFilterBlock boundary three times. The parent
// list sits on the lane's own candidate stack, as in the walker, so the
// kept appends may move it between blocks. Under every supported kernel
// arch: σ, β and χ match the loop's bitwise, the kept list is pushed in
// candidate order above the untouched parent slice, and adds_out records
// exactly the loop's Add sequence.
TEST(FilterAspCandidatesTest, BlockedFilterMatchesPerCandidateLoop) {
  constexpr int kObjects = 40;
  constexpr int kRows = 4000;
  constexpr int kDim = 3;
  static_assert(kRows > 3 * internal::kFilterBlock, "must cross blocks");
  Rng rng(77);
  std::vector<double> coords(static_cast<size_t>(kRows) * kDim);
  std::vector<double> probs(static_cast<size_t>(kRows));
  std::vector<int> objects(static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    const int object = i % kObjects;
    objects[static_cast<size_t>(i)] = object;
    probs[static_cast<size_t>(i)] = 1.0 / (kRows / kObjects);
    for (int k = 0; k < kDim; ++k) {
      // Object 0 dominates pmin everywhere, so it turns full (χ moves);
      // the rest sit on a coarse grid that ties the corners exactly.
      coords[static_cast<size_t>(i) * kDim + k] =
          object == 0 ? 0.0 : std::round(rng.Uniform(0.0, 1.0) * 8.0) / 8.0;
    }
  }
  const ScoreSpan scores{coords.data(), probs.data(), objects.data(), kRows,
                         kDim};
  const double pmin[kDim] = {0.625, 0.625, 0.75};
  const double pmax[kDim] = {1.0, 0.875, 1.0};
  std::vector<int> parent_ids(static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) parent_ids[static_cast<size_t>(i)] = i;
  std::shuffle(parent_ids.begin(), parent_ids.end(), rng.engine());

  // The per-candidate reference: classify, Add or keep, in order.
  AspTraversalState reference(kObjects);
  std::vector<int> reference_kept;
  std::vector<std::pair<int, double>> reference_adds;
  for (const int id : parent_ids) {
    bool le_min = true;
    bool le_max = true;
    for (int k = 0; k < kDim; ++k) {
      le_min &= !(scores.row(id)[k] > pmin[k]);
      le_max &= !(scores.row(id)[k] > pmax[k]);
    }
    if (le_min) {
      reference.Add(scores.object(id), scores.prob(id));
      reference_adds.emplace_back(scores.object(id), scores.prob(id));
    } else if (le_max) {
      reference_kept.push_back(id);
    }
  }
  // All three outcomes occur, both lists span blocks, and χ moved.
  ASSERT_GT(reference_adds.size(), static_cast<size_t>(internal::kFilterBlock));
  ASSERT_GT(reference_kept.size(), static_cast<size_t>(internal::kFilterBlock));
  ASSERT_LT(reference_adds.size() + reference_kept.size(),
            static_cast<size_t>(kRows));
  ASSERT_GE(reference.chi(), 1);

  const std::vector<int> below = {7, 3, 11};  // an ancestor's slice
  const simd::KernelArch original = simd::ActiveArch();
  for (const simd::KernelArch arch : simd::SupportedArches()) {
    SCOPED_TRACE(simd::KernelArchName(arch));
    ASSERT_TRUE(simd::internal::SetArchForTesting(arch));
    TraversalLane lane(kObjects, GoalChannel());
    lane.candidates = below;
    lane.candidates.insert(lane.candidates.end(), parent_ids.begin(),
                           parent_ids.end());
    lane.candidates.shrink_to_fit();  // the first kept append reallocates
    const size_t parent_end = lane.candidates.size();
    const CandidateSlice parent{&lane.candidates, below.size(), parent_end};
    const AspTraversalState::Mark mark = lane.state.OpenScope();
    std::vector<std::pair<int, double>> adds;
    internal::FilterAspCandidates(scores, parent, pmin, pmax, &lane, &adds);

    EXPECT_EQ(lane.counters.dominance_tests, kRows);
    EXPECT_TRUE(std::equal(below.begin(), below.end(),
                           lane.candidates.begin()));
    EXPECT_TRUE(std::equal(parent_ids.begin(), parent_ids.end(),
                           lane.candidates.begin() +
                               static_cast<std::ptrdiff_t>(below.size())));
    EXPECT_EQ(std::vector<int>(lane.candidates.begin() +
                                   static_cast<std::ptrdiff_t>(parent_end),
                               lane.candidates.end()),
              reference_kept);
    EXPECT_EQ(adds, reference_adds);
    ExpectBitwiseEqual(Capture(reference, kObjects),
                       Capture(lane.state, kObjects));
    lane.state.CloseScope(mark);
    ExpectBitwiseEqual(Capture(AspTraversalState(kObjects), kObjects),
                       Capture(lane.state, kObjects));
  }
  simd::internal::SetArchForTesting(original);
}

}  // namespace
}  // namespace arsp
