// Copyright 2026 The ARSP Authors.
//
// The parallel determinism contract, swept across the registry: for every
// solver advertising kCapIntraQueryParallel, a parallel solve — any thread
// count, base context or derived prefix/subset view — produces an
// instance-probability vector memcmp-identical to the serial solve, and
// deterministic task counts run to run — swept over spawn grains, so the
// small test datasets really decompose into nested tasks. Goal-scoped
// solves (top-k / threshold / count-controlled pushdown) must answer
// identically to the serial pushdown solve: exact object identity and
// order, probabilities within the documented β-bookkeeping drift
// (epoch-published pruning snapshots may skip different subtrees at
// different times, but the decided answer set is a fixpoint independent
// of scheduling).
//
// Also the TSan target for the executor: concurrent SolveBatch of parallel
// queries sharing one pooled ExecutionContext, with the batch pool and the
// intra-query arenas drawing from the same pinned core budget.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/common/task_arena.h"
#include "src/core/engine.h"
#include "src/core/parallel_traversal.h"
#include "src/core/queries.h"
#include "src/core/solver.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RandomWr;
using testing_util::WrRegion;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

// Spawn grains swept by the full-solve sweeps; 0 = the default
// (internal::kSpawnMinRows, whose internal::ParallelMinRows() is above
// every small sweep dataset, so those solves must build no executor). The
// small grains make the sweep datasets spawn nested tasks several levels
// deep.
constexpr int kSpawnGrains[] = {0, 16, 2};

// Probabilities of goal-pushed answers may carry per-run β drift (skipped
// subtrees depend on when pruning snapshots publish); identity and order
// may not.
constexpr double kDriftTolerance = 1e-12;

class ScopedBudget {
 public:
  explicit ScopedBudget(int total) {
    internal::SetCoreBudgetTotalForTesting(total);
  }
  ~ScopedBudget() { internal::SetCoreBudgetTotalForTesting(0); }
};

class ScopedSpawnGrain {
 public:
  explicit ScopedSpawnGrain(int rows) {
    internal::SetSpawnMinRowsForTesting(rows);
  }
  ~ScopedSpawnGrain() { internal::SetSpawnMinRowsForTesting(0); }
};

std::unique_ptr<ArspSolver> MakeSolver(const std::string& name,
                                       int parallelism) {
  auto solver = SolverRegistry::Create(name);
  EXPECT_TRUE(solver.ok()) << name;
  if (!solver.ok()) return nullptr;
  if (parallelism > 0) {
    SolverOptions options;
    options.SetInt("parallelism", parallelism);
    const Status configured = (*solver)->Configure(options);
    EXPECT_TRUE(configured.ok()) << name << ": " << configured.ToString();
    if (!configured.ok()) return nullptr;
  }
  return std::move(*solver);
}

void ExpectBitIdentical(const ArspResult& serial, const ArspResult& parallel,
                        const std::string& label) {
  ASSERT_EQ(serial.instance_probs.size(), parallel.instance_probs.size())
      << label;
  EXPECT_EQ(std::memcmp(serial.instance_probs.data(),
                        parallel.instance_probs.data(),
                        serial.instance_probs.size() * sizeof(double)),
            0)
      << label << ": parallel probabilities diverged from serial";
}

void ExpectRankedEquivalent(
    const std::vector<std::pair<int, double>>& serial,
    const std::vector<std::pair<int, double>>& parallel,
    const std::string& label) {
  ASSERT_EQ(serial.size(), parallel.size()) << label;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, parallel[i].first) << label << " rank " << i;
    EXPECT_NEAR(serial[i].second, parallel[i].second, kDriftTolerance)
        << label << " rank " << i;
  }
}

// Lanes sum (or max) the counters of exactly the serial run's visits, so a
// parallel full solve reports the serial work whatever the decomposition.
void ExpectSameWork(const ArspResult& serial, const ArspResult& parallel,
                    const std::string& label) {
  EXPECT_EQ(serial.dominance_tests, parallel.dominance_tests) << label;
  EXPECT_EQ(serial.nodes_visited, parallel.nodes_visited) << label;
  EXPECT_EQ(serial.nodes_pruned, parallel.nodes_pruned) << label;
  EXPECT_EQ(serial.early_exit_depth, parallel.early_exit_depth) << label;
}

// Full-goal sweep over one context: serial vs every thread count and
// spawn grain, bitwise and with the serial work counters; a repeated run
// checks the task-spawn count is deterministic (steal counts are
// scheduling noise and deliberately never compared). Inputs of at least
// ParallelMinRows() (twice the grain) must really spawn; smaller ones must
// stay serial.
void SweepFullSolve(const std::string& name, ExecutionContext& context,
                    const std::vector<int>& grains = {std::begin(kSpawnGrains),
                                                      std::end(kSpawnGrains)}) {
  SCOPED_TRACE(name);
  auto serial_solver = MakeSolver(name, 0);
  ASSERT_NE(serial_solver, nullptr);
  if (!serial_solver->ValidateContext(context).ok()) return;
  auto serial = serial_solver->Solve(context);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const int rows = context.view().num_instances();

  for (int grain : grains) {
    ScopedSpawnGrain spawn_grain(grain);
    const bool decomposes = rows >= internal::ParallelMinRows();
    for (int threads : kThreadCounts) {
      const std::string label = name + "/t" + std::to_string(threads) +
                                "/grain" + std::to_string(grain);
      SCOPED_TRACE(label);
      ScopedBudget budget(threads);
      auto solver = MakeSolver(name, threads);
      ASSERT_NE(solver, nullptr);
      auto parallel = solver->Solve(context);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectBitIdentical(*serial, *parallel, label);
      ExpectSameWork(*serial, *parallel, label);
      if (threads >= 2 && decomposes) {
        // The pinned budget grants exactly `threads` workers, so the worker
        // count and the spawn rule's task decomposition are deterministic.
        // B&B builds its arena only at the first batch of tied-score
        // instances, which the continuous random datasets do not have.
        if (name == "bnb" && parallel->tasks_spawned == 0) {
          EXPECT_EQ(parallel->parallel_workers, 0);
        } else {
          EXPECT_EQ(parallel->parallel_workers, threads);
          EXPECT_GT(parallel->tasks_spawned, 0)
              << name << ": an input above the grain spawned no tasks";
        }
        auto rerun = solver->Solve(context);
        ASSERT_TRUE(rerun.ok());
        EXPECT_EQ(parallel->tasks_spawned, rerun->tasks_spawned)
            << name << ": task decomposition drifted between runs";
        ExpectBitIdentical(*serial, *rerun, label + "/rerun");
      } else {
        // One worker, or an input below ParallelMinRows(): no executor.
        EXPECT_EQ(parallel->tasks_spawned, 0);
        EXPECT_EQ(parallel->tasks_stolen, 0);
      }
    }
  }
}

// Goal-pushdown sweep: parallel pushed answers must match serial pushed
// answers for every goal family.
void SweepGoalSolves(const std::string& name,
                     std::shared_ptr<ExecutionContext> full_context) {
  SCOPED_TRACE(name);
  auto probe = MakeSolver(name, 0);
  ASSERT_NE(probe, nullptr);
  if (!probe->ValidateContext(*full_context).ok()) return;
  const DatasetView& view = full_context->view();
  const std::vector<QueryGoal> goals = {
      QueryGoal::TopK(3),
      QueryGoal::Threshold(0.25),
      QueryGoal::CountControlled(3),
  };
  for (const QueryGoal& goal : goals) {
    SCOPED_TRACE(goal.ToString());
    auto goal_context = ExecutionContext::Derive(full_context, view, goal);
    auto serial_solver = MakeSolver(name, 0);
    ASSERT_NE(serial_solver, nullptr);
    auto serial = serial_solver->Solve(*goal_context);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    double serial_threshold = 0.0;
    const auto serial_ranked =
        AnswerGoal(*serial, view, goal, &serial_threshold);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(threads);
      ScopedBudget budget(threads);
      auto solver = MakeSolver(name, threads);
      ASSERT_NE(solver, nullptr);
      auto parallel = solver->Solve(*goal_context);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      double parallel_threshold = 0.0;
      const auto parallel_ranked =
          AnswerGoal(*parallel, view, goal, &parallel_threshold);
      ExpectRankedEquivalent(serial_ranked, parallel_ranked,
                             name + "/" + goal.ToString() + "/t" +
                                 std::to_string(threads));
      EXPECT_NEAR(serial_threshold, parallel_threshold, kDriftTolerance);
    }
  }
}

// Every solver that advertises the capability — found by asking, not by a
// hardcoded list, so a new traversal solver is swept automatically.
std::vector<std::string> ParallelSolverNames() {
  std::vector<std::string> names;
  for (const std::string& name : SolverRegistry::Names()) {
    auto solver = SolverRegistry::Create(name);
    if (solver.ok() &&
        ((*solver)->capabilities() & kCapIntraQueryParallel) != 0) {
      names.push_back(name);
    }
  }
  return names;
}

TEST(ParallelDeterminism, RegistryAdvertisesTheExpectedSolvers) {
  const std::vector<std::string> names = ParallelSolverNames();
  for (const char* expected : {"kdtt", "kdtt+", "qdtt+", "mwtt", "bnb"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " lost kCapIntraQueryParallel";
  }
}

// The base-context sweep's dataset for `seed`: d = 2 or 3 by parity.
UncertainDataset SweepDataset(uint64_t seed) {
  return RandomDataset(60, 4, 2 + static_cast<int>(seed % 2), 0.4, seed,
                       seed % 2 == 0);
}

TEST(ParallelDeterminism, FullSolveSweepOnBaseContexts) {
  for (uint64_t seed : {1200u, 1201u}) {
    SCOPED_TRACE(seed);
    const UncertainDataset dataset = SweepDataset(seed);
    ExecutionContext context(dataset, RandomWr(dataset.dim(), seed));
    for (const std::string& name : ParallelSolverNames()) {
      SweepFullSolve(name, context);
    }
  }
}

// An input above the default grain: every parallel solver decomposes it
// with no test override, into tasks that spawn tasks.
TEST(ParallelDeterminism, FullSolveSweepSpawnsAtTheDefaultGrain) {
  const UncertainDataset dataset = RandomDataset(2000, 4, 3, 0.4, 1250);
  ASSERT_GE(dataset.num_instances(), internal::ParallelMinRows());
  ExecutionContext context(dataset, RandomWr(dataset.dim(), 1250));
  for (const std::string& name : ParallelSolverNames()) {
    SweepFullSolve(name, context, {0});
  }
}

// B&B fans out only batches of tied-score instances and builds its arena at
// the first one: grid coordinates tie, continuous ones do not, and a solve
// without ties holds no helpers.
TEST(ParallelDeterminism, BnbBuildsItsArenaOnlyForTiedBatches) {
  ScopedSpawnGrain spawn_grain(16);
  ScopedBudget budget(4);
  const int base = CoreBudget::InUse();
  for (bool grid : {true, false}) {
    SCOPED_TRACE(grid ? "grid" : "continuous");
    const UncertainDataset dataset = RandomDataset(60, 4, 2, 0.4, 1260, grid);
    ExecutionContext context(dataset, RandomWr(dataset.dim(), 1260));
    auto serial = MakeSolver("bnb", 0)->Solve(context);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto parallel = MakeSolver("bnb", 4)->Solve(context);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitIdentical(*serial, *parallel, "bnb");
    ExpectSameWork(*serial, *parallel, "bnb");
    if (grid) {
      EXPECT_GT(parallel->tasks_spawned, 0);
      EXPECT_EQ(parallel->parallel_workers, 4);
    } else {
      EXPECT_EQ(parallel->tasks_spawned, 0);
      EXPECT_EQ(parallel->parallel_workers, 0);
    }
    EXPECT_EQ(CoreBudget::InUse(), base);
  }
}

// The serial work of each walker solver on the sweep datasets,
// pinned so that a change to a traversal's shape fails here, not only in
// the perf gate.
TEST(ParallelDeterminism, SerialWorkCountersArePinned) {
  struct Expected {
    const char* solver;
    uint64_t seed;
    int64_t dominance_tests, nodes_visited, nodes_pruned;
  };
  const Expected kTable[] = {
      {"kdtt", 1200, 1736, 49, 11},  {"kdtt", 1201, 1375, 87, 8},
      {"kdtt+", 1200, 1736, 49, 11}, {"kdtt+", 1201, 1375, 87, 8},
      {"qdtt+", 1200, 1091, 15, 5},  {"qdtt+", 1201, 2589, 71, 17},
      {"mwtt", 1200, 2327, 48, 20},  {"mwtt", 1201, 2129, 66, 14},
  };
  for (const Expected& expected : kTable) {
    SCOPED_TRACE(std::string(expected.solver) + "/" +
                 std::to_string(expected.seed));
    const UncertainDataset dataset = SweepDataset(expected.seed);
    ExecutionContext context(dataset, RandomWr(dataset.dim(), expected.seed));
    auto solver = MakeSolver(expected.solver, 0);
    ASSERT_NE(solver, nullptr);
    auto result = solver->Solve(context);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->dominance_tests, expected.dominance_tests);
    EXPECT_EQ(result->nodes_visited, expected.nodes_visited);
    EXPECT_EQ(result->nodes_pruned, expected.nodes_pruned);
  }
}

TEST(ParallelDeterminism, FullSolveSweepOnDerivedViews) {
  const UncertainDataset dataset = RandomDataset(50, 4, 3, 0.4, 1300);
  auto base = std::make_shared<ExecutionContext>(dataset, WrRegion(3, 2));
  std::vector<int> subset;
  for (int i = 0; i < 50; i += 2) subset.push_back(i);
  const std::vector<ViewSpec> specs = {
      ViewSpec::Prefix(30),
      ViewSpec::Subset(subset),
  };
  for (const ViewSpec& spec : specs) {
    SCOPED_TRACE(spec.CacheKey());
    auto view = DatasetView::Create(dataset, spec);
    ASSERT_TRUE(view.ok());
    auto derived = ExecutionContext::Derive(base, *view);
    for (const std::string& name : ParallelSolverNames()) {
      SweepFullSolve(name, *derived);
    }
  }
}

TEST(ParallelDeterminism, GoalPushdownSweep) {
  ScopedSpawnGrain spawn_grain(16);
  const UncertainDataset dataset = RandomDataset(48, 4, 3, 0.4, 1400);
  auto context = std::make_shared<ExecutionContext>(dataset, RandomWr(3, 1400));
  for (const std::string& name : ParallelSolverNames()) {
    SweepGoalSolves(name, context);
  }
}

TEST(ParallelDeterminism, GoalPushdownSweepOnDerivedViews) {
  ScopedSpawnGrain spawn_grain(16);
  const UncertainDataset dataset = RandomDataset(40, 3, 3, 0.4, 1500);
  auto base = std::make_shared<ExecutionContext>(dataset, WrRegion(3, 2));
  auto view = DatasetView::Create(dataset, ViewSpec::Prefix(25));
  ASSERT_TRUE(view.ok());
  auto derived = ExecutionContext::Derive(base, *view);
  for (const std::string& name : ParallelSolverNames()) {
    SweepGoalSolves(name, derived);
  }
}

// The TSan target: a batch of parallel queries racing over ONE pooled
// ExecutionContext, with the batch pool and the per-query arenas sharing a
// pinned core budget (some queries get helpers, late ones degrade to
// serial — either way the results must be bitwise the serial reference).
TEST(ParallelDeterminism, ConcurrentSolveBatchOnOnePooledContext) {
  ScopedBudget budget(8);
  ScopedSpawnGrain spawn_grain(16);
  const UncertainDataset dataset = RandomDataset(60, 4, 3, 0.4, 1600);

  EngineOptions options;
  options.num_threads = 4;
  options.query_threads = 0;
  ArspEngine engine(options);
  const DatasetHandle handle = engine.AddDataset(dataset);

  QueryRequest base_request;
  base_request.dataset = handle;
  base_request.constraints = ConstraintSpec::Region(WrRegion(3, 2));
  base_request.solver = "kdtt+";
  base_request.use_cache = false;  // every entry must really solve
  base_request.pool_context = true;

  QueryRequest serial_request = base_request;
  serial_request.parallelism = 1;
  auto reference = engine.Solve(serial_request);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 12; ++i) {
    QueryRequest request = base_request;
    request.parallelism = 2 + (i % 3);  // 2, 3, 4 workers requested
    batch.push_back(request);
  }
  // A derived request rides along: pushdown + parallelism concurrently on
  // the same pooled context.
  QueryRequest derived = base_request;
  derived.parallelism = 2;
  derived.derived.kind = DerivedKind::kTopKObjects;
  derived.derived.k = 5;
  batch.push_back(derived);

  const auto responses = engine.SolveBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    const QueryResponse& response = *responses[i];
    if (batch[i].derived.kind == DerivedKind::kNone) {
      ASSERT_TRUE(response.result->is_complete());
      ExpectBitIdentical(*reference->result, *response.result,
                         "batch entry " + std::to_string(i));
    } else {
      const auto serial_ranked = TopKObjects(
          *reference->result, engine.view(handle), batch[i].derived.k);
      ExpectRankedEquivalent(serial_ranked, response.ranked, "derived entry");
    }
  }
  // Everything granted was returned: the budget leaks nothing across a
  // batch of arenas created and destroyed under contention.
  EXPECT_EQ(CoreBudget::InUse(), 4);  // just the batch pool's reservation
}

}  // namespace
}  // namespace arsp
