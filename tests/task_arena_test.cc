// Copyright 2026 The ARSP Authors.
//
// CoreBudget + TaskArena: the process-global concurrency ledger (reserve /
// try-acquire / release accounting, ARSP_THREADS-independent via the test
// override) and the work-stealing scheduler (every task runs exactly once,
// worker ids are in range, nested submission, repeated RunAndWait rounds,
// graceful degradation to a serial loop when the budget grants nothing).

#include "src/common/task_arena.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"

namespace arsp {
namespace {

// Restores the real budget when a test exits (0 = use env/hardware).
class ScopedBudget {
 public:
  explicit ScopedBudget(int total) {
    internal::SetCoreBudgetTotalForTesting(total);
  }
  ~ScopedBudget() { internal::SetCoreBudgetTotalForTesting(0); }
};

TEST(CoreBudgetTest, TryAcquireNeverOversubscribes) {
  ScopedBudget budget(4);
  const int base = CoreBudget::InUse();
  const int a = CoreBudget::TryAcquire(3);
  EXPECT_EQ(a, 3);
  const int b = CoreBudget::TryAcquire(3);
  EXPECT_EQ(b, 1);  // only one slot left
  const int c = CoreBudget::TryAcquire(3);
  EXPECT_EQ(c, 0);  // exhausted
  CoreBudget::Release(a + b);
  EXPECT_EQ(CoreBudget::InUse(), base);
}

TEST(CoreBudgetTest, ReserveIsUnconditional) {
  ScopedBudget budget(2);
  const int base = CoreBudget::InUse();
  CoreBudget::Reserve(5);  // explicit pool sizes overshoot the budget
  EXPECT_EQ(CoreBudget::InUse(), base + 5);
  EXPECT_EQ(CoreBudget::TryAcquire(1), 0);  // but intra-query gets nothing
  CoreBudget::Release(5);
  EXPECT_EQ(CoreBudget::InUse(), base);
}

TEST(CoreBudgetTest, ThreadPoolChargesTheBudget) {
  ScopedBudget budget(8);
  const int base = CoreBudget::InUse();
  {
    ThreadPool pool(3);
    EXPECT_EQ(CoreBudget::InUse(), base + 3);
    // What is left for intra-query workers is total − pool.
    const int granted = CoreBudget::TryAcquire(100);
    EXPECT_EQ(granted, 8 - base - 3);
    CoreBudget::Release(granted);
  }
  EXPECT_EQ(CoreBudget::InUse(), base);  // pool destructor released
}

TEST(CoreBudgetTest, CallerSlotChargesEachThreadOnce) {
  ScopedBudget budget(4);
  const int base = CoreBudget::InUse();
  {
    CoreBudget::CallerSlot outer;
    EXPECT_EQ(CoreBudget::InUse(), base + 1);
    {
      CoreBudget::CallerSlot nested;  // same thread: charges nothing more
      EXPECT_EQ(CoreBudget::InUse(), base + 1);
    }
    EXPECT_EQ(CoreBudget::InUse(), base + 1);
    // The caller's slot is taken, so an arena gets helpers for the rest.
    TaskArena arena(8);
    EXPECT_EQ(arena.num_workers(), 4 - base);
  }
  EXPECT_EQ(CoreBudget::InUse(), base);
  {
    // Pool and arena workers were charged when they started: a slot on
    // one of their threads charges nothing.
    ThreadPool pool(2);
    std::atomic<int> in_task{-1};
    std::atomic<bool> done{false};
    pool.Submit([&in_task, &done] {
      CoreBudget::CallerSlot slot;
      in_task.store(CoreBudget::InUse());
      done.store(true);
    });
    while (!done.load()) std::this_thread::yield();
    EXPECT_EQ(in_task.load(), base + 2);
  }
  {
    CoreBudget::CallerSlot caller;
    TaskArena arena(4);
    const int charged = CoreBudget::InUse();  // caller + helpers
    std::atomic<bool> grew{false};
    for (int i = 0; i < 64; ++i) {
      arena.Submit([&grew, charged](int) {
        CoreBudget::CallerSlot slot;
        if (CoreBudget::InUse() != charged) grew.store(true);
      });
    }
    arena.RunAndWait();
    EXPECT_FALSE(grew.load());
  }
  EXPECT_EQ(CoreBudget::InUse(), base);
}

TEST(TaskArenaTest, RunsEveryTaskExactlyOnce) {
  ScopedBudget budget(4);
  TaskArena arena(4);
  ASSERT_GE(arena.num_workers(), 1);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  for (int i = 0; i < kTasks; ++i) {
    arena.Submit([&runs, i, &arena](int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, arena.num_workers());
      runs[i].fetch_add(1);
    });
  }
  arena.RunAndWait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(arena.tasks_spawned(), kTasks);
  EXPECT_LE(arena.tasks_stolen(), arena.tasks_spawned());
}

TEST(TaskArenaTest, NestedSubmissionFromInsideTasks) {
  ScopedBudget budget(4);
  TaskArena arena(4);
  std::atomic<int> leaf_runs{0};
  constexpr int kRoots = 16;
  constexpr int kLeavesPerRoot = 8;
  for (int i = 0; i < kRoots; ++i) {
    arena.Submit([&arena, &leaf_runs](int) {
      for (int j = 0; j < kLeavesPerRoot; ++j) {
        arena.Submit([&leaf_runs](int) { leaf_runs.fetch_add(1); });
      }
    });
  }
  arena.RunAndWait();
  EXPECT_EQ(leaf_runs.load(), kRoots * kLeavesPerRoot);
  EXPECT_EQ(arena.tasks_spawned(), kRoots + kRoots * kLeavesPerRoot);
}

TEST(TaskArenaTest, RepeatedRoundsReuseTheArena) {
  ScopedBudget budget(4);
  TaskArena arena(4);
  std::atomic<int> runs{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      arena.Submit([&runs](int) { runs.fetch_add(1); });
    }
    arena.RunAndWait();
    EXPECT_EQ(runs.load(), (round + 1) * 20);
  }
}

TEST(TaskArenaTest, ExhaustedBudgetDegradesToSerialLoop) {
  // The realistic serial case: the batch ThreadPool reserved every core, so
  // the intra-query arena gets no helpers and runs on the caller alone.
  ScopedBudget budget(1);
  CoreBudget::Reserve(1);
  TaskArena arena(8);
  EXPECT_EQ(arena.num_workers(), 1);
  // Owner-thread submissions with a single worker run in submission order.
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    arena.Submit([&order, i](int worker) {
      EXPECT_EQ(worker, 0);
      order.push_back(i);
    });
  }
  arena.RunAndWait();
  ASSERT_EQ(order.size(), 10u);
  // Single worker: own-deque LIFO over owner round-robin submissions still
  // drains everything; nothing to steal from.
  std::set<int> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(arena.tasks_stolen(), 0);
  CoreBudget::Release(1);
}

TEST(TaskArenaTest, ReleasesBudgetOnDestruction) {
  ScopedBudget budget(6);
  const int base = CoreBudget::InUse();
  {
    TaskArena arena(6);
    EXPECT_EQ(CoreBudget::InUse(), base + arena.num_workers() - 1);
  }
  EXPECT_EQ(CoreBudget::InUse(), base);
}

TEST(TaskArenaTest, RequestClampAndGrantShrink) {
  ScopedBudget budget(3);
  // The caller's slot is free; helpers come from the budget. Asking for 100
  // workers grants the whole 3-slot budget as helpers: 4 workers total.
  TaskArena arena(100);
  EXPECT_EQ(arena.num_workers(), 4);
  TaskArena clamped(0);  // < 1 clamps to 1 worker (the caller)
  EXPECT_EQ(clamped.num_workers(), 1);
}

}  // namespace
}  // namespace arsp
