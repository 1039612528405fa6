// Copyright 2026 The ARSP Authors.

#include "src/common/task_arena.h"

#include <cstdlib>
#include <string>
#include <utility>

#include "src/obs/trace.h"

namespace arsp {
namespace {

std::atomic<int> g_in_use{0};
std::atomic<int> g_total_override{0};  // testing hook; 0 = none

int ResolveTotal() {
  if (const char* env = std::getenv("ARSP_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 4096) {
      return static_cast<int>(v);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

int CoreBudget::Total() {
  int override_total = g_total_override.load(std::memory_order_relaxed);
  if (override_total > 0) return override_total;
  static const int kTotal = ResolveTotal();
  return kTotal;
}

void CoreBudget::Reserve(int n) {
  if (n > 0) g_in_use.fetch_add(n, std::memory_order_relaxed);
}

int CoreBudget::TryAcquire(int max_slots) {
  if (max_slots <= 0) return 0;
  int total = Total();
  int in_use = g_in_use.load(std::memory_order_relaxed);
  while (true) {
    int available = total - in_use;
    if (available <= 0) return 0;
    int want = available < max_slots ? available : max_slots;
    if (g_in_use.compare_exchange_weak(in_use, in_use + want,
                                       std::memory_order_relaxed)) {
      return want;
    }
    // in_use was reloaded by the failed CAS; retry with the fresh value.
  }
}

void CoreBudget::Release(int n) {
  if (n > 0) g_in_use.fetch_sub(n, std::memory_order_relaxed);
}

int CoreBudget::InUse() { return g_in_use.load(std::memory_order_relaxed); }

namespace {
thread_local bool t_thread_charged = false;
}  // namespace

void CoreBudget::MarkThreadCharged() { t_thread_charged = true; }

CoreBudget::CallerSlot::CallerSlot() {
  if (t_thread_charged) return;
  Reserve(1);
  t_thread_charged = true;
  charged_ = true;
}

CoreBudget::CallerSlot::~CallerSlot() {
  if (!charged_) return;
  t_thread_charged = false;
  Release(1);
}

namespace internal {
void SetCoreBudgetTotalForTesting(int total) {
  g_total_override.store(total, std::memory_order_relaxed);
}
}  // namespace internal

TaskArena::TaskArena(int requested_workers) {
  if (requested_workers < 1) requested_workers = 1;
  granted_helpers_ = CoreBudget::TryAcquire(requested_workers - 1);
  queues_.reserve(granted_helpers_ + 1);
  for (int i = 0; i < granted_helpers_ + 1; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  helpers_.reserve(granted_helpers_);
  for (int i = 0; i < granted_helpers_; ++i) {
    helpers_.emplace_back([this, i] { HelperLoop(i + 1); });
  }
}

TaskArena::~TaskArena() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  for (auto& t : helpers_) t.join();
  CoreBudget::Release(granted_helpers_);
}

void TaskArena::Submit(Task task) {
  spawned_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const int target =
      static_cast<int>(submit_cursor_.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<uint32_t>(num_workers()));
  {
    std::lock_guard<std::mutex> qlock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  // Lock mu_ so a helper between its queued_ check and its cv wait cannot
  // miss this wakeup.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_one();
}

void TaskArena::FinishTask() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }
}

bool TaskArena::RunOneTask(int worker) {
  // Own deque first: LIFO from the back keeps the working set warm.
  Task task;
  bool have = false;
  bool stole = false;
  {
    WorkerQueue& own = *queues_[worker];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
      have = true;
    }
  }
  if (!have) {
    // Steal half (rounded up) of the first non-empty victim, FIFO from the
    // front; run the first stolen task, keep the rest on our own deque.
    int n = num_workers();
    for (int off = 1; off < n && !have; ++off) {
      int victim = (worker + off) % n;
      std::deque<Task> loot;
      {
        WorkerQueue& vq = *queues_[victim];
        std::lock_guard<std::mutex> lock(vq.mu);
        size_t avail = vq.tasks.size();
        if (avail == 0) continue;
        size_t take = (avail + 1) / 2;
        for (size_t i = 0; i < take; ++i) {
          loot.push_back(std::move(vq.tasks.front()));
          vq.tasks.pop_front();
        }
      }
      stolen_.fetch_add(static_cast<int64_t>(loot.size()),
                        std::memory_order_relaxed);
      task = std::move(loot.front());
      loot.pop_front();
      have = true;
      stole = true;
      if (!loot.empty()) {
        WorkerQueue& own = *queues_[worker];
        std::lock_guard<std::mutex> lock(own.mu);
        for (auto& t : loot) own.tasks.push_back(std::move(t));
      }
    }
  }
  if (!have) return false;
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  // Optional per-task profiling events (ARSP_TRACE_FILE): one Chrome
  // trace_event complete event per executed task, keyed by worker lane.
  // enabled() is a cached bool, so the untraced hot path pays one branch.
  obs::TaskEventSink& sink = obs::TaskEventSink::Global();
  if (sink.enabled()) {
    obs::TaskEventSink::Event event;
    event.worker = worker;
    event.stolen = stole;
    event.start_ns = obs::Trace::NowNs();
    task(worker);
    event.end_ns = obs::Trace::NowNs();
    sink.Record(event);
  } else {
    task(worker);
  }
  FinishTask();
  return true;
}

void TaskArena::HelperLoop(int worker) {
  CoreBudget::MarkThreadCharged();  // acquired by the constructor
  while (true) {
    if (RunOneTask(worker)) continue;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void TaskArena::RunAndWait() {
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (RunOneTask(0)) continue;
    // Nothing claimable: helpers hold the remaining tasks. Wait for the
    // all-done notification (or for work to reappear — tasks may submit
    // subtasks).
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0 ||
             queued_.load(std::memory_order_acquire) > 0;
    });
  }
}

}  // namespace arsp
