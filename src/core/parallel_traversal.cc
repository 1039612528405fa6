// Copyright 2026 The ARSP Authors.

#include "src/core/parallel_traversal.h"

#include <atomic>
#include <string>

namespace arsp {
namespace internal {

Status ReadParallelism(const SolverOptions& options, int* parallelism) {
  StatusOr<int64_t> par = options.IntOr("parallelism", *parallelism);
  if (!par.ok()) return par.status();
  if (*par < 1) {
    return Status::InvalidArgument("parallelism must be >= 1, got " +
                                   std::to_string(*par));
  }
  *parallelism = static_cast<int>(*par);
  return Status::OK();
}

namespace {
std::atomic<int> g_spawn_min_rows_override{0};  // testing hook; 0 = none
}  // namespace

int SpawnMinRows() {
  const int override_rows =
      g_spawn_min_rows_override.load(std::memory_order_relaxed);
  return override_rows > 0 ? override_rows : kSpawnMinRows;
}

void SetSpawnMinRowsForTesting(int rows) {
  g_spawn_min_rows_override.store(rows, std::memory_order_relaxed);
}

SharedGoalState::SharedGoalState(GoalPruner* pruner)
    : pruner_(pruner != nullptr && pruner->active() ? pruner : nullptr) {
  if (pruner_ != nullptr) {
    // Publish the construction-time mask: scoped goals pre-decide
    // out-of-scope objects, and lanes should see those from task one.
    std::lock_guard<std::mutex> lock(mu_);
    PublishLocked();
  }
}

void SharedGoalState::PublishLocked() {
  published_ = pruner_->decided_mask();
  published_count_ = pruner_->decided_count();
  epoch_.fetch_add(1, std::memory_order_release);
}

void SharedGoalState::Flush(
    const std::vector<std::pair<int, double>>& resolutions) {
  if (pruner_ == nullptr || resolutions.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : resolutions) {
    pruner_->Resolve(r.first, r.second);
  }
  if (pruner_->GoalMet()) {
    stop_.store(true, std::memory_order_release);
  }
  if (pruner_->decided_count() != published_count_) {
    PublishLocked();
  }
}

void SharedGoalState::RefreshSnapshot(std::vector<unsigned char>* mask,
                                      uint64_t* epoch_seen,
                                      bool* any_decided) const {
  if (pruner_ == nullptr) return;
  const uint64_t current = epoch_.load(std::memory_order_acquire);
  if (current == *epoch_seen) return;
  std::lock_guard<std::mutex> lock(mu_);
  *mask = published_;
  *any_decided = published_count_ > 0;
  // Re-read under the lock: the copy above is consistent with at least
  // this epoch.
  *epoch_seen = epoch_.load(std::memory_order_relaxed);
}

}  // namespace internal
}  // namespace arsp
