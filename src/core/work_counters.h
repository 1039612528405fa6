// Copyright 2026 The ARSP Authors.
//
// The per-query work counters (§V compares the algorithms by the work they
// do, not only by time), declared once. Each row of ARSP_WORK_COUNTERS is
//
//   X(name, wire id, merge rule, help text)
//
// and everything that carries counters is generated from it: the fields of
// WorkCounters (which ArspResult, SolverStats and the traversal lanes
// inherit or hold), WorkCounters::MergeFrom (the lane merge and the
// coordinator's shard merge), SolverStats::ToString / AnnotateSpan, the
// wire form (a counted (id, value) list — see WireSolverStats), and the
// daemon's Prometheus series (arsp_solver_<name>_total for sum rows,
// arsp_solver_<name> gauges for max rows).
//
// Adding a counter is one row here. Wire ids are stable and never reused:
// decoders skip ids they do not know, so a new row needs no new wire
// version. Merge rules: kSum rows are associative-commutative sums, so lane
// and shard totals equal the serial run's however work was distributed;
// kMax rows (a depth, byte footprints) keep the larger value.

#ifndef ARSP_CORE_WORK_COUNTERS_H_
#define ARSP_CORE_WORK_COUNTERS_H_

#include <algorithm>
#include <cstdint>

namespace arsp {

#define ARSP_WORK_COUNTERS(X)                                                 \
  X(dominance_tests, 1, kSum, "Pairwise F-dominance tests performed.")        \
  X(nodes_visited, 2, kSum, "Tree nodes expanded or constructed.")            \
  X(nodes_pruned, 3, kSum, "Subtrees pruned.")                                \
  X(index_probes, 4, kSum, "Window, half-space or angular index probes.")     \
  X(objects_pruned, 5, kSum, "Objects decided out by goal-pushdown bounds.")  \
  X(bound_refinements, 6, kSum, "Per-object goal bound updates applied.")     \
  X(early_exit_depth, 7, kMax,                                                \
    "Traversal depth (or B&B round) of the global goal-met stop; 0 = the "    \
    "solve ran to the end.")                                                  \
  X(index_bytes_resident, 8, kMax,                                            \
    "Heap-owned index and score bytes behind the solve.")                     \
  X(index_bytes_mapped, 9, kMax,                                              \
    "Snapshot-mapped (mmap) index and score bytes behind the solve.")         \
  X(peak_rss_bytes, 10, kMax,                                                 \
    "Process peak resident set size after the solve (0 = unknown).")         \
  X(tasks_spawned, 11, kSum, "Subtree tasks submitted to the executor.")      \
  X(tasks_stolen, 12, kSum,                                                   \
    "Executor tasks claimed by a non-owning worker (scheduling-dependent).")  \
  X(parallel_workers, 13, kSum, "Executor workers granted, caller included.")

enum class MergeRule : uint8_t { kSum, kMax };

/// One int64 field per table row, all zero-initialised. Every counter but
/// tasks_stolen is deterministic: bit-identical between serial and
/// parallel runs of the same solve.
struct WorkCounters {
#define ARSP_WORK_COUNTER_FIELD(name, id, rule, help) int64_t name = 0;
  ARSP_WORK_COUNTERS(ARSP_WORK_COUNTER_FIELD)
#undef ARSP_WORK_COUNTER_FIELD

  /// Folds `other` into this by each row's merge rule.
  void MergeFrom(const WorkCounters& other);
};

/// A table row as data, for code that iterates the counters.
struct WorkCounterInfo {
  const char* name;
  uint16_t wire_id;
  MergeRule rule;
  const char* help;
  int64_t WorkCounters::*field;
};

inline constexpr WorkCounterInfo kWorkCounters[] = {
#define ARSP_WORK_COUNTER_INFO(name, id, rule, help) \
  {#name, id, MergeRule::rule, help, &WorkCounters::name},
    ARSP_WORK_COUNTERS(ARSP_WORK_COUNTER_INFO)
#undef ARSP_WORK_COUNTER_INFO
};

inline void WorkCounters::MergeFrom(const WorkCounters& other) {
  for (const WorkCounterInfo& c : kWorkCounters) {
    int64_t& mine = this->*c.field;
    const int64_t theirs = other.*c.field;
    mine = c.rule == MergeRule::kSum ? mine + theirs : std::max(mine, theirs);
  }
}

}  // namespace arsp

#endif  // ARSP_CORE_WORK_COUNTERS_H_
