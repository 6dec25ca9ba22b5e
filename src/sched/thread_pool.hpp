// Work-stealing thread pool for tree-shaped task DAGs — the real-thread
// counterpart of the list-scheduling *simulation* in sched/list_scheduler.hpp.
//
// The pool executes a forest given as a parent array (the supernodal
// assembly tree: a task becomes ready when all of its children completed).
// Each worker owns a deque: it pushes newly readied parents at the bottom
// and pops from the bottom (LIFO, cache-friendly — the parent's front is
// assembled from update matrices the worker just produced); idle workers
// steal from the top of a victim's deque (FIFO, taking the oldest seeded
// subtree). Initial ready tasks (leaves) are seeded per worker — the caller
// typically passes sched/proportional_map.hpp's mapping so subtrees stay
// worker-local — ordered by a priority (critical-path bottom level): the
// highest-priority leaf is popped first by its owner.
//
// Completion counters are atomics with acquire-release ordering, so every
// write a child task made (its packed update matrix) happens-before the
// parent task's execution, on whichever worker it lands.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "support/error.hpp"

namespace mfgpu {

/// A forest of tasks: parent[t] == -1 for roots. Must be postordered
/// (parent[t] > t), which the supernodal assembly tree always is.
struct TreeDag {
  std::span<const index_t> parent;
  /// Optional (empty = round-robin): worker whose deque each initially-ready
  /// task is seeded into; values are clamped into [0, num_threads).
  std::span<const int> preferred_worker;
  /// Optional (empty = task index): higher runs first on its seeded worker.
  std::span<const double> priority;
};

/// A general dependency DAG in CSR successor form: task t becomes ready once
/// `num_deps[t]` completion notifications arrived, and on completion notifies
/// every task in `succ[succ_ptr[t] .. succ_ptr[t+1])`. Duplicate edges are
/// allowed as long as `num_deps` counts them (each occurrence notifies once)
/// — grouped nodes (e.g. a batch of fronts sharing a parent) can simply list
/// one edge per member. The graph must be acyclic; run_dag validates that
/// num_deps matches the indegree implied by succ.
///
/// This generalizes TreeDag (each tree task has at most one successor, its
/// parent); run_tree lowers to this form. The parallel multifrontal driver
/// uses it directly: one node per unit (a front, or a front *batch* with
/// successor edges to every member's parent node).
struct GraphDag {
  std::span<const index_t> succ_ptr;  ///< size num_tasks + 1
  std::span<const index_t> succ;      ///< flattened successor lists
  std::span<const index_t> num_deps;  ///< size num_tasks
  /// Optional (empty = round-robin): worker whose deque each initially-ready
  /// task is seeded into; values are clamped into [0, num_threads).
  std::span<const int> preferred_worker;
  /// Optional (empty = task index): higher runs first on its seeded worker.
  std::span<const double> priority;

  index_t num_tasks() const noexcept {
    return static_cast<index_t>(num_deps.size());
  }
};

/// Per-run execution statistics, one slot per worker.
struct PoolRunStats {
  std::vector<std::int64_t> executed;  ///< tasks run by each worker
  std::vector<std::int64_t> steals;    ///< successful steals by each worker
  /// Steal attempts that found the victim's deque empty (a measure of how
  /// starved the run was; failed sweeps also accrue idle_seconds).
  std::vector<std::int64_t> failed_steals;
  std::vector<double> busy_seconds;    ///< wall-clock seconds inside task bodies
  /// Wall-clock seconds the worker spent in the run loop without a task
  /// (deque misses, failed steal sweeps, yields/backoff sleeps). By
  /// construction busy_seconds + idle_seconds == wall_seconds per worker.
  std::vector<double> idle_seconds;
  std::vector<double> wall_seconds;    ///< total seconds inside the run loop

  int num_workers() const noexcept { return static_cast<int>(executed.size()); }

  std::int64_t total_steals() const noexcept {
    std::int64_t total = 0;
    for (std::int64_t s : steals) total += s;
    return total;
  }
  std::int64_t total_failed_steals() const noexcept {
    std::int64_t total = 0;
    for (std::int64_t s : failed_steals) total += s;
    return total;
  }
};

/// Persistent pool of `num_threads - 1` helper threads; the calling thread
/// participates in every run as worker 0, so `num_threads == 1` executes
/// entirely on the caller (no concurrency — bitwise-reproducible ordering).
///
/// `run_tree` blocks until every task ran (or an exception aborted the run),
/// and may be called repeatedly; the destructor shuts the helpers down.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const noexcept;

  /// Execute `body(task, worker)` for every task of `dag`, children before
  /// parents. If any body throws, remaining tasks are abandoned and the
  /// first exception is rethrown here (the pool stays usable). Not
  /// reentrant: one run at a time.
  PoolRunStats run_tree(const TreeDag& dag,
                        const std::function<void(index_t task, int worker)>& body);

  /// Execute `body(task, worker)` for every task of `dag`, predecessors
  /// before successors. Same error and reentrancy contract as run_tree
  /// (which is implemented on top of this).
  PoolRunStats run_dag(const GraphDag& dag,
                       const std::function<void(index_t task, int worker)>& body);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mfgpu
