// Supernode task DAG for parallel-factorization scheduling. Dependencies
// are exactly the assembly-tree edges: a supernode can factor once all of
// its children have produced their update matrices.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

struct TaskGraph {
  index_t num_tasks = 0;
  std::vector<index_t> parent;                  ///< -1 for roots
  std::vector<std::vector<index_t>> children;
  std::vector<index_t> ms;
  std::vector<index_t> ks;
  /// Memory-bound assembly entries charged to the task's worker (original
  /// entries + extend-add of children + packing its own update + storing
  /// the factor panel).
  std::vector<double> assembly_entries;
};

TaskGraph build_task_graph(const SymbolicFactor& sym, const SparseSpd& permuted);

/// Relative serial cost of each task: factor-update ops plus memory-bound
/// assembly entries.
std::vector<double> task_costs(const TaskGraph& graph);

/// Critical-path bottom level of each task under `cost`: its own cost plus
/// its parent's bottom level (the priority of the pool's seeds and of the
/// cluster's ready tasks).
std::vector<double> bottom_levels(const TaskGraph& graph,
                                  const std::vector<double>& cost);

}  // namespace mfgpu
