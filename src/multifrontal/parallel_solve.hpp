// Level-scheduled parallel supernodal triangular solves with blocked
// multi-RHS streaming.
//
// The serial sweeps in multifrontal/solve.hpp walk the supernodes in
// postorder, one RHS at a time. For serve-style workloads (many solves
// against one cached factorization) that leaves two factors of performance
// on the table:
//
//   * Tree parallelism. Supernodes at the same elimination-tree LEVEL are
//     never ancestor/descendant of one another, so their pivot solves are
//     independent (Ruipeng Li, "On Parallel Solution of Sparse Triangular
//     Linear Systems in CUDA"). build_solve_schedule() extracts the level
//     structure, the exact dependency runs between supernodes and the tiled
//     sweep DAGs once per symbolic analysis; the sweeps then execute those
//     DAGs on the work-stealing thread pool.
//   * RHS blocking. A blocked solve streams every factor panel ONCE for a
//     whole block of right-hand sides instead of once per RHS; only the
//     per-RHS gather/scatter traffic scales with the block width.
//   * Intra-supernode parallelism. The root separators carry most of the
//     work, so wide supernodes are tiled (below) and their off-pivot work
//     spreads over the pool instead of running as one task.
//
// Determinism: results are bitwise identical to multifrontal/solve.hpp's
// serial sweeps at every thread count, block width and backend, with no
// separate "deterministic mode" to toggle, because every x entry sees the
// serial sweep's exact operation sequence:
//
//   * The forward sweep is a PULL: each supernode applies its incoming
//     update runs itself, sources in ascending supernode order, so an entry
//     receives its subtractions in the serial scatter's order (source
//     ascending, then pivot column ascending), followed by its pivot
//     triangle's subtractions (column ascending) and the diagonal division.
//     The backward sweep is a gather per pivot column (update rows
//     ascending), then the column-by-column back substitution.
//   * Intra-supernode tiles. A supernode wider than a fixed tile of pivot
//     columns (a constant of the code, independent of the thread count) is
//     split into extra DAG nodes: forward, one per row tile, each applying
//     every incoming run — sources ascending — to its own rows only;
//     backward, one per column tile of the L21^T gather. Tiles partition
//     the entries, never an entry's sequence, and the pivot triangle runs
//     after all of its supernode's tiles. Only triangle nodes are priced,
//     so the virtual time stays per supernode.
//   * RHS-contiguous layout. The sweeps run on a row-major copy of the
//     block, so one unknown's right-hand sides are adjacent and the kernels
//     keep a few rows x up to 8 right-hand sides in SIMD registers
//     (dense/rhs_lanes.hpp). Lanes hold different right-hand sides (or,
//     for a single one, different rows or pivot columns) — never two terms
//     of one entry — and column and row blocking only choose which
//     independent entries share a pass over a panel.
//
// Timing is virtual, like everything else in this repo: each worker owns a
// SimClock, CPU tasks are priced at the memory-bound host assembly rate,
// and SolveBackend::GpuSim prices each supernode task as trsm/gemm kernel
// launches against the device cost model (priced, not computed — the
// authoritative math stays on the host in double, which is what keeps the
// backends bitwise identical).
#pragma once

#include <vector>

#include "dense/matrix.hpp"
#include "gpusim/device.hpp"
#include "multifrontal/factorization.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

/// One maximal contiguous run of a source supernode's update rows owned by
/// a single target supernode: rows update_rows[t_begin..t_end) of `source`
/// fall inside `target`'s column range. Because update rows are sorted and
/// supernode column ranges are contiguous, each (source, target) pair
/// produces exactly one run.
struct SolveRun {
  index_t source = 0;
  index_t target = 0;
  index_t t_begin = 0;
  index_t t_end = 0;
};

/// Values-independent schedule for the triangular sweeps, built once per
/// symbolic factorization (it is a pattern artifact, reusable across
/// refactorizations — cache it next to the Analysis).
struct SolveSchedule {
  index_t num_supernodes = 0;
  /// Number of elimination-tree levels (the schedule's critical-path depth:
  /// a solve cannot finish in fewer than num_levels dependent steps however
  /// many threads are available).
  index_t num_levels = 0;
  /// Height of each supernode above the leaves; ancestors are strictly
  /// higher than descendants.
  std::vector<index_t> level_of;
  /// Level-major supernode lists: level l spans
  /// level_nodes[level_ptr[l] .. level_ptr[l+1]).
  std::vector<index_t> level_ptr;
  std::vector<index_t> level_nodes;
  /// All dependency runs, grouped by source (targets ascending within one
  /// source): runs[out_ptr[s] .. out_ptr[s+1]) have source == s.
  std::vector<SolveRun> runs;
  std::vector<index_t> out_ptr;
  /// Incoming runs per target as indices into `runs`, sources ascending:
  /// in_runs[in_ptr[t] .. in_ptr[t+1]) all have target == t. The ascending
  /// source order is what reproduces the serial sweep's per-entry
  /// accumulation sequence bitwise.
  std::vector<index_t> in_ptr;
  std::vector<index_t> in_runs;
  /// Widest level (supernode count) — the schedule's parallelism ceiling.
  index_t max_level_width = 0;

  /// Sweep DAG nodes. Supernode s owns nodes [node_ptr[s], node_ptr[s+1]);
  /// the last one is its triangle node (pivot solve, and for a supernode of
  /// at most one tile all of its off-pivot work). A wider supernode has one
  /// tile node per tile of pivot columns ahead of it: forward, a row tile;
  /// backward, a column tile of the L21^T gather.
  std::vector<index_t> node_ptr;
  std::vector<index_t> node_snode;
  /// Forward row tiles' incoming runs cut to the tile's rows, sources
  /// ascending: tile_runs[tile_run_ptr[v] .. tile_run_ptr[v+1]) belong to
  /// node v (empty for triangle nodes).
  std::vector<index_t> tile_run_ptr;
  std::vector<SolveRun> tile_runs;
  /// One sweep's dependency DAG over the nodes, in CSR form.
  struct Dag {
    std::vector<index_t> succ_ptr;
    std::vector<index_t> succ;
    std::vector<index_t> num_deps;
    std::vector<double> priority;
  };
  Dag forward_dag;
  Dag backward_dag;

  index_t triangle_node(index_t s) const {
    return node_ptr[static_cast<std::size_t>(s) + 1] - 1;
  }
};

SolveSchedule build_solve_schedule(const SymbolicFactor& sym);

/// Where the per-supernode solve tasks are PRICED (the numeric work always
/// runs on the host in double — see the determinism note above).
enum class SolveBackend {
  Host,   ///< memory-bound host assembly rate per panel stream
  GpuSim  ///< trsm/gemm kernel launches on a simulated device per worker
};

struct ParallelSolveOptions {
  /// Solve thread count; 1 executes entirely on the caller.
  int threads = 1;
  SolveBackend backend = SolveBackend::Host;
  /// Device template for SolveBackend::GpuSim (each worker prices against a
  /// private device built from this).
  Device::Options device;
  /// Optional precomputed schedule for analysis.symbolic (must match).
  /// When null, the schedule is built on the fly.
  const SolveSchedule* schedule = nullptr;
};

/// Virtual-time accounting of one blocked solve.
struct SolveStats {
  index_t levels = 0;
  index_t num_rhs = 0;
  int threads = 1;
  double forward_sim_seconds = 0.0;   ///< forward-sweep virtual makespan
  double backward_sim_seconds = 0.0;  ///< backward-sweep virtual makespan
  double sim_seconds = 0.0;           ///< total virtual makespan
};

/// Blocked multi-RHS solve of A X = B in the ORIGINAL ordering: solves the
/// leading `num_rhs` columns of `b` in one level-scheduled pass that
/// streams each factor panel once for the whole block. Bitwise identical,
/// column for column, to solve(analysis, factor, b.col(j)) for every
/// thread count and backend.
Matrix<double> solve(const Analysis& analysis, const Factorization& factor,
                     const Matrix<double>& b, index_t num_rhs,
                     const ParallelSolveOptions& options = {},
                     SolveStats* stats = nullptr);

/// Deterministic simulated seconds for a blocked `num_rhs` solve on
/// `threads` level-scheduled solve threads: per level, the greedy bound
/// max(longest task, level work / threads), summed over both sweeps. With
/// threads == 1 this equals estimated_solve_seconds(sym, num_rhs) (up to
/// summation-order roundoff), and it is what the solve-throughput bench
/// gates on — unlike an executed work-stealing makespan it does not depend
/// on which worker won each task.
double estimated_solve_seconds(const SymbolicFactor& sym,
                               const SolveSchedule& schedule, index_t num_rhs,
                               int threads);

}  // namespace mfgpu
