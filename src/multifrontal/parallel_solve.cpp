#include "multifrontal/parallel_solve.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "dense/rhs_lanes.hpp"
#include "gpusim/gpublas.hpp"
#include "obs/obs.hpp"
#include "sched/thread_pool.hpp"

namespace mfgpu {

namespace {

/// Pivot columns per intra-supernode tile. A constant of the code, not of
/// the run: the partition — and with it every entry's operation sequence —
/// is the same at every thread count.
constexpr index_t kTile = 64;

index_t num_tiles(index_t width) {
  return width > kTile ? (width + kTile - 1) / kTile : 0;
}

/// CSR successor lists and indegrees from an edge list.
void build_csr(index_t num_nodes,
               const std::vector<std::pair<index_t, index_t>>& edges,
               SolveSchedule::Dag& dag) {
  dag.succ_ptr.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  dag.num_deps.assign(static_cast<std::size_t>(num_nodes), 0);
  for (const auto& [from, to] : edges) {
    ++dag.succ_ptr[static_cast<std::size_t>(from) + 1];
    ++dag.num_deps[static_cast<std::size_t>(to)];
  }
  for (std::size_t v = 1; v < dag.succ_ptr.size(); ++v) {
    dag.succ_ptr[v] += dag.succ_ptr[v - 1];
  }
  dag.succ.resize(edges.size());
  std::vector<index_t> cursor(dag.succ_ptr.begin(), dag.succ_ptr.end() - 1);
  for (const auto& [from, to] : edges) {
    dag.succ[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(from)]++)] = to;
  }
}

/// The tiled sweep DAGs over the schedule's levels and runs. Forward, a
/// row tile waits for the triangle node of every source whose run it cuts,
/// and its triangle waits for its tiles; backward, every node of a supernode
/// with off-pivot work waits for the triangles of all the targets it reads,
/// and the triangle waits for its column tiles.
void build_sweep_dags(const SymbolicFactor& sym, SolveSchedule& sched) {
  const index_t nsup = sched.num_supernodes;
  sched.node_ptr.assign(static_cast<std::size_t>(nsup) + 1, 0);
  for (index_t s = 0; s < nsup; ++s) {
    sched.node_ptr[static_cast<std::size_t>(s) + 1] =
        sched.node_ptr[static_cast<std::size_t>(s)] +
        num_tiles(sym.supernodes()[static_cast<std::size_t>(s)].width()) + 1;
  }
  const index_t nodes = sched.node_ptr.back();
  sched.node_snode.resize(static_cast<std::size_t>(nodes));
  sched.forward_dag.priority.resize(static_cast<std::size_t>(nodes));
  sched.backward_dag.priority.resize(static_cast<std::size_t>(nodes));
  for (index_t s = 0; s < nsup; ++s) {
    const double level =
        static_cast<double>(sched.level_of[static_cast<std::size_t>(s)]);
    for (index_t v = sched.node_ptr[static_cast<std::size_t>(s)];
         v <= sched.triangle_node(s); ++v) {
      sched.node_snode[static_cast<std::size_t>(v)] = s;
      // Forward drains the levels bottom-up, backward top-down.
      sched.forward_dag.priority[static_cast<std::size_t>(v)] = -level;
      sched.backward_dag.priority[static_cast<std::size_t>(v)] = level;
    }
  }

  std::vector<std::pair<index_t, index_t>> fwd_edges, bwd_edges;
  sched.tile_run_ptr.assign(static_cast<std::size_t>(nodes) + 1, 0);
  for (index_t s = 0; s < nsup; ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    const index_t first = sched.node_ptr[static_cast<std::size_t>(s)];
    const index_t tri = sched.triangle_node(s);
    const index_t in_begin = sched.in_ptr[static_cast<std::size_t>(s)];
    const index_t in_end = sched.in_ptr[static_cast<std::size_t>(s) + 1];
    for (index_t v = first; v < tri; ++v) {
      const index_t row_begin = sn.first_col + (v - first) * kTile;
      const index_t row_end = std::min(sn.last_col, row_begin + kTile);
      for (index_t i = in_begin; i < in_end; ++i) {
        const SolveRun& run = sched.runs[static_cast<std::size_t>(
            sched.in_runs[static_cast<std::size_t>(i)])];
        const auto& rows =
            sym.supernodes()[static_cast<std::size_t>(run.source)].update_rows;
        const auto lo = std::lower_bound(rows.begin() + run.t_begin,
                                         rows.begin() + run.t_end, row_begin);
        const auto hi = std::lower_bound(lo, rows.begin() + run.t_end, row_end);
        if (lo == hi) continue;
        sched.tile_runs.push_back(
            SolveRun{run.source, s, static_cast<index_t>(lo - rows.begin()),
                     static_cast<index_t>(hi - rows.begin())});
        fwd_edges.emplace_back(sched.triangle_node(run.source), v);
      }
      sched.tile_run_ptr[static_cast<std::size_t>(v) + 1] =
          static_cast<index_t>(sched.tile_runs.size());
      fwd_edges.emplace_back(v, tri);
      bwd_edges.emplace_back(v, tri);
    }
    sched.tile_run_ptr[static_cast<std::size_t>(tri) + 1] =
        static_cast<index_t>(sched.tile_runs.size());
    if (tri == first) {
      for (index_t i = in_begin; i < in_end; ++i) {
        const SolveRun& run = sched.runs[static_cast<std::size_t>(
            sched.in_runs[static_cast<std::size_t>(i)])];
        fwd_edges.emplace_back(sched.triangle_node(run.source), tri);
      }
    }
    for (index_t r = sched.out_ptr[static_cast<std::size_t>(s)];
         r < sched.out_ptr[static_cast<std::size_t>(s) + 1]; ++r) {
      const index_t target_tri =
          sched.triangle_node(sched.runs[static_cast<std::size_t>(r)].target);
      for (index_t v = first; v < tri; ++v) {
        bwd_edges.emplace_back(target_tri, v);
      }
      if (tri == first) bwd_edges.emplace_back(target_tri, tri);
    }
  }
  build_csr(nodes, fwd_edges, sched.forward_dag);
  build_csr(nodes, bwd_edges, sched.backward_dag);
}

}  // namespace

SolveSchedule build_solve_schedule(const SymbolicFactor& sym) {
  const index_t nsup = sym.num_supernodes();
  SolveSchedule sched;
  sched.num_supernodes = nsup;
  sched.level_of.assign(static_cast<std::size_t>(nsup), 0);
  sched.out_ptr.assign(static_cast<std::size_t>(nsup) + 1, 0);
  sched.in_ptr.assign(static_cast<std::size_t>(nsup) + 1, 0);
  if (nsup == 0) {
    sched.level_ptr.assign(1, 0);
    build_sweep_dags(sym, sched);
    return sched;
  }

  // Height above the leaves. Supernodes are postordered (parent > child),
  // so one ascending pass folds every child into its parent.
  for (index_t s = 0; s < nsup; ++s) {
    const index_t p = sym.supernodes()[static_cast<std::size_t>(s)].parent;
    if (p != -1) {
      auto& lp = sched.level_of[static_cast<std::size_t>(p)];
      lp = std::max(lp, sched.level_of[static_cast<std::size_t>(s)] + 1);
    }
  }
  for (index_t s = 0; s < nsup; ++s) {
    sched.num_levels =
        std::max(sched.num_levels, sched.level_of[static_cast<std::size_t>(s)] + 1);
  }

  // Level-major lists via counting sort (keeps supernode order within a
  // level ascending).
  sched.level_ptr.assign(static_cast<std::size_t>(sched.num_levels) + 1, 0);
  for (index_t s = 0; s < nsup; ++s) {
    ++sched.level_ptr[static_cast<std::size_t>(
        sched.level_of[static_cast<std::size_t>(s)]) + 1];
  }
  for (std::size_t l = 1; l < sched.level_ptr.size(); ++l) {
    sched.level_ptr[l] += sched.level_ptr[l - 1];
    sched.max_level_width =
        std::max(sched.max_level_width,
                 sched.level_ptr[l] - sched.level_ptr[l - 1]);
  }
  sched.level_nodes.resize(static_cast<std::size_t>(nsup));
  {
    std::vector<index_t> cursor(sched.level_ptr.begin(),
                                sched.level_ptr.end() - 1);
    for (index_t s = 0; s < nsup; ++s) {
      const index_t l = sched.level_of[static_cast<std::size_t>(s)];
      sched.level_nodes[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(l)]++)] = s;
    }
  }

  // Dependency runs: walk each source's (sorted) update rows and cut a run
  // at every owner-supernode boundary. Sources ascending by construction.
  for (index_t s = 0; s < nsup; ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    const index_t m = sn.num_update_rows();
    index_t t = 0;
    while (t < m) {
      const index_t target =
          sym.snode_of_col(sn.update_rows[static_cast<std::size_t>(t)]);
      // last_col is one past the target's final column: extend the run only
      // while the rows stay strictly below it.
      const index_t last =
          sym.supernodes()[static_cast<std::size_t>(target)].last_col;
      index_t end = t + 1;
      while (end < m && sn.update_rows[static_cast<std::size_t>(end)] < last) {
        ++end;
      }
      sched.runs.push_back(SolveRun{s, target, t, end});
      ++sched.in_ptr[static_cast<std::size_t>(target) + 1];
      t = end;
    }
    sched.out_ptr[static_cast<std::size_t>(s) + 1] =
        static_cast<index_t>(sched.runs.size());
  }
  for (std::size_t i = 1; i < sched.in_ptr.size(); ++i) {
    sched.in_ptr[i] += sched.in_ptr[i - 1];
  }
  sched.in_runs.resize(sched.runs.size());
  {
    std::vector<index_t> cursor(sched.in_ptr.begin(), sched.in_ptr.end() - 1);
    for (std::size_t i = 0; i < sched.runs.size(); ++i) {
      const index_t target = sched.runs[i].target;
      sched.in_runs[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(target)]++)] =
          static_cast<index_t>(i);
    }
  }
  build_sweep_dags(sym, sched);
  return sched;
}

namespace {

double pivot_triangle_entries(index_t k) {
  return 0.5 * static_cast<double>(k) * static_cast<double>(k + 1);
}

/// Per-supernode cost of one sweep task: the factor entries it streams
/// (once per block) and the x rows it gathers/scatters (once per RHS).
/// Summed over all tasks, one sweep streams every stored factor entry
/// exactly once and moves every update row once per RHS — which is how the
/// one-thread makespan reproduces estimated_solve_seconds(sym, num_rhs).
struct TaskWork {
  double entries = 0.0;
  double rows = 0.0;
};

std::vector<TaskWork> forward_work(const SymbolicFactor& sym,
                                   const SolveSchedule& sched) {
  std::vector<TaskWork> work(static_cast<std::size_t>(sched.num_supernodes));
  for (index_t s = 0; s < sched.num_supernodes; ++s) {
    TaskWork& w = work[static_cast<std::size_t>(s)];
    w.entries = pivot_triangle_entries(
        sym.supernodes()[static_cast<std::size_t>(s)].width());
    for (index_t i = sched.in_ptr[static_cast<std::size_t>(s)];
         i < sched.in_ptr[static_cast<std::size_t>(s) + 1]; ++i) {
      const SolveRun& run =
          sched.runs[static_cast<std::size_t>(
              sched.in_runs[static_cast<std::size_t>(i)])];
      const double len = static_cast<double>(run.t_end - run.t_begin);
      w.entries += len * static_cast<double>(
          sym.supernodes()[static_cast<std::size_t>(run.source)].width());
      w.rows += len;
    }
  }
  return work;
}

std::vector<TaskWork> backward_work(const SymbolicFactor& sym,
                                    const SolveSchedule& sched) {
  std::vector<TaskWork> work(static_cast<std::size_t>(sched.num_supernodes));
  for (index_t s = 0; s < sched.num_supernodes; ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    TaskWork& w = work[static_cast<std::size_t>(s)];
    const double m = static_cast<double>(sn.num_update_rows());
    w.entries =
        pivot_triangle_entries(sn.width()) + m * static_cast<double>(sn.width());
    w.rows = m;
  }
  return work;
}

double host_task_seconds(const TaskWork& work, index_t num_rhs) {
  return (work.entries + static_cast<double>(num_rhs) * work.rows) /
         host_assembly_rate();
}

/// Simulated kernel launches of one sweep task on the GpuSim backend: one
/// trsm against the pivot block plus one gemm per dependency run (forward)
/// or one gemm for the whole gather (backward).
struct TaskKernels {
  double seconds = 0.0;  ///< kernel time on the compute stream
  int launches = 0;      ///< host-side enqueues
};

std::vector<TaskKernels> forward_kernels(const SymbolicFactor& sym,
                                         const SolveSchedule& sched,
                                         const ProcessorModel& gpu,
                                         index_t num_rhs) {
  const double r = static_cast<double>(num_rhs);
  std::vector<TaskKernels> kernels(
      static_cast<std::size_t>(sched.num_supernodes));
  for (index_t s = 0; s < sched.num_supernodes; ++s) {
    TaskKernels& tk = kernels[static_cast<std::size_t>(s)];
    const double k = static_cast<double>(
        sym.supernodes()[static_cast<std::size_t>(s)].width());
    for (index_t i = sched.in_ptr[static_cast<std::size_t>(s)];
         i < sched.in_ptr[static_cast<std::size_t>(s) + 1]; ++i) {
      const SolveRun& run =
          sched.runs[static_cast<std::size_t>(
              sched.in_runs[static_cast<std::size_t>(i)])];
      const double len = static_cast<double>(run.t_end - run.t_begin);
      const double kc = static_cast<double>(
          sym.supernodes()[static_cast<std::size_t>(run.source)].width());
      tk.seconds +=
          gpu.gemm.time(2.0 * len * kc * r, std::min({len, kc, r}));
      ++tk.launches;
    }
    tk.seconds += gpu.trsm.time(k * k * r, std::min(k, r));
    ++tk.launches;
  }
  return kernels;
}

std::vector<TaskKernels> backward_kernels(const SymbolicFactor& sym,
                                          const SolveSchedule& sched,
                                          const ProcessorModel& gpu,
                                          index_t num_rhs) {
  const double r = static_cast<double>(num_rhs);
  std::vector<TaskKernels> kernels(
      static_cast<std::size_t>(sched.num_supernodes));
  for (index_t s = 0; s < sched.num_supernodes; ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    TaskKernels& tk = kernels[static_cast<std::size_t>(s)];
    const double k = static_cast<double>(sn.width());
    const double m = static_cast<double>(sn.num_update_rows());
    if (m > 0.0) {
      tk.seconds += gpu.gemm.time(2.0 * m * k * r, std::min({m, k, r}));
      ++tk.launches;
    }
    tk.seconds += gpu.trsm.time(k * k * r, std::min(k, r));
    ++tk.launches;
  }
  return kernels;
}

// ---------------------------------------------------------------------------
// Numeric kernels on the RHS-contiguous solution block X (row-major n x R;
// see dense/rhs_lanes.hpp). Every kernel computes each x entry with exactly
// the serial sweep's operation sequence; the register tiles below only
// choose which independent entries share a pass over the panel.

using lanes::Chunk;
using lanes::for_each_chunk;
using lanes::Pair;
using lanes::splat;

/// Two consecutive panel entries, widened to double (exact for float).
template <typename T>
inline Pair load_panel_pair(const T* p) {
  if constexpr (std::is_same_v<T, double>) {
    return lanes::load_pair(p);
  } else {
    typedef float FloatPair __attribute__((vector_size(2 * sizeof(float))));
    FloatPair f;
    std::memcpy(&f, p, sizeof f);
    return __builtin_convertvector(f, Pair);
  }
}

/// Forward update of rows [r, nr) by `nj` solved source rows,
///   X[row_of(r)] -= P[r + j*ld] * X[src + j]   for j = 0, 1, ..., nj-1,
/// P pointing at the panel entry of target row 0, source column 0. A wide
/// chunk tiles TR rows x W right-hand sides in registers. A one-wide chunk
/// has no right-hand sides to spread, so its TR rows are the lanes instead
/// (consecutive entries of one panel column).
template <int W, int TR, typename T, typename RowOf>
void update_rows(double* X, index_t R, const RowOf& row_of, index_t r,
                 index_t nr, const T* P, index_t ld, index_t src, index_t nj) {
  // A tile walks across the panel's columns, which the hardware does not
  // prefetch: once per cache line of rows, fetch the lines kPrefetchRows
  // further down.
  constexpr index_t kPrefetchRows = 32;
  for (; r + TR <= nr; r += TR) {
    const double* xs = X + src * R;
    const T* pc = P + r;
    if (r % 8 < TR && r + kPrefetchRows < nr) {
      for (index_t j = 0; j < nj; ++j) {
        __builtin_prefetch(pc + kPrefetchRows + j * ld);
      }
    }
    if constexpr (W == 1 && TR > 1) {
      Pair acc[TR / 2];
#pragma GCC unroll 8
      for (int q = 0; q < TR / 2; ++q) {
        acc[q] = Pair{X[row_of(r + 2 * q) * R], X[row_of(r + 2 * q + 1) * R]};
      }
      for (index_t j = 0; j < nj; ++j, xs += R, pc += ld) {
        const Pair x = splat(*xs);
#pragma GCC unroll 8
        for (int q = 0; q < TR / 2; ++q) {
          acc[q] -= load_panel_pair(pc + 2 * q) * x;
        }
      }
#pragma GCC unroll 8
      for (int q = 0; q < TR / 2; ++q) {
        X[row_of(r + 2 * q) * R] = acc[q][0];
        X[row_of(r + 2 * q + 1) * R] = acc[q][1];
      }
    } else {
      Chunk<W> acc[TR];
#pragma GCC unroll 8
      for (int l = 0; l < TR; ++l) {
        acc[l] = Chunk<W>::load(X + row_of(r + l) * R);
      }
      for (index_t j = 0; j < nj; ++j, xs += R, pc += ld) {
        const Chunk<W> v = Chunk<W>::load(xs);
#pragma GCC unroll 8
        for (int l = 0; l < TR; ++l) {
          acc[l].sub_product(static_cast<double>(pc[l]), v);
        }
      }
#pragma GCC unroll 8
      for (int l = 0; l < TR; ++l) acc[l].store(X + row_of(r + l) * R);
    }
  }
  if constexpr (TR > 1) {
    update_rows<W, TR / 2>(X, R, row_of, r, nr, P, ld, src, nj);
  }
}

/// Columns per cache block of the panel kernels: few enough that the row
/// tiles walking down a block's columns form prefetchable streams and that
/// every right-hand-side chunk re-reads the block from cache.
constexpr index_t kColumnBlock = 16;

/// The source columns go in ascending blocks of kColumnBlock, so each
/// entry's subtraction sequence is unchanged.
template <typename T, typename RowOf>
void update_rows(double* X, index_t R, const RowOf& row_of, index_t nr,
                 const T* P, index_t ld, index_t src, index_t nj) {
  for (index_t j0 = 0; j0 < nj; j0 += kColumnBlock) {
    const index_t jn = std::min(kColumnBlock, nj - j0);
    for_each_chunk(R, [&]<int W>(index_t c0) {
      constexpr int TR = W == 1 ? 8 : 16 / W;
      update_rows<W, TR>(X + c0, R, row_of, 0, nr, P + j0 * ld, ld, src + j0,
                         jn);
    });
  }
}

/// Backward gather of columns [c, nc) of one supernode,
///   X[seg + c] -= sum_t P[t + c*ld] * X[rows[t]]   (t ascending, from 0.0),
/// P pointing at the first update row of column 0. A wide chunk tiles TC
/// columns x W right-hand sides; a one-wide chunk runs its lanes over the
/// TC columns.
template <int W, int TC, typename T>
void gather_columns(double* X, index_t R, const index_t* rows, index_t m,
                    index_t seg, index_t c, index_t nc, const T* P,
                    index_t ld) {
  for (; c + TC <= nc; c += TC) {
    const T* pc = P + c * ld;
    if constexpr (W == 1 && TC > 1) {
      Pair acc[TC / 2] = {};
      for (index_t t = 0; t < m; ++t) {
        const Pair x = splat(X[rows[t] * R]);
#pragma GCC unroll 8
        for (int q = 0; q < TC / 2; ++q) {
          const Pair p{static_cast<double>(pc[t + 2 * q * ld]),
                       static_cast<double>(pc[t + (2 * q + 1) * ld])};
          acc[q] += p * x;
        }
      }
#pragma GCC unroll 8
      for (int q = 0; q < TC / 2; ++q) {
        X[(seg + c + 2 * q) * R] -= acc[q][0];
        X[(seg + c + 2 * q + 1) * R] -= acc[q][1];
      }
    } else {
      Chunk<W> acc[TC] = {};
      for (index_t t = 0; t < m; ++t) {
        const Chunk<W> v = Chunk<W>::load(X + rows[t] * R);
#pragma GCC unroll 8
        for (int l = 0; l < TC; ++l) {
          acc[l].add_product(static_cast<double>(pc[t + l * ld]), v);
        }
      }
#pragma GCC unroll 8
      for (int l = 0; l < TC; ++l) {
        Chunk<W> x = Chunk<W>::load(X + (seg + c + l) * R);
        x.sub(acc[l]);
        x.store(X + (seg + c + l) * R);
      }
    }
  }
  if constexpr (TC > 1) {
    gather_columns<W, TC / 2>(X, R, rows, m, seg, c, nc, P, ld);
  }
}

/// Apply the rows [t_begin, t_end) of one incoming run at its target: the
/// pull form of the serial sweep's scatter. Each target entry is touched
/// by exactly one run per source, and runs are applied sources ascending,
/// so every entry sees the serial subtraction sequence (source ascending,
/// then j ascending).
template <typename T>
void apply_run(const SymbolicFactor& sym, const std::vector<Matrix<T>>& panels,
               const SolveRun& run, double* X, index_t R) {
  const SupernodeInfo& src =
      sym.supernodes()[static_cast<std::size_t>(run.source)];
  const Matrix<T>& panel = panels[static_cast<std::size_t>(run.source)];
  const index_t kc = src.width();
  const index_t* rows = src.update_rows.data() + run.t_begin;
  update_rows(
      X, R, [rows](index_t r) { return rows[r]; }, run.t_end - run.t_begin,
      panel.data() + kc + run.t_begin, panel.rows(), src.first_col, kc);
}

/// Forward substitution against the pivot triangle, right-looking in blocks
/// of kColumnBlock columns: solve the block's own triangle, then subtract
/// its columns from every row below. Row i thus subtracts columns j < i in
/// ascending order and then divides by the diagonal — the serial sweep's
/// per-entry sequence.
template <typename T>
void pivot_forward(const SupernodeInfo& sn, const Matrix<T>& panel, double* X,
                   index_t R) {
  const index_t k = sn.width();
  const index_t fc = sn.first_col;
  const index_t ld = panel.rows();
  const T* P = panel.data();
  for (index_t b0 = 0; b0 < k; b0 += kColumnBlock) {
    const index_t b1 = std::min(k, b0 + kColumnBlock);
    for_each_chunk(R, [&]<int W>(index_t c0) {
      double* x = X + c0;
      for (index_t i = b0; i < b1; ++i) {
        Chunk<W> acc = Chunk<W>::load(x + (fc + i) * R);
        for (index_t j = b0; j < i; ++j) {
          acc.sub_product(static_cast<double>(P[i + j * ld]),
                          Chunk<W>::load(x + (fc + j) * R));
        }
        acc.divide(static_cast<double>(P[i + i * ld]));
        acc.store(x + (fc + i) * R);
      }
    });
    update_rows(
        X, R, [row = fc + b1](index_t r) { return row + r; }, k - b1,
        P + b1 + b0 * ld, ld, fc + b0, b1 - b0);
  }
}

/// seg[c_begin, c_end) -= L21(:, c_begin..c_end)^T * x[update_rows].
template <typename T>
void backward_gather(const SupernodeInfo& sn, const Matrix<T>& panel,
                     index_t c_begin, index_t c_end, double* X, index_t R) {
  const index_t k = sn.width();
  const index_t m = sn.num_update_rows();
  const index_t ld = panel.rows();
  for (index_t c0 = c_begin; c0 < c_end; c0 += kColumnBlock) {
    const index_t nc = std::min(kColumnBlock, c_end - c0);
    const T* P = panel.data() + k + c0 * ld;
    for_each_chunk(R, [&]<int W>(index_t r0) {
      constexpr int TC = W == 1 ? 8 : 16 / W;
      gather_columns<W, TC>(X + r0, R, sn.update_rows.data(), m,
                            sn.first_col + c0, 0, nc, P, ld);
    });
  }
}

/// Backward substitution against the pivot triangle. Column j's sum runs
/// i ascending over rows that must already be final, so columns go strictly
/// one after another; the lanes carry the right-hand sides.
template <typename T>
void pivot_backward(const SupernodeInfo& sn, const Matrix<T>& panel,
                    double* X, index_t R) {
  const index_t k = sn.width();
  const index_t fc = sn.first_col;
  const index_t ld = panel.rows();
  const T* P = panel.data();
  for_each_chunk(R, [&]<int W>(index_t c0) {
    double* x = X + c0;
    for (index_t j = k - 1; j >= 0; --j) {
      Chunk<W> acc = Chunk<W>::load(x + (fc + j) * R);
      for (index_t i = j + 1; i < k; ++i) {
        acc.sub_product(static_cast<double>(P[i + j * ld]),
                        Chunk<W>::load(x + (fc + i) * R));
      }
      acc.divide(static_cast<double>(P[j + j * ld]));
      acc.store(x + (fc + j) * R);
    }
  });
}

GraphDag graph_dag(const SolveSchedule::Dag& dag) {
  GraphDag g;
  g.succ_ptr = dag.succ_ptr;
  g.succ = dag.succ;
  g.num_deps = dag.num_deps;
  g.priority = dag.priority;
  return g;
}

/// One worker's pricing state. The numeric work is identical on every
/// backend; only where the virtual time is charged differs.
struct SolveWorker {
  SimClock clock;
  std::unique_ptr<Device> device;  ///< GpuSim backend only
};

template <typename T>
void run_sweeps(const SymbolicFactor& sym, const SolveSchedule& sched,
                const std::vector<Matrix<T>>& panels, double* X,
                index_t num_rhs, const ParallelSolveOptions& options,
                SolveStats& stats) {
  const index_t nsup = sched.num_supernodes;
  const int threads = std::max(1, options.threads);
  const bool gpu = options.backend == SolveBackend::GpuSim;

  std::vector<SolveWorker> workers(static_cast<std::size_t>(threads));
  if (gpu) {
    Device::Options device_options = options.device;
    device_options.numeric = false;  // pricing only; math stays on the host
    for (auto& w : workers) {
      w.device = std::make_unique<Device>(device_options);
    }
  }

  // Per-task virtual costs, precomputed so task bodies stay race-free.
  const std::vector<TaskWork> fwd_work = forward_work(sym, sched);
  const std::vector<TaskWork> bwd_work = backward_work(sym, sched);
  std::vector<TaskKernels> fwd_kernels, bwd_kernels;
  if (gpu) {
    const ProcessorModel& model = workers.front().device->model();
    fwd_kernels = forward_kernels(sym, sched, model, num_rhs);
    bwd_kernels = backward_kernels(sym, sched, model, num_rhs);
  }

  // Virtual completion time of each supernode's segment in the current
  // sweep. Written by the owning triangle node, read by dependents; the
  // pool's acquire-release completion counters order the accesses.
  std::vector<double> ready(static_cast<std::size_t>(nsup), 0.0);

  const TransferModel* transfer =
      gpu ? &workers.front().device->transfer() : nullptr;

  auto price_task = [&](index_t s, int w, const TaskWork& work,
                        const TaskKernels* kernels, double dep_ready) {
    SolveWorker& worker = workers[static_cast<std::size_t>(w)];
    if (!gpu) {
      worker.clock.advance_to(dep_ready);
      worker.clock.advance(host_task_seconds(work, num_rhs));
      ready[static_cast<std::size_t>(s)] = worker.clock.now();
      return;
    }
    // Kernel launches are asynchronous: the host pays the enqueues, the
    // compute stream runs the kernels once the dependencies' segments are
    // (virtually) available.
    worker.clock.advance(static_cast<double>(kernels->launches) *
                         transfer->kernel_enqueue);
    const double done = worker.device->compute_stream().enqueue(
        std::max(worker.clock.now(), dep_ready), kernels->seconds);
    ready[static_cast<std::size_t>(s)] = done;
  };

  auto fwd_body = [&](index_t v, int w) {
    const index_t s = sched.node_snode[static_cast<std::size_t>(v)];
    const index_t tri = sched.triangle_node(s);
    if (v != tri) {
      for (index_t i = sched.tile_run_ptr[static_cast<std::size_t>(v)];
           i < sched.tile_run_ptr[static_cast<std::size_t>(v) + 1]; ++i) {
        apply_run(sym, panels, sched.tile_runs[static_cast<std::size_t>(i)], X,
                  num_rhs);
      }
      return;
    }
    const bool tiled = tri != sched.node_ptr[static_cast<std::size_t>(s)];
    double dep_ready = 0.0;
    for (index_t i = sched.in_ptr[static_cast<std::size_t>(s)];
         i < sched.in_ptr[static_cast<std::size_t>(s) + 1]; ++i) {
      const SolveRun& run =
          sched.runs[static_cast<std::size_t>(
              sched.in_runs[static_cast<std::size_t>(i)])];
      dep_ready =
          std::max(dep_ready, ready[static_cast<std::size_t>(run.source)]);
      if (!tiled) apply_run(sym, panels, run, X, num_rhs);
    }
    pivot_forward(sym.supernodes()[static_cast<std::size_t>(s)],
                  panels[static_cast<std::size_t>(s)], X, num_rhs);
    price_task(s, w, fwd_work[static_cast<std::size_t>(s)],
               gpu ? &fwd_kernels[static_cast<std::size_t>(s)] : nullptr,
               dep_ready);
  };

  ThreadPool pool(threads);
  {
    obs::ScopedSpan span("solve", "forward_sweep");
    span.set_arg(0, "levels", sched.num_levels);
    pool.run_dag(graph_dag(sched.forward_dag), fwd_body);
  }
  double forward_done = 0.0;
  for (double t : ready) forward_done = std::max(forward_done, t);
  stats.forward_sim_seconds = forward_done;

  // A supernode's backward task re-reads its own forward segment, so its
  // earliest start also folds the forward completion time.
  const std::vector<double> fwd_ready = ready;

  auto bwd_body = [&](index_t v, int w) {
    const index_t s = sched.node_snode[static_cast<std::size_t>(v)];
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    const Matrix<T>& panel = panels[static_cast<std::size_t>(s)];
    const index_t first = sched.node_ptr[static_cast<std::size_t>(s)];
    const index_t tri = sched.triangle_node(s);
    if (v != tri) {
      const index_t c_begin = (v - first) * kTile;
      backward_gather(sn, panel, c_begin,
                      std::min(sn.width(), c_begin + kTile), X, num_rhs);
      return;
    }
    double dep_ready = fwd_ready[static_cast<std::size_t>(s)];
    for (index_t i = sched.out_ptr[static_cast<std::size_t>(s)];
         i < sched.out_ptr[static_cast<std::size_t>(s) + 1]; ++i) {
      dep_ready = std::max(
          dep_ready,
          ready[static_cast<std::size_t>(
              sched.runs[static_cast<std::size_t>(i)].target)]);
    }
    if (tri == first) backward_gather(sn, panel, 0, sn.width(), X, num_rhs);
    pivot_backward(sn, panel, X, num_rhs);
    price_task(s, w, bwd_work[static_cast<std::size_t>(s)],
               gpu ? &bwd_kernels[static_cast<std::size_t>(s)] : nullptr,
               dep_ready);
  };

  {
    obs::ScopedSpan span("solve", "backward_sweep");
    span.set_arg(0, "levels", sched.num_levels);
    pool.run_dag(graph_dag(sched.backward_dag), bwd_body);
  }
  double total = forward_done;
  for (double t : ready) total = std::max(total, t);
  stats.backward_sim_seconds = total - forward_done;
  stats.sim_seconds = total;
}

}  // namespace

Matrix<double> solve(const Analysis& analysis, const Factorization& factor,
                     const Matrix<double>& b, index_t num_rhs,
                     const ParallelSolveOptions& options, SolveStats* stats) {
  const SymbolicFactor& sym = analysis.symbolic;
  const index_t n = sym.n();
  MFGPU_CHECK(factor.numeric, "solve: factor has no numeric data");
  MFGPU_CHECK(factor.num_panels() == sym.num_supernodes(),
              "solve: factor does not match the analysis");
  MFGPU_CHECK(b.rows() == n, "solve: rhs row count mismatch");
  MFGPU_CHECK(num_rhs >= 1 && num_rhs <= b.cols(),
              "solve: num_rhs out of range");

  SolveSchedule local;
  const SolveSchedule* sched = options.schedule;
  if (sched == nullptr) {
    local = build_solve_schedule(sym);
    sched = &local;
  }
  MFGPU_CHECK(sched->num_supernodes == sym.num_supernodes(),
              "solve: schedule does not match the analysis");

  SolveStats run_stats;
  run_stats.levels = sched->num_levels;
  run_stats.num_rhs = num_rhs;
  run_stats.threads = std::max(1, options.threads);

  obs::ScopedSpan span("solve", "blocked_solve");
  span.set_arg(0, "rhs", num_rhs);
  span.set_arg(1, "threads", run_stats.threads);
  span.set_arg(2, "levels", sched->num_levels);

  // Permute into the RHS-contiguous block the sweeps run on (row i holds
  // the num_rhs values of permuted unknown i), and back out once at the end.
  const std::span<const index_t> new_of_old = analysis.perm.new_of_old();
  std::vector<double> block(static_cast<std::size_t>(n * num_rhs));
  for (index_t col = 0; col < num_rhs; ++col) {
    const double* in = b.data() + col * n;
    for (index_t i = 0; i < n; ++i) {
      block[static_cast<std::size_t>(
          new_of_old[static_cast<std::size_t>(i)] * num_rhs + col)] = in[i];
    }
  }

  if (factor.single_precision()) {
    run_sweeps(sym, *sched, factor.panels32, block.data(), num_rhs, options,
               run_stats);
  } else {
    run_sweeps(sym, *sched, factor.panels, block.data(), num_rhs, options,
               run_stats);
  }

  Matrix<double> x(n, num_rhs);
  for (index_t col = 0; col < num_rhs; ++col) {
    double* out = x.data() + col * n;
    for (index_t i = 0; i < n; ++i) {
      out[i] = block[static_cast<std::size_t>(
          new_of_old[static_cast<std::size_t>(i)] * num_rhs + col)];
    }
  }

  if (obs::enabled()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.increment("solve.calls");
    metrics.observe("solve.rhs", static_cast<double>(num_rhs));
    metrics.gauge_set("solve.levels", static_cast<double>(sched->num_levels));
    metrics.gauge_set("solve.threads",
                      static_cast<double>(run_stats.threads));
    metrics.add("solve.sim.forward_seconds", run_stats.forward_sim_seconds);
    metrics.add("solve.sim.backward_seconds", run_stats.backward_sim_seconds);
    metrics.add("solve.sim.seconds", run_stats.sim_seconds);
    metrics.add("solve.supernode_tasks",
                2.0 * static_cast<double>(sym.num_supernodes()));
  }
  if (stats != nullptr) *stats = run_stats;
  return x;
}

double estimated_solve_seconds(const SymbolicFactor& sym,
                               const SolveSchedule& schedule, index_t num_rhs,
                               int threads) {
  MFGPU_CHECK(num_rhs >= 1, "estimated_solve_seconds: num_rhs must be >= 1");
  MFGPU_CHECK(threads >= 1, "estimated_solve_seconds: threads must be >= 1");
  const double t = static_cast<double>(threads);
  double total = 0.0;
  for (const auto& work : {forward_work(sym, schedule),
                           backward_work(sym, schedule)}) {
    for (index_t l = 0; l < schedule.num_levels; ++l) {
      double level_sum = 0.0;
      double level_max = 0.0;
      for (index_t i = schedule.level_ptr[static_cast<std::size_t>(l)];
           i < schedule.level_ptr[static_cast<std::size_t>(l) + 1]; ++i) {
        const double cost = host_task_seconds(
            work[static_cast<std::size_t>(
                schedule.level_nodes[static_cast<std::size_t>(i)])],
            num_rhs);
        level_sum += cost;
        level_max = std::max(level_max, cost);
      }
      total += std::max(level_max, level_sum / t);
    }
  }
  return total;
}

}  // namespace mfgpu
