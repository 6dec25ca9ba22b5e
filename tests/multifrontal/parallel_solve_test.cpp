#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/solver.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "multifrontal/solve.hpp"
#include "ordering/minimum_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "policy/executors.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

struct SolveSetup {
  Analysis analysis;
  Factorization factor;
};

SolveSetup factorize_nd(const GridProblem& p) {
  Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  FactorizeResult result = factorize(an, p1, ctx);
  return SolveSetup{std::move(an), std::move(result.factor)};
}

SolveSetup factorize_mixed(const GridProblem& p, Device& device) {
  Analysis an = analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  PolicyExecutor p3(Policy::P3);
  FactorContext ctx;
  ctx.device = &device;
  FactorizeResult result = factorize(an, p3, ctx);
  return SolveSetup{std::move(an), std::move(result.factor)};
}

Matrix<double> make_block(index_t n, index_t cols) {
  Matrix<double> b(n, cols);
  for (index_t c = 0; c < cols; ++c) {
    for (index_t i = 0; i < n; ++i) {
      b(i, c) = 1.0 + 0.25 * static_cast<double>(c) +
                0.01 * static_cast<double>((i * 7 + c * 13) % 23);
    }
  }
  return b;
}

TEST(ParallelSolveTest, ScheduleInvariants) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  const SolveSetup s = factorize_nd(p);
  const SymbolicFactor& sym = s.analysis.symbolic;
  const SolveSchedule sched = build_solve_schedule(sym);

  ASSERT_EQ(sched.num_supernodes, sym.num_supernodes());
  ASSERT_GE(sched.num_levels, 1);

  // Levels: parents strictly above children, leaves at level 0.
  for (index_t sn = 0; sn < sched.num_supernodes; ++sn) {
    const index_t parent =
        sym.supernodes()[static_cast<std::size_t>(sn)].parent;
    if (parent != -1) {
      EXPECT_GT(sched.level_of[static_cast<std::size_t>(parent)],
                sched.level_of[static_cast<std::size_t>(sn)]);
    }
  }

  // level_nodes is a partition of the supernodes consistent with level_of,
  // and max_level_width is the widest level.
  ASSERT_EQ(sched.level_ptr.size(),
            static_cast<std::size_t>(sched.num_levels) + 1);
  EXPECT_EQ(sched.level_ptr.front(), 0);
  EXPECT_EQ(sched.level_ptr.back(), sched.num_supernodes);
  index_t widest = 0;
  std::vector<char> seen(static_cast<std::size_t>(sched.num_supernodes), 0);
  for (index_t l = 0; l < sched.num_levels; ++l) {
    widest = std::max(widest, sched.level_ptr[static_cast<std::size_t>(l) + 1] -
                                  sched.level_ptr[static_cast<std::size_t>(l)]);
    for (index_t i = sched.level_ptr[static_cast<std::size_t>(l)];
         i < sched.level_ptr[static_cast<std::size_t>(l) + 1]; ++i) {
      const index_t sn = sched.level_nodes[static_cast<std::size_t>(i)];
      EXPECT_EQ(sched.level_of[static_cast<std::size_t>(sn)], l);
      EXPECT_EQ(seen[static_cast<std::size_t>(sn)], 0);
      seen[static_cast<std::size_t>(sn)] = 1;
    }
  }
  EXPECT_EQ(sched.max_level_width, widest);

  // Runs: grouped by source with ascending targets; every run crosses a
  // level boundary upward; row ranges land inside the target's columns.
  ASSERT_EQ(sched.out_ptr.size(),
            static_cast<std::size_t>(sched.num_supernodes) + 1);
  for (index_t sn = 0; sn < sched.num_supernodes; ++sn) {
    index_t prev_target = -1;
    for (index_t i = sched.out_ptr[static_cast<std::size_t>(sn)];
         i < sched.out_ptr[static_cast<std::size_t>(sn) + 1]; ++i) {
      const SolveRun& run = sched.runs[static_cast<std::size_t>(i)];
      EXPECT_EQ(run.source, sn);
      EXPECT_GT(run.target, prev_target);
      prev_target = run.target;
      EXPECT_GT(sched.level_of[static_cast<std::size_t>(run.target)],
                sched.level_of[static_cast<std::size_t>(run.source)]);
      ASSERT_LT(run.t_begin, run.t_end);
      const SupernodeInfo& src =
          sym.supernodes()[static_cast<std::size_t>(sn)];
      const SupernodeInfo& dst =
          sym.supernodes()[static_cast<std::size_t>(run.target)];
      for (index_t t = run.t_begin; t < run.t_end; ++t) {
        const index_t row = src.update_rows[static_cast<std::size_t>(t)];
        EXPECT_GE(row, dst.first_col);
        EXPECT_LT(row, dst.last_col);  // last_col is one past the end
      }
    }
  }

  // Incoming lists: a permutation of the runs, sources ascending per
  // target (the order that reproduces the serial accumulation sequence).
  ASSERT_EQ(sched.in_runs.size(), sched.runs.size());
  std::vector<char> used(sched.runs.size(), 0);
  for (index_t t = 0; t < sched.num_supernodes; ++t) {
    index_t prev_source = -1;
    for (index_t i = sched.in_ptr[static_cast<std::size_t>(t)];
         i < sched.in_ptr[static_cast<std::size_t>(t) + 1]; ++i) {
      const index_t r = sched.in_runs[static_cast<std::size_t>(i)];
      EXPECT_EQ(used[static_cast<std::size_t>(r)], 0);
      used[static_cast<std::size_t>(r)] = 1;
      const SolveRun& run = sched.runs[static_cast<std::size_t>(r)];
      EXPECT_EQ(run.target, t);
      EXPECT_GT(run.source, prev_source);
      prev_source = run.source;
    }
  }
}

// The cached tiled sweep DAG: a supernode wider than one 64-column tile
// owns one tile node per tile ahead of its triangle node, and its row tiles
// cut every incoming run into consecutive pieces, sources ascending within
// each tile, so every target row is applied by exactly one tile.
TEST(ParallelSolveTest, TiledSweepDagCutsEveryIncomingRunOnce) {
  Rng rng(11);
  const GridProblem p = make_elasticity_3d(6, 6, 6, 3, rng);
  const Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  const SymbolicFactor& sym = an.symbolic;
  const SolveSchedule sched = build_solve_schedule(sym);
  const index_t nsup = sched.num_supernodes;
  ASSERT_EQ(sched.node_ptr.size(), static_cast<std::size_t>(nsup) + 1);
  const index_t nodes = sched.node_ptr.back();
  ASSERT_EQ(sched.node_snode.size(), static_cast<std::size_t>(nodes));
  ASSERT_EQ(sched.tile_run_ptr.size(), static_cast<std::size_t>(nodes) + 1);

  index_t tiled = 0;
  for (index_t s = 0; s < nsup; ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    const index_t first = sched.node_ptr[static_cast<std::size_t>(s)];
    const index_t tri = sched.triangle_node(s);
    const index_t tiles = tri - first;
    EXPECT_EQ(tiles, sn.width() > 64 ? (sn.width() + 63) / 64 : 0);
    if (tiles > 0) ++tiled;
    for (index_t v = first; v <= tri; ++v) {
      EXPECT_EQ(sched.node_snode[static_cast<std::size_t>(v)], s);
    }
    EXPECT_EQ(sched.tile_run_ptr[static_cast<std::size_t>(tri)],
              sched.tile_run_ptr[static_cast<std::size_t>(tri) + 1]);

    // Next uncovered update row of every incoming run, by source.
    std::vector<std::pair<index_t, index_t>> next;  // (source, t)
    for (index_t i = sched.in_ptr[static_cast<std::size_t>(s)];
         i < sched.in_ptr[static_cast<std::size_t>(s) + 1]; ++i) {
      const SolveRun& run = sched.runs[static_cast<std::size_t>(
          sched.in_runs[static_cast<std::size_t>(i)])];
      next.emplace_back(run.source, run.t_begin);
    }
    for (index_t v = first; v < tri; ++v) {
      const index_t row_begin = sn.first_col + (v - first) * 64;
      const index_t row_end = std::min(sn.last_col, row_begin + 64);
      index_t prev_source = -1;
      for (index_t i = sched.tile_run_ptr[static_cast<std::size_t>(v)];
           i < sched.tile_run_ptr[static_cast<std::size_t>(v) + 1]; ++i) {
        const SolveRun& cut = sched.tile_runs[static_cast<std::size_t>(i)];
        EXPECT_EQ(cut.target, s);
        EXPECT_GT(cut.source, prev_source);
        prev_source = cut.source;
        auto it = std::find_if(next.begin(), next.end(), [&](const auto& e) {
          return e.first == cut.source;
        });
        ASSERT_NE(it, next.end());
        EXPECT_EQ(cut.t_begin, it->second);
        it->second = cut.t_end;
        const auto& rows =
            sym.supernodes()[static_cast<std::size_t>(cut.source)].update_rows;
        for (index_t t = cut.t_begin; t < cut.t_end; ++t) {
          EXPECT_GE(rows[static_cast<std::size_t>(t)], row_begin);
          EXPECT_LT(rows[static_cast<std::size_t>(t)], row_end);
        }
      }
    }
    if (tiles > 0) {
      std::size_t k = 0;
      for (index_t i = sched.in_ptr[static_cast<std::size_t>(s)];
           i < sched.in_ptr[static_cast<std::size_t>(s) + 1]; ++i, ++k) {
        EXPECT_EQ(next[k].second,
                  sched.runs[static_cast<std::size_t>(
                                 sched.in_runs[static_cast<std::size_t>(i)])]
                      .t_end);
      }
    }
  }
  EXPECT_GT(tiled, 0);

  for (const SolveSchedule::Dag* dag :
       {&sched.forward_dag, &sched.backward_dag}) {
    ASSERT_EQ(dag->succ_ptr.size(), static_cast<std::size_t>(nodes) + 1);
    ASSERT_EQ(dag->num_deps.size(), static_cast<std::size_t>(nodes));
    ASSERT_EQ(dag->priority.size(), static_cast<std::size_t>(nodes));
    index_t deps = 0;
    for (index_t d : dag->num_deps) deps += d;
    EXPECT_EQ(static_cast<std::size_t>(deps), dag->succ.size());
  }
}

SolveSetup factorize_nd_precision(const GridProblem& p,
                                  FactorPrecision precision) {
  Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  FactorizeOptions options;
  options.precision = precision;
  FactorizeResult result = factorize(an, p1, ctx, options);
  return SolveSetup{std::move(an), std::move(result.factor)};
}

// The heart of the determinism claim: the parallel blocked solve is
// bitwise identical to the serial sweeps at every thread count, for both
// double and float panel storage, on both pricing backends, at every block
// width — so each SIMD chunk width (8, 4, 2, 1) and every remainder runs.
// The setups cover an ND Laplacian, a minimum-degree elasticity factor from
// the P3 device path, and a 6x6x6 elasticity grid whose ND root separator
// is wider than one intra-supernode tile, so the tiled forward/backward
// nodes run too.
TEST(ParallelSolveTest, BitwiseMatchesSerialAcrossThreadsAndBackends) {
  Rng rng(11);
  const GridProblem p = make_elasticity_3d(3, 3, 2, 3, rng);
  const GridProblem wide = make_elasticity_3d(6, 6, 6, 3, rng);
  Device device;
  const SolveSetup setups[] = {
      factorize_nd(make_laplacian_3d(6, 5, 4)), factorize_mixed(p, device),
      factorize_nd_precision(wide, FactorPrecision::Float64),
      factorize_nd_precision(wide, FactorPrecision::Float32)};
  ASSERT_FALSE(setups[2].factor.single_precision());
  ASSERT_TRUE(setups[3].factor.single_precision());

  // The 6x6x6 schedule has a supernode split into tile nodes.
  const SolveSchedule wide_sched =
      build_solve_schedule(setups[2].analysis.symbolic);
  index_t most_nodes = 0;
  for (index_t s = 0; s < wide_sched.num_supernodes; ++s) {
    most_nodes = std::max(
        most_nodes, wide_sched.node_ptr[static_cast<std::size_t>(s) + 1] -
                        wide_sched.node_ptr[static_cast<std::size_t>(s)]);
  }
  ASSERT_GT(most_nodes, 1) << "no supernode spans more than one solve tile";

  const index_t kMaxRhs = 17;
  for (const SolveSetup& s : setups) {
    const index_t n = s.analysis.symbolic.n();
    const Matrix<double> b = make_block(n, kMaxRhs);
    std::vector<std::vector<double>> serial;
    for (index_t c = 0; c < kMaxRhs; ++c) {
      serial.push_back(solve(s.analysis, s.factor,
                             std::span<const double>(
                                 b.data() + c * n, static_cast<std::size_t>(n))));
    }
    for (index_t num_rhs : {1, 2, 3, 4, 5, 7, 8, 9, 16, 17}) {
      for (int threads : {1, 2, 4, 8}) {
        for (SolveBackend backend :
             {SolveBackend::Host, SolveBackend::GpuSim}) {
          ParallelSolveOptions options;
          options.threads = threads;
          options.backend = backend;
          const Matrix<double> x =
              solve(s.analysis, s.factor, b, num_rhs, options);
          for (index_t c = 0; c < num_rhs; ++c) {
            for (index_t i = 0; i < n; ++i) {
              ASSERT_EQ(x(i, c), serial[static_cast<std::size_t>(c)]
                                       [static_cast<std::size_t>(i)])
                  << "n=" << n << " rhs=" << num_rhs << " threads=" << threads
                  << " backend="
                  << (backend == SolveBackend::Host ? "host" : "gpu")
                  << " float_panels=" << s.factor.single_precision()
                  << " col=" << c << " row=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(ParallelSolveTest, BlockedSolveMatchesPerColumn) {
  const GridProblem p = make_laplacian_3d(5, 5, 4);
  const SolveSetup s = factorize_nd(p);
  const index_t n = s.analysis.symbolic.n();
  const index_t kRhs = 5;
  const Matrix<double> b = make_block(n, kRhs);

  ParallelSolveOptions options;
  options.threads = 4;
  const Matrix<double> x = solve(s.analysis, s.factor, b, kRhs, options);

  for (index_t c = 0; c < kRhs; ++c) {
    const std::vector<double> col = solve(
        s.analysis, s.factor,
        std::span<const double>(b.data() + c * n, static_cast<std::size_t>(n)));
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(x(i, c), col[static_cast<std::size_t>(i)])
          << "col=" << c << " row=" << i;
    }
  }
}

TEST(ParallelSolveTest, SingleThreadMakespanMatchesSerialEstimate) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  const SolveSetup s = factorize_nd(p);
  const SymbolicFactor& sym = s.analysis.symbolic;
  const index_t n = sym.n();
  const index_t kRhs = 3;
  const Matrix<double> b = make_block(n, kRhs);

  ParallelSolveOptions options;
  options.threads = 1;
  SolveStats stats;
  solve(s.analysis, s.factor, b, kRhs, options, &stats);

  // On one thread the sweeps execute back to back, so the virtual makespan
  // must reproduce the serial streaming estimate (up to summation order).
  const double expected = estimated_solve_seconds(sym, kRhs);
  EXPECT_NEAR(stats.sim_seconds, expected, 1e-9 * expected);
  EXPECT_EQ(stats.levels, build_solve_schedule(sym).num_levels);
  EXPECT_EQ(stats.num_rhs, kRhs);
  EXPECT_GT(stats.forward_sim_seconds, 0.0);
  EXPECT_GT(stats.backward_sim_seconds, 0.0);
}

TEST(ParallelSolveTest, EstimateOverloadsAgree) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  const SolveSetup s = factorize_nd(p);
  const SymbolicFactor& sym = s.analysis.symbolic;
  const SolveSchedule sched = build_solve_schedule(sym);

  // The single-rhs overload IS the blocked estimate at width 1 — one shared
  // implementation, exact equality.
  EXPECT_EQ(estimated_solve_seconds(sym), estimated_solve_seconds(sym, 1));

  // The leveled estimate on one thread degenerates to the serial stream.
  const double serial16 = estimated_solve_seconds(sym, 16);
  const double leveled1 = estimated_solve_seconds(sym, sched, 16, 1);
  EXPECT_NEAR(leveled1, serial16, 1e-9 * serial16);

  // More threads never make the leveled estimate slower, and the critical
  // path keeps it positive.
  double prev = leveled1;
  for (int threads : {2, 4, 8, 64}) {
    const double est = estimated_solve_seconds(sym, sched, 16, threads);
    EXPECT_LE(est, prev);
    EXPECT_GT(est, 0.0);
    prev = est;
  }

  // Blocking wins: one 16-wide pass streams the panels once, far cheaper
  // than 16 single-rhs passes.
  EXPECT_LT(serial16, 16.0 * estimated_solve_seconds(sym, 1));
}

TEST(ParallelSolveTest, BlockedRefinementMatchesScalarPerColumn) {
  Rng rng(13);
  const GridProblem p = make_elasticity_3d(3, 3, 2, 3, rng);
  Device device;
  const SolveSetup s = factorize_mixed(p, device);
  const index_t n = s.analysis.symbolic.n();
  // 8 + 2 + 1: the blocked residual's every SIMD chunk width.
  const index_t kRhs = 11;
  const Matrix<double> b = make_block(n, kRhs);

  ParallelSolveOptions options;
  options.threads = 2;
  const BlockRefineResult block =
      solve_with_refinement(p.matrix, s.analysis, s.factor, b, 5, 1e-14,
                            options);
  ASSERT_EQ(block.residual_norms.size(), static_cast<std::size_t>(kRhs));
  ASSERT_EQ(block.iterations.size(), static_cast<std::size_t>(kRhs));

  for (index_t c = 0; c < kRhs; ++c) {
    const RefineResult scalar = solve_with_refinement(
        p.matrix, s.analysis, s.factor,
        std::span<const double>(b.data() + c * n, static_cast<std::size_t>(n)),
        5, 1e-14, options);
    EXPECT_EQ(block.iterations[static_cast<std::size_t>(c)], scalar.iterations);
    ASSERT_EQ(block.residual_norms[static_cast<std::size_t>(c)].size(),
              scalar.residual_norms.size());
    for (std::size_t i = 0; i < scalar.residual_norms.size(); ++i) {
      EXPECT_EQ(block.residual_norms[static_cast<std::size_t>(c)][i],
                scalar.residual_norms[i]);
    }
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(block.x(i, c), scalar.x[static_cast<std::size_t>(i)])
          << "col=" << c << " row=" << i;
    }
    // The blocked residual pass reproduces residual_norm bitwise.
    EXPECT_EQ(block.residual_norms[static_cast<std::size_t>(c)].back(),
              residual_norm(p.matrix, scalar.x,
                            std::span<const double>(
                                b.data() + c * n, static_cast<std::size_t>(n))));
  }
}

TEST(ParallelSolveTest, SolverSolveThreadsIsBitwiseInvariant) {
  const GridProblem p = make_laplacian_3d(5, 4, 4);
  std::vector<double> b(static_cast<std::size_t>(p.matrix.n()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.01 * static_cast<double>(i % 17);
  }

  SolverOptions serial_options;
  const Solver serial(p.matrix, serial_options);
  const std::vector<double> x1 = serial.solve(b);

  SolverOptions threaded_options;
  threaded_options.solve_threads = 4;
  const Solver threaded(p.matrix, threaded_options);
  const std::vector<double> x4 = threaded.solve(b);

  ASSERT_EQ(x1.size(), x4.size());
  for (std::size_t i = 0; i < x1.size(); ++i) {
    ASSERT_EQ(x1[i], x4[i]) << "row=" << i;
  }

  // Multi-RHS facade path too.
  const index_t n = p.matrix.n();
  const Matrix<double> rhs = make_block(n, 3);
  const Matrix<double> b1 = serial.solve(rhs);
  const Matrix<double> b4 = threaded.solve(rhs);
  for (index_t c = 0; c < 3; ++c) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(b1(i, c), b4(i, c)) << "col=" << c << " row=" << i;
    }
  }
}

}  // namespace
}  // namespace mfgpu
