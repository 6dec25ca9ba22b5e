#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "closed_loop.hpp"
#include "core/solver.hpp"
#include "kernel_replay.hpp"
#include "multifrontal/parallel.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "obs/obs.hpp"
#include "ordering/minimum_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "policy/baseline_hybrid.hpp"
#include "serve/service.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"
#include "timing_executor.hpp"

namespace perfbench {

namespace {

using mfgpu::index_t;
using mfgpu::Matrix;
using mfgpu::Rng;
using mfgpu::SolverMode;
using mfgpu::SolverOptions;
using mfgpu::SparseSpd;

constexpr index_t kRhs = 16;              ///< right-hand sides per solve
constexpr double kResidualBar = 1e-10;    ///< relative residual per column
constexpr int kMinSteps = 5;              ///< samples behind every median
constexpr int kColdRuns = 8;              ///< cold one-shots per run
constexpr int kSetupRuns = 20;            ///< set-ups per run, besides colds
constexpr int kServeSetupRuns = 5;        ///< set-ups each side of the loop
constexpr int kServeDirectRepeats = 3;    ///< warm direct factor + solve runs

// Serve traffic, shaped like the repository's examples/serve_demo.cpp: each
// pattern is submitted under 3 value sets with 4 right-hand sides each, to 2
// sessions that batch up to 4 rhs, and all 24 of its requests are in flight
// at once.
constexpr int kServeValueSets = 3;        ///< value sets per serve pattern
constexpr int kServeRhsPerSet = 4;        ///< requests per value set
constexpr index_t kServeBatchRhs = 4;     ///< ServeOptions::max_batch_rhs
constexpr int kServeOutstanding = 24;     ///< closed-loop requests in flight

// Problem sizes. The elasticity grid is the paper's matrix class at a size
// whose factor + 16-rhs solve step takes about 0.5 s on the 4 workers of a
// 4-core Xeon host, so one run holds enough steps for a steady median.
constexpr index_t kElasticGrid = 14;
// Serve patterns: small 3-D elasticity grids of similar size (n = 1 920 to
// 2 100; factor costs within 1.6x).
constexpr std::array<std::array<index_t, 3>, 3> kServeGrids = {
    {{8, 8, 10}, {8, 9, 9}, {7, 10, 10}}};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- inputs --

std::span<const double> column(const Matrix<double>& m, index_t j) {
  return {m.data() + j * m.rows(), static_cast<std::size_t>(m.rows())};
}

std::span<double> column(Matrix<double>& m, index_t j) {
  return {m.data() + j * m.rows(), static_cast<std::size_t>(m.rows())};
}

Matrix<double> random_block(index_t n, index_t cols, Rng& rng) {
  Matrix<double> x(n, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (double& v : column(x, j)) v = rng.uniform(-1.0, 1.0);
  }
  return x;
}

/// B = A X, column by column.
Matrix<double> times(const SparseSpd& a, const Matrix<double>& x) {
  Matrix<double> b(x.rows(), x.cols());
  for (index_t j = 0; j < x.cols(); ++j) a.multiply(column(x, j), column(b, j));
  return b;
}

double norm2(std::span<const double> v) {
  double sum = 0.0;
  for (double e : v) sum += e * e;
  return std::sqrt(sum);
}

/// Largest relative residual ||b - A x|| / ||b|| over the columns.
double worst_residual(const SparseSpd& a, const Matrix<double>& x,
                      const Matrix<double>& b) {
  double worst = 0.0;
  for (index_t j = 0; j < b.cols(); ++j) {
    const double rel = mfgpu::residual_norm(a, column(x, j), column(b, j)) /
                       norm2(column(b, j));
    worst = std::isfinite(rel) ? std::max(worst, rel) : INFINITY;
  }
  return worst;
}

// ------------------------------------------------------ layered pipeline --
// The calls Solver makes, composed from the public layer APIs so each one
// can be timed and traced on its own.

mfgpu::Permutation order(const SparseSpd& a, const SolverOptions& options,
                         std::span<const std::array<index_t, 3>> coords) {
  if (options.ordering == mfgpu::OrderingChoice::NestedDissection) {
    return mfgpu::nested_dissection(coords);
  }
  return mfgpu::minimum_degree(mfgpu::build_graph(a));
}

int worker_count(const SolverOptions& options) {
  return options.workers.empty() ? std::max(1, options.num_threads)
                                 : static_cast<int>(options.workers.size());
}

/// Numeric factorization exactly as Solver builds it for the workloads'
/// configurations (BaselineHybrid on one thread or on a worker list), with
/// every executor wrapped in the decorator.
mfgpu::FactorizeResult layered_factorize(const mfgpu::Analysis& analysis,
                                         const SolverOptions& options,
                                         std::vector<FuLedger>& ledgers) {
  const bool parallel = !options.workers.empty() || options.num_threads > 1;
  MFGPU_CHECK(options.mode == SolverMode::BaselineHybrid,
              "perfbench: unsupported solver configuration");
  ledgers.assign(static_cast<std::size_t>(worker_count(options)), FuLedger{});
  if (parallel) {
    mfgpu::ParallelFactorizeOptions parallel_options;
    parallel_options.num_threads = options.num_threads;
    parallel_options.workers = options.workers;
    parallel_options.deterministic_reduction = options.deterministic_reduction;
    parallel_options.numeric.batching = options.batching;
    parallel_options.executor = options.executor;
    parallel_options.device = options.device;
    mfgpu::obs::ScopedSpan span("perfbench", "factorize_parallel");
    // The driver's default executors are what Solver uses in this mode.
    return mfgpu::factorize_parallel(
        analysis, parallel_options, timed_factory(options.executor, ledgers));
  }
  TimingExecutor executor(
      std::make_unique<mfgpu::DispatchExecutor>(mfgpu::make_baseline_hybrid(
          mfgpu::paper_thresholds(), options.executor)),
      ledgers.front());
  mfgpu::Device::Options device_options = options.device;
  device_options.numeric = true;
  mfgpu::Device device(device_options);
  mfgpu::FactorContext ctx;
  ctx.device = &device;
  mfgpu::FactorizeOptions factorize_options;
  factorize_options.batching = options.batching;
  mfgpu::obs::ScopedSpan span("perfbench", "factorize", &ctx.host_clock);
  return mfgpu::factorize(analysis, executor, ctx, factorize_options);
}

/// One pattern's analysis in the layered pipeline.
struct LayeredPattern {
  std::optional<mfgpu::Analysis> analysis;
  mfgpu::SolveSchedule schedule;
  double ordering_s = 0.0;
  double symbolic_s = 0.0;
};

LayeredPattern layered_analyze(const SparseSpd& a, const SolverOptions& options,
                               std::span<const std::array<index_t, 3>> coords) {
  LayeredPattern pattern;
  Clock::time_point t0 = Clock::now();
  mfgpu::Permutation perm = [&] {
    mfgpu::obs::ScopedSpan span("perfbench", "ordering");
    return order(a, options, coords);
  }();
  pattern.ordering_s = seconds_since(t0);
  t0 = Clock::now();
  {
    mfgpu::obs::ScopedSpan span("perfbench", "symbolic");
    pattern.analysis.emplace(mfgpu::analyze(a, perm, options.analysis));
  }
  pattern.symbolic_s = seconds_since(t0);
  // Solver builds this level schedule on its first solve and keeps it.
  pattern.schedule = mfgpu::build_solve_schedule(pattern.analysis->symbolic);
  return pattern;
}

/// Everything one traced step measured.
struct LayeredStep {
  int pattern = 0;
  double step_s = 0.0;       ///< value permutation + factorize + refined solve
  double factorize_s = 0.0;
  int workers = 1;
  std::vector<FuLedger> fu;
  mfgpu::PoolRunStats pool;
  std::int64_t arena_peak_bytes = 0;
  std::int64_t factor_bytes = 0;
  double sim_s = 0.0;
  double sweep_s = 0.0;      ///< one bare blocked forward + backward pass
  double refined_s = 0.0;
  int refine_steps = 0;      ///< most refinement steps over the columns
};

LayeredStep layered_step(LayeredPattern& pattern, const SparseSpd& a,
                         bool permute_values, const Matrix<double>& b,
                         const SolverOptions& options, Ledger& ledger,
                         std::vector<mfgpu::FuCallRecord>* calls) {
  LayeredStep step;
  step.workers = worker_count(options);
  mfgpu::Analysis& analysis = *pattern.analysis;
  const Clock::time_point t0 = Clock::now();
  if (permute_values) {
    mfgpu::obs::ScopedSpan span("perfbench", "permute_values");
    analysis.permuted = a.permuted(analysis.perm.new_of_old());
  }
  const Clock::time_point f0 = Clock::now();
  mfgpu::FactorizeResult result = layered_factorize(analysis, options, step.fu);
  step.factorize_s = seconds_since(f0);
  const double numeric_s = seconds_since(t0);

  mfgpu::ParallelSolveOptions solve_options;
  solve_options.threads = std::max(1, options.solve_threads);
  solve_options.schedule = &pattern.schedule;
  Clock::time_point s0 = Clock::now();
  {
    mfgpu::obs::ScopedSpan span("perfbench", "blocked_solve");
    const Matrix<double> sweep =
        mfgpu::solve(analysis, result.factor, b, b.cols(), solve_options);
  }
  step.sweep_s = seconds_since(s0);
  s0 = Clock::now();
  mfgpu::BlockRefineResult refined = [&] {
    mfgpu::obs::ScopedSpan span("perfbench", "solve_with_refinement");
    return mfgpu::solve_with_refinement(
        a, analysis, result.factor, b, options.max_refinement_steps,
        options.refinement_tolerance, solve_options);
  }();
  step.refined_s = seconds_since(s0);
  step.step_s = numeric_s + step.refined_s;

  for (int it : refined.iterations) step.refine_steps = std::max(step.refine_steps, it);
  step.pool = std::move(result.pool_stats);
  for (const mfgpu::WorkerMemory& m : result.memory) {
    step.arena_peak_bytes += m.arena_peak_bytes;
  }
  step.factor_bytes = result.factor.storage_bytes();
  step.sim_s = result.trace.total_time;
  ledger.check(matches_trace(step.fu, result.trace),
               "F-U decorator totals differ from the factorization trace");
  const double residual = worst_residual(a, refined.x, b);
  ledger.check(residual <= kResidualBar,
               "traced refined solve residual " + std::to_string(residual));
  if (calls != nullptr) *calls = std::move(result.trace.calls);
  return step;
}

/// Drops the spans and policy decisions one traced step recorded, so a
/// long traced run holds one step's worth of trace in memory.
void clear_recorded() {
  mfgpu::obs::TraceSession::global().clear();
  mfgpu::obs::DecisionLog::global().clear();
}

mfgpu::obs::ObsConfig recording_config() {
  mfgpu::obs::ObsConfig config;
  config.record = true;
  return config;
}

/// Per-layer metrics from the traced steps. Numeric-phase figures come from
/// the step with the median factorize wall, so they telescope exactly:
///   fu.wall_s + prepare.wall_s + assembly.wall_s + sched.idle_s
///     == factorize.wall_s * workers
/// (one worker and no pool idle time on the one-thread driver).
void report_layers(const std::vector<LayeredStep>& steps,
                   const std::vector<std::vector<mfgpu::FuCallRecord>>& calls,
                   Ledger& ledger) {
  std::vector<double> factorize_s, sweep_s, refine_s, refine_steps;
  for (const LayeredStep& s : steps) {
    factorize_s.push_back(s.factorize_s);
    sweep_s.push_back(s.sweep_s);
    refine_steps.push_back(s.refine_steps);
    refine_s.push_back(s.refined_s - (1.0 + s.refine_steps) * s.sweep_s);
  }
  const LayeredStep& mid = steps[median_index(factorize_s)];
  const FuClassTotals fu = sum_totals(mid.fu, false);
  const FuClassTotals gpu = sum_totals(mid.fu, true);
  double prepare_s = 0.0;
  for (const FuLedger& l : mid.fu) prepare_s += l.prepare_wall_s;
  double idle_s = 0.0, busy_s = 0.0, pool_wall_s = 0.0;
  for (double v : mid.pool.idle_seconds) idle_s += v;
  for (double v : mid.pool.busy_seconds) busy_s += v;
  for (double v : mid.pool.wall_seconds) pool_wall_s += v;
  const double worker_s = mid.factorize_s * mid.workers;
  const double assembly_s = worker_s - fu.wall_s - prepare_s - idle_s;

  ledger.add("factorize.wall_s", mid.factorize_s, "s");
  ledger.add("assembly.wall_s", assembly_s, "s");
  ledger.add("prepare.wall_s", prepare_s, "s");
  ledger.add("mem.arena_peak_bytes", static_cast<double>(mid.arena_peak_bytes),
             "bytes");
  ledger.add("factor.bytes", static_cast<double>(mid.factor_bytes), "bytes");
  ledger.add("fu.calls", static_cast<double>(fu.calls), "count");
  ledger.add("fu.wall_s", fu.wall_s, "s");
  ledger.add("fu.gflops", fu.wall_s > 0 ? fu.flops / fu.wall_s * 1e-9 : 0.0,
             "GF/s");
  ledger.add("fu.host_over_model", fu.sim_s > 0 ? fu.wall_s / fu.sim_s : 0.0,
             "ratio");
  ledger.add("gpusim.calls", static_cast<double>(gpu.calls), "count");
  ledger.add("gpusim.wall_s", gpu.wall_s, "s");
  ledger.add("gpusim.gflops",
             gpu.wall_s > 0 ? gpu.flops / gpu.wall_s * 1e-9 : 0.0, "GF/s");
  ledger.add("gpusim.sim_s", gpu.sim_s, "sim_s");
  const std::int64_t steals = mid.pool.total_steals();
  const std::int64_t failed_steals = mid.pool.total_failed_steals();
  ledger.add("sched.utilization", pool_wall_s > 0 ? busy_s / pool_wall_s : 0.0,
             "ratio");
  ledger.add("sched.idle_s", idle_s, "s");
  ledger.add("sched.steals", static_cast<double>(steals), "count");
  ledger.add("sched.failed_steal_ratio",
             steals + failed_steals > 0
                 ? static_cast<double>(failed_steals) /
                       static_cast<double>(steals + failed_steals)
                 : 0.0,
             "ratio");
  const double sweep = median(sweep_s);
  ledger.add("solve.sweep_s", sweep, "s");
  // Each sweep streams every factor panel twice (forward, then backward);
  // the byte count is computed from panel sizes, not measured traffic.
  ledger.add("solve.computed_gbps",
             sweep > 0 ? 2.0 * static_cast<double>(mid.factor_bytes) / sweep * 1e-9
                       : 0.0,
             "GB/s");
  ledger.add("refine.steps", median(refine_steps), "count");
  ledger.add("refine.wall_s", median(refine_s), "s");

  const KernelReplay replay =
      replay_kernels(calls.at(static_cast<std::size_t>(mid.pattern)));
  ledger.check(replay.ok, "kernel replay produced non-finite values");
  ledger.add("dense.potrf.gflops", replay.potrf.gflops(), "GF/s");
  ledger.add("dense.trsm.gflops", replay.trsm.gflops(), "GF/s");
  ledger.add("dense.syrk.gflops", replay.syrk.gflops(), "GF/s");
  ledger.add("dense.potrf.model_gflops", replay.potrf.model_gflops(), "GF/s");
  ledger.add("dense.trsm.model_gflops", replay.trsm.model_gflops(), "GF/s");
  ledger.add("dense.syrk.model_gflops", replay.syrk.model_gflops(), "GF/s");
  std::printf(
      "telescoping: fu %.6f + prepare %.6f + assembly %.6f + idle %.6f = "
      "%.6f s = factorize %.6f s x %d worker(s)\n",
      fu.wall_s, prepare_s, assembly_s, idle_s,
      fu.wall_s + prepare_s + assembly_s + idle_s, mid.factorize_s,
      mid.workers);
  std::printf(
      "dense replay (GF/s host vs xeon5160 model): potrf %.3f vs %.3f, "
      "trsm %.3f vs %.3f, syrk %.3f vs %.3f\n",
      replay.potrf.gflops(), replay.potrf.model_gflops(), replay.trsm.gflops(),
      replay.trsm.model_gflops(), replay.syrk.gflops(),
      replay.syrk.model_gflops());
}

/// Workloads that bypass the serving layer read 0 for its metrics (every
/// traced run reports the full per-layer list).
void report_absent_serve(Ledger& ledger) {
  ledger.add("serve.submit_s", 0.0, "s");
  ledger.add("serve.batch_width", 0.0, "count");
  ledger.add("serve.analysis_hit_ratio", 0.0, "ratio");
  ledger.add("serve.factor_reuse_ratio", 0.0, "ratio");
  ledger.add("serve.retries", 0.0, "count");
}

void report_failures(Ledger& ledger) {
  ledger.add("fail_ratio",
             static_cast<double>(ledger.failed()) /
                 static_cast<double>(std::max<std::int64_t>(1, ledger.attempted())),
             "ratio");
}

// ------------------------------------------------- elastic3d-2c2g steps --

struct StepWorkload {
  mfgpu::GridProblem grid;
  SolverOptions options;
};

/// Table VII's 2 threads + 2 GPUs on the paper's matrix class: workers
/// c c g g under BaselineHybrid dispatch, 4 solve threads.
StepWorkload make_step_workload(std::uint64_t seed) {
  StepWorkload w;
  Rng rng(mix_seed(seed, 1));
  w.grid = mfgpu::make_elasticity_3d(kElasticGrid, kElasticGrid, kElasticGrid,
                                     3, rng);
  w.options.ordering = mfgpu::OrderingChoice::NestedDissection;
  w.options.coordinates = w.grid.coords;
  w.options.mode = SolverMode::BaselineHybrid;
  w.options.workers = {{false}, {false}, {true}, {true}};
  w.options.solve_threads = 4;
  return w;
}

/// The right-hand sides every step solves: A times seeded known solutions.
Matrix<double> step_rhs(const StepWorkload& w, std::uint64_t seed) {
  Rng rng(mix_seed(seed, 3));
  return times(w.grid.matrix, random_block(w.grid.matrix.n(), kRhs, rng));
}

struct SolverSteps {
  std::vector<double> factor_s, solve_s, step_s, sim_s;
  double measured_s = 0.0;
};

/// The step loop through the user API: factor() then one refined 16-rhs
/// solve per step. `between` runs untimed after each step, given the
/// seconds measured so far.
SolverSteps run_solver_steps(
    const StepWorkload& w, mfgpu::Solver& solver, const Matrix<double>& b,
    double seconds, Ledger& ledger,
    const std::function<void(double)>& between = {}) {
  SolverSteps out;
  while (out.measured_s < seconds ||
         static_cast<int>(out.step_s.size()) < kMinSteps) {
    const Clock::time_point t0 = Clock::now();
    solver.factor();
    const Clock::time_point t1 = Clock::now();
    const Matrix<double> x = solver.solve(b);
    const Clock::time_point t2 = Clock::now();
    out.factor_s.push_back(seconds_between(t0, t1));
    out.solve_s.push_back(seconds_between(t1, t2));
    out.step_s.push_back(seconds_between(t0, t2));
    out.sim_s.push_back(solver.factor_time());
    out.measured_s += seconds_between(t0, t2);
    const double residual = worst_residual(w.grid.matrix, x, b);
    ledger.check(residual <= kResidualBar,
                 "refined solve residual " + std::to_string(residual));
    if (between) between(out.measured_s);
  }
  return out;
}

void run_step_untraced(const StepWorkload& w, const Matrix<double>& b,
                       double seconds, Ledger& ledger) {
  const SparseSpd& a = w.grid.matrix;
  std::vector<double> setup_s, tts_s;
  int extra_setups = 0;
  // Set-up: ordering + symbolic analysis.
  auto set_up = [&]() -> mfgpu::Solver {
    const Clock::time_point t0 = Clock::now();
    mfgpu::Solver solver = mfgpu::Solver::analyze(a, w.options);
    setup_s.push_back(seconds_since(t0));
    return solver;
  };
  auto extra_set_up = [&] {
    set_up();
    ++extra_setups;
  };
  // Cold one-shot: set-up, first factor, first refined 16-rhs solve.
  auto cold = [&] {
    const Clock::time_point t0 = Clock::now();
    mfgpu::Solver solver = set_up();
    solver.factor();
    const Matrix<double> x = solver.solve(b);
    tts_s.push_back(seconds_since(t0));
    const double residual = worst_residual(a, x, b);
    ledger.check(residual <= kResidualBar,
                 "cold solve residual " + std::to_string(residual));
  };
  // Cold one-shots and extra set-ups are evenly spaced in measured time,
  // so their medians see the same machine conditions as the steps do.
  auto between = [&](double measured_s) {
    const auto colds = static_cast<double>(tts_s.size());
    if (colds < kColdRuns && measured_s >= colds * seconds / kColdRuns) {
      cold();
    } else if (extra_setups < kSetupRuns &&
               measured_s >= extra_setups * seconds / kSetupRuns) {
      extra_set_up();
    }
  };

  mfgpu::Solver solver = mfgpu::Solver::analyze(a, w.options);
  const SolverSteps steps =
      run_solver_steps(w, solver, b, seconds, ledger, between);
  while (static_cast<int>(tts_s.size()) < kColdRuns) cold();
  while (extra_setups < kSetupRuns) extra_set_up();
  const TailPercentile tail = tail_percentile(steps.step_s);
  std::printf("steps: %zu in %.3f s; step latency tail at p%.1f\n",
              steps.step_s.size(), steps.measured_s, tail.percentile);

  ledger.add("setup_s", median(setup_s), "s");
  ledger.add("factor_s", median(steps.factor_s), "s");
  ledger.add("solve_s", median(steps.solve_s), "s");
  ledger.add("time_to_solution_s", median(tts_s), "s");
  ledger.add("sim_factor_s", mean(steps.sim_s), "sim_s");
  ledger.add("peak_rss_mb", peak_rss_mb(), "MB");
  ledger.add("req_latency_p50_s", median(steps.step_s), "s");
  ledger.add("req_latency_tail_s", tail.value, "s");
  ledger.add("requests_per_s",
             static_cast<double>(steps.step_s.size()) / steps.measured_s, "1/s");
}

void run_step_traced(const StepWorkload& w, const Matrix<double>& b,
                     double seconds, Ledger& ledger) {
  const SparseSpd& a = w.grid.matrix;
  // Untraced reference: the same steps through the user API.
  mfgpu::Solver solver = mfgpu::Solver::analyze(a, w.options);
  const SolverSteps untraced =
      run_solver_steps(w, solver, b, 0.5 * seconds, ledger);

  std::vector<LayeredStep> steps;
  std::vector<std::vector<mfgpu::FuCallRecord>> calls(1);
  LayeredPattern pattern;
  double measured_s = 0.0;
  {
    mfgpu::obs::ObsScope scope(recording_config());
    pattern = layered_analyze(a, w.options, w.grid.coords);
    clear_recorded();
    while (measured_s < 0.5 * seconds ||
           static_cast<int>(steps.size()) < kMinSteps) {
      steps.push_back(layered_step(pattern, a, false, b, w.options, ledger,
                                   steps.empty() ? &calls[0] : nullptr));
      measured_s += steps.back().step_s;
      clear_recorded();
    }
  }

  // The simulated makespan depends on which worker steals which front, so
  // only the analysis is compared exactly here; serve-mixed compares the
  // makespan too.
  const mfgpu::SymbolicFactor& sym = pattern.analysis->symbolic;
  ledger.check(sym.factor_flops() == solver.analysis().symbolic.factor_flops(),
               "traced and untraced ordering.flops differ");
  std::vector<double> step_s;
  for (const LayeredStep& s : steps) step_s.push_back(s.step_s);
  std::printf("traced steps: %zu; untraced steps: %zu\n", steps.size(),
              untraced.step_s.size());

  ledger.add("trace.overhead_ratio", median(step_s) / median(untraced.step_s),
             "ratio");
  ledger.add("ordering.wall_s", pattern.ordering_s, "s");
  ledger.add("ordering.nnz_l", static_cast<double>(sym.factor_nnz()), "count");
  ledger.add("ordering.flops", sym.factor_flops(), "count");
  ledger.add("symbolic.wall_s", pattern.symbolic_s, "s");
  ledger.add("symbolic.supernodes", static_cast<double>(sym.num_supernodes()),
             "count");
  report_layers(steps, calls, ledger);
  report_absent_serve(ledger);
}

// ------------------------------------------------------------ serve-mixed --

struct ServeMatrices {
  /// values[p][v]: pattern p, value set v (all value sets share a pattern).
  std::vector<std::vector<std::shared_ptr<const SparseSpd>>> values;
  std::vector<std::vector<std::array<index_t, 3>>> coords;
};

ServeMatrices make_serve_matrices(std::uint64_t seed, Ledger& ledger) {
  ServeMatrices m;
  for (std::size_t p = 0; p < kServeGrids.size(); ++p) {
    const auto& g = kServeGrids[p];
    std::vector<std::shared_ptr<const SparseSpd>> sets;
    for (int v = 0; v < kServeValueSets; ++v) {
      Rng rng(mix_seed(seed, 100 + 16 * p + static_cast<std::uint64_t>(v)));
      mfgpu::GridProblem grid =
          mfgpu::make_elasticity_3d(g[0], g[1], g[2], 3, rng);
      if (v == 0) m.coords.push_back(std::move(grid.coords));
      sets.push_back(std::make_shared<const SparseSpd>(std::move(grid.matrix)));
      ledger.check(sets.back()->pattern_fingerprint() ==
                       sets.front()->pattern_fingerprint(),
                   "serve value sets do not share one pattern");
    }
    m.values.push_back(std::move(sets));
  }
  return m;
}

mfgpu::serve::ServeOptions serve_options() {
  mfgpu::serve::ServeOptions options;
  options.num_sessions = 2;  // default BaselineHybrid sessions
  options.max_batch_rhs = kServeBatchRhs;
  return options;
}

struct ServeRequest {
  int p = 0;
  int v = 0;
  std::vector<double> rhs;
  std::vector<double> rhs_sent;  ///< moved into submit()
};

/// The request stream of serve_demo, repeated: the patterns in turn, each
/// under its value sets in turn, kServeRhsPerSet requests per value set. So
/// of every 12 requests 9 repeat the current (pattern, values) — factor
/// reuse and batching — 2 bring new values on the same pattern (refactor)
/// and 1 switches to the next pattern (cache adopt or miss). The seed draws
/// the matrices' values and the known solutions.
class ServeMix {
 public:
  ServeMix(const ServeMatrices& m, std::uint64_t seed)
      : m_(m), rng_(mix_seed(seed, 7)) {}

  ServeRequest next() {
    const std::uint64_t set = issued_ / kServeRhsPerSet;
    const std::uint64_t patterns = m_.values.size();
    if (issued_ % kServeRhsPerSet != 0) {
      ++repeats_;
    } else if (set % kServeValueSets != 0) {
      ++new_values_;
    } else {
      ++switches_;
    }
    ++issued_;
    ServeRequest r;
    r.p = static_cast<int>((set / kServeValueSets) % patterns);
    r.v = static_cast<int>(set % kServeValueSets);
    const SparseSpd& a = *m_.values[static_cast<std::size_t>(r.p)]
                                   [static_cast<std::size_t>(r.v)];
    std::vector<double> x(static_cast<std::size_t>(a.n()));
    for (double& e : x) e = rng_.uniform(-1.0, 1.0);
    r.rhs.resize(x.size());
    a.multiply(x, r.rhs);
    r.rhs_sent = r.rhs;
    return r;
  }

  /// The measured share of each request kind so far.
  void print_shares() const {
    const double n = static_cast<double>(std::max<std::uint64_t>(issued_, 1));
    std::printf("request mix: %.3f repeat, %.3f new values, %.3f pattern "
                "switch (%llu requests)\n",
                static_cast<double>(repeats_) / n,
                static_cast<double>(new_values_) / n,
                static_cast<double>(switches_) / n,
                static_cast<unsigned long long>(issued_));
  }

 private:
  const ServeMatrices& m_;
  Rng rng_;
  std::uint64_t issued_ = 0;
  std::uint64_t repeats_ = 0;
  std::uint64_t new_values_ = 0;
  std::uint64_t switches_ = 0;
};

/// Responses kept for the bitwise comparison against a direct solve.
struct ServeSample {
  std::vector<double> rhs;
  std::vector<double> x;
};

class ServeRun {
 public:
  ServeRun(const ServeMatrices& m, std::uint64_t seed, Ledger& ledger)
      : m_(m), seed_(seed), ledger_(ledger),
        samples_(m.values.size(),
                 std::vector<std::vector<ServeSample>>(kServeValueSets)) {}

  /// Builds a service and warms it with one cold request per pattern;
  /// returns the seconds from construction to the end of warm-up.
  double set_up() {
    service_.reset();
    const Clock::time_point t0 = Clock::now();
    service_ = std::make_unique<mfgpu::serve::SolverService>(serve_options());
    std::vector<std::future<mfgpu::serve::SolveResult>> futures;
    for (const auto& sets : m_.values) {
      std::vector<double> rhs(static_cast<std::size_t>(sets.front()->n()), 1.0);
      futures.push_back(service_->submit(sets.front(), std::move(rhs)));
    }
    for (auto& f : futures) {
      const mfgpu::serve::SolveResult r = f.get();
      ledger_.check(r.ok(), "warm-up request failed: " + r.error);
    }
    return seconds_since(t0);
  }

  LoopTotals loop(double seconds, ServeMix& mix) {
    using mfgpu::serve::SolveResult;
    return run_closed_loop<SolveResult>(
        kServeOutstanding, seconds,
        [&](std::uint64_t) { return mix.next(); },
        [&](ServeRequest& r) {
          return service_->submit(matrix(r), std::move(r.rhs_sent));
        },
        [&](std::uint64_t, ServeRequest& r, std::optional<SolveResult> res) {
          check_response(r, res);
        });
  }

  mfgpu::serve::ServiceStats stats() const { return service_->stats(); }

  /// Direct Solver runs on every (pattern, value set), under the sessions'
  /// options: one cold one-shot plus warm factor + solve repetitions. The
  /// service responses sampled so far must match them bitwise. Wall times
  /// are kept per pattern; the patterns' costs differ, and the mean of
  /// their medians is steadier than one median over the mixture.
  struct Direct {
    std::vector<std::vector<double>> factor_s, solve_s, tts_s;
    std::vector<double> sim_s;
  };
  void direct_runs(Direct& d) {
    const SolverOptions options = serve_options().solver;
    const std::size_t patterns = m_.values.size();
    d.factor_s.resize(patterns);
    d.solve_s.resize(patterns);
    d.tts_s.resize(patterns);
    for (std::size_t p = 0; p < patterns; ++p) {
      for (int v = 0; v < kServeValueSets; ++v) {
        const SparseSpd& a = *m_.values[p][static_cast<std::size_t>(v)];
        const auto& samples = samples_[p][static_cast<std::size_t>(v)];
        Rng rng(mix_seed(seed_, 1000 + 16 * p + static_cast<std::uint64_t>(v)));
        Matrix<double> b = times(a, random_block(a.n(), kRhs, rng));
        for (std::size_t j = 0; j < samples.size(); ++j) {
          std::copy(samples[j].rhs.begin(), samples[j].rhs.end(),
                    column(b, static_cast<index_t>(j)).begin());
        }
        const Clock::time_point t0 = Clock::now();
        mfgpu::Solver solver = mfgpu::Solver::analyze(a, options);
        solver.factor();
        Matrix<double> x = solver.solve(b);
        d.tts_s[p].push_back(seconds_since(t0));
        d.sim_s.push_back(solver.factor_time());
        // Warm repetitions: these small operations need more samples than
        // one per matrix for a steady median.
        for (int r = 0; r < kServeDirectRepeats; ++r) {
          const Clock::time_point t1 = Clock::now();
          solver.factor();
          const Clock::time_point t2 = Clock::now();
          x = solver.solve(b);
          d.factor_s[p].push_back(seconds_between(t1, t2));
          d.solve_s[p].push_back(seconds_since(t2));
        }
        const double residual = worst_residual(a, x, b);
        ledger_.check(residual <= kResidualBar,
                      "direct solve residual " + std::to_string(residual));
        for (std::size_t j = 0; j < samples.size(); ++j) {
          const auto col = column(x, static_cast<index_t>(j));
          ledger_.check(std::memcmp(col.data(), samples[j].x.data(),
                                    col.size() * sizeof(double)) == 0,
                        "service response differs from a direct solve");
        }
      }
    }
  }

  void shut_down() { service_.reset(); }

 private:
  std::shared_ptr<const SparseSpd> matrix(const ServeRequest& r) const {
    return m_.values[static_cast<std::size_t>(r.p)][static_cast<std::size_t>(r.v)];
  }

  void check_response(const ServeRequest& r,
                      const std::optional<mfgpu::serve::SolveResult>& res) {
    if (!res.has_value() || !res->ok()) {
      ledger_.check(false, "request failed: " +
                               (res.has_value() ? res->error : "exception"));
      return;
    }
    const SparseSpd& a = *matrix(r);
    const double residual =
        mfgpu::residual_norm(a, res->x, r.rhs) / norm2(r.rhs);
    ledger_.check(residual <= kResidualBar,
                  "request residual " + std::to_string(residual));
    auto& samples = samples_[static_cast<std::size_t>(r.p)]
                            [static_cast<std::size_t>(r.v)];
    if (static_cast<index_t>(samples.size()) < kRhs) {
      samples.push_back(ServeSample{r.rhs, res->x});
    }
  }

  const ServeMatrices& m_;
  std::uint64_t seed_;
  Ledger& ledger_;
  std::vector<std::vector<std::vector<ServeSample>>> samples_;
  std::unique_ptr<mfgpu::serve::SolverService> service_;
};

void run_serve_untraced(std::uint64_t seed, double seconds, Ledger& ledger) {
  const ServeMatrices m = make_serve_matrices(seed, ledger);
  ServeRun run(m, seed, ledger);
  // Set-ups and direct runs before and after the loop, so their medians
  // span the run.
  std::vector<double> setup_s;
  ServeRun::Direct direct;
  for (int i = 0; i < kServeSetupRuns; ++i) setup_s.push_back(run.set_up());
  run.direct_runs(direct);
  ServeMix mix(m, seed);
  const LoopTotals totals = run.loop(seconds, mix);
  const mfgpu::serve::ServiceStats stats = run.stats();
  run.shut_down();
  run.direct_runs(direct);
  for (int i = 0; i < kServeSetupRuns; ++i) setup_s.push_back(run.set_up());
  run.shut_down();
  const TailPercentile tail = tail_percentile(totals.latency_s);
  std::printf("requests: %zu in %.3f s; latency tail at p%.2f\n",
              totals.latency_s.size(), totals.wall_s, tail.percentile);
  mix.print_shares();
  std::printf("service: %lld batches, %lld factorizations, %lld analyses\n",
              static_cast<long long>(stats.batches),
              static_cast<long long>(stats.factorizations),
              static_cast<long long>(stats.analyses));

  ledger.add("setup_s", median(setup_s), "s");
  ledger.add("factor_s", mean_over_groups(direct.factor_s, median), "s");
  ledger.add("solve_s", mean_over_groups(direct.solve_s, median), "s");
  ledger.add("time_to_solution_s",
             mean_over_groups(direct.tts_s, median), "s");
  ledger.add("sim_factor_s", mean(direct.sim_s), "sim_s");
  ledger.add("peak_rss_mb", peak_rss_mb(), "MB");
  ledger.add("req_latency_p50_s", median(totals.latency_s), "s");
  ledger.add("req_latency_tail_s", tail.value, "s");
  ledger.add("requests_per_s",
             static_cast<double>(totals.latency_s.size()) / totals.wall_s,
             "1/s");
}

void run_serve_traced(std::uint64_t seed, double seconds, Ledger& ledger) {
  const ServeMatrices m = make_serve_matrices(seed, ledger);
  ServeRun run(m, seed, ledger);
  run.set_up();
  ServeMix mix(m, seed);
  const LoopTotals untraced = run.loop(seconds / 3.0, mix);

  std::vector<LayeredStep> steps;
  std::vector<std::vector<mfgpu::FuCallRecord>> calls(m.values.size());
  std::vector<LayeredPattern> patterns;
  std::vector<std::size_t> step_set;  ///< p * kServeValueSets + v per step
  LoopTotals traced;
  mfgpu::serve::ServiceStats before, after;
  {
    mfgpu::obs::ObsScope scope(recording_config());
    before = run.stats();
    traced = run.loop(seconds / 3.0, mix);
    after = run.stats();
    run.shut_down();
    clear_recorded();

    // The sessions' pipeline, layer by layer, over the serve patterns.
    const SolverOptions options = serve_options().solver;
    for (std::size_t p = 0; p < m.values.size(); ++p) {
      patterns.push_back(
          layered_analyze(*m.values[p].front(), options, m.coords[p]));
    }
    Rng rng(mix_seed(seed, 9));
    std::vector<char> seen(m.values.size(), 0);
    double measured_s = 0.0;
    while (measured_s < seconds / 3.0 ||
           static_cast<int>(steps.size()) < kMinSteps) {
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<index_t>(m.values.size()) - 1));
      const auto v = static_cast<std::size_t>(
          rng.uniform_int(0, kServeValueSets - 1));
      const SparseSpd& a = *m.values[p][v];
      const Matrix<double> b = times(a, random_block(a.n(), kRhs, rng));
      steps.push_back(layered_step(patterns[p], a, true, b, options, ledger,
                                   seen[p] ? nullptr : &calls[p]));
      steps.back().pattern = static_cast<int>(p);
      step_set.push_back(p * kServeValueSets + v);
      seen[p] = 1;
      measured_s += steps.back().step_s;
      clear_recorded();
    }
  }
  ServeRun::Direct direct;
  run.direct_runs(direct);
  // The sessions factor on one thread, where the simulated makespan does
  // not depend on scheduling: the traced pipeline must price every matrix
  // exactly as the direct Solver run does.
  for (std::size_t i = 0; i < steps.size(); ++i) {
    ledger.check(steps[i].sim_s == direct.sim_s[step_set[i]],
                 "traced and untraced sim_factor_s differ");
  }

  double ordering_s = 0.0, symbolic_s = 0.0, nnz_l = 0.0, flops = 0.0,
         supernodes = 0.0;
  for (const LayeredPattern& p : patterns) {
    ordering_s += p.ordering_s;
    symbolic_s += p.symbolic_s;
    nnz_l += static_cast<double>(p.analysis->symbolic.factor_nnz());
    flops += p.analysis->symbolic.factor_flops();
    supernodes += static_cast<double>(p.analysis->symbolic.num_supernodes());
  }
  ledger.add("trace.overhead_ratio",
             median(traced.latency_s) / median(untraced.latency_s), "ratio");
  ledger.add("ordering.wall_s", ordering_s, "s");
  ledger.add("ordering.nnz_l", nnz_l, "count");
  ledger.add("ordering.flops", flops, "count");
  ledger.add("symbolic.wall_s", symbolic_s, "s");
  ledger.add("symbolic.supernodes", supernodes, "count");
  report_layers(steps, calls, ledger);

  const auto batches = static_cast<double>(after.batches - before.batches);
  const auto analyses = static_cast<double>(
      after.analyses + after.analysis_reuses - before.analyses -
      before.analysis_reuses);
  ledger.add("serve.submit_s", median(traced.send_s), "s");
  ledger.add("serve.batch_width",
             batches > 0
                 ? static_cast<double>(after.completed - before.completed) / batches
                 : 0.0,
             "count");
  ledger.add("serve.analysis_hit_ratio",
             analyses > 0 ? static_cast<double>(after.analysis_reuses -
                                                before.analysis_reuses) /
                                analyses
                          : 0.0,
             "ratio");
  ledger.add("serve.factor_reuse_ratio",
             batches > 0 ? static_cast<double>(after.factor_reuses -
                                               before.factor_reuses) /
                               batches
                         : 0.0,
             "ratio");
  ledger.add("serve.retries", static_cast<double>(after.retries - before.retries),
             "count");
  std::printf("serve: traced %zu / untraced %zu requests, %.0f batches\n",
              traced.latency_s.size(), untraced.latency_s.size(), batches);
  mix.print_shares();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "elastic3d-2c2g", "serve-mixed"};
  return names;
}

void run_workload(const RunConfig& config, Ledger& ledger) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    throw mfgpu::InvalidArgumentError("unknown workload: " + config.workload);
  }
  if (config.workload == "serve-mixed") {
    config.trace ? run_serve_traced(config.seed, config.seconds, ledger)
                 : run_serve_untraced(config.seed, config.seconds, ledger);
  } else {
    const StepWorkload w = make_step_workload(config.seed);
    const Matrix<double> b = step_rhs(w, config.seed);
    config.trace ? run_step_traced(w, b, config.seconds, ledger)
                 : run_step_untraced(w, b, config.seconds, ledger);
  }
  if (config.trace) report_failures(ledger);
}

}  // namespace perfbench
