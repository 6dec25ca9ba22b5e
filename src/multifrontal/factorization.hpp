// The serial multifrontal Cholesky driver and the factor types every driver
// returns. Each supernode runs the shared FrontStep (assemble, factor-update
// through a pluggable policy executor, panel store, update hand-off; see
// multifrontal/front_step.hpp); factorize() only chooses the order:
// postorder, or level order when small fronts are batched.
#pragma once

#include <cstdint>
#include <vector>

#include "dense/matrix.hpp"
#include "multifrontal/batched.hpp"
#include "multifrontal/factor_update.hpp"
#include "multifrontal/trace.hpp"
#include "sched/thread_pool.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

namespace obs {
class ScheduleRecorder;
}

/// The numeric factor L in supernodal storage: panel s holds the (k+m) x k
/// factor columns of supernode s (L1 in the top k rows — lower triangle
/// valid — and L2 below); row i of the panel corresponds to global permuted
/// index (cols ++ update_rows)[i] from the symbolic structure.
///
/// Panels are stored in double by default, or in single precision when the
/// factorization was run with FactorPrecision::Float32 — halving the factor
/// memory at the cost of ~half the digits, which iterative refinement
/// recovers (the storage-side counterpart of the paper's single-precision
/// GPU arithmetic).
struct Factorization {
  std::vector<Matrix<double>> panels;
  std::vector<Matrix<float>> panels32;
  bool numeric = true;

  bool single_precision() const noexcept { return !panels32.empty(); }
  index_t num_panels() const noexcept {
    return static_cast<index_t>(single_precision() ? panels32.size()
                                                   : panels.size());
  }
  /// Bytes used by the stored factor.
  std::int64_t storage_bytes() const noexcept;
};

/// High-water memory marks of one worker's numeric phase: its update-stack
/// arena plus — for GPU-bearing workers — its private simulated device's
/// pool slabs and pinned staging. The profiler aggregates these into the
/// report's memory section and the mem.* gauges.
struct WorkerMemory {
  int worker = 0;
  std::int64_t arena_peak_bytes = 0;        ///< StackArena high water
  std::int64_t device_pool_peak_bytes = 0;  ///< device slab high water
  std::int64_t pinned_pool_peak_bytes = 0;  ///< pinned staging high water
  std::int64_t device_pool_charged_allocs = 0;  ///< acquires that paid
  std::int64_t pinned_pool_charged_allocs = 0;
};

struct FactorizeResult {
  Factorization factor;
  FactorizationTrace trace;
  /// Per-worker memory high-water marks (one entry for the serial driver).
  std::vector<WorkerMemory> memory;
  /// Work-stealing pool statistics of the run (empty for the serial driver)
  /// and the real seconds the pool spent executing the tree — the profiler's
  /// per-worker utilization source.
  PoolRunStats pool_stats;
  double pool_wall_seconds = 0.0;
  /// Fault tolerance: device faults detected and survived by the run's
  /// executors, and how many workers ended the run quarantined to CPU-only
  /// (circuit breaker; see policy/executors.hpp).
  std::int64_t faults_survived = 0;
  int quarantined_workers = 0;
};

enum class FactorPrecision { Float64, Float32 };

struct FactorizeOptions {
  /// Keep the numeric factor (disable for timing-only studies to save RAM).
  bool store_factor = true;
  /// Storage precision of the panels (solves always accumulate in double).
  FactorPrecision precision = FactorPrecision::Float64;
  /// Aggregated small-front execution (multifrontal/batched.hpp). Off keeps
  /// the postorder per-front driver bit-for-bit unchanged; On/Auto sweep
  /// the tree level by level and run each planned group through the
  /// executor's execute_batch. Per-front numeric math and the extend-add
  /// order are identical either way, so the factor matches bitwise.
  BatchingOptions batching;
  /// Optional schedule flight recorder (obs/schedule_record.hpp). When set,
  /// the driver attaches it to the host clock and records every task,
  /// dependency join, and primitive timing operation of the run.
  obs::ScheduleRecorder* recorder = nullptr;
};

/// Factor the permuted matrix using the symbolic structure in `analysis`.
/// `executor` decides and executes the policy for each factor-update call;
/// `ctx` carries the virtual clocks (and the device, for GPU policies).
FactorizeResult factorize(const Analysis& analysis, FuExecutor& executor,
                          FactorContext& ctx,
                          const FactorizeOptions& options = {});

}  // namespace mfgpu
