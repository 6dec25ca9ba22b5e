// Task-parallel numeric factorization: the assembly tree executed by real
// threads on a work-stealing pool (sched/thread_pool.hpp) — the paper's
// multi-worker runs (Table VII: 4 CPU threads, 2 threads + 2 GPUs) that
// sched/list_scheduler.hpp only *simulates*.
//
// Each worker is one FrontStep lane (multifrontal/front_step.hpp: its own
// virtual clock, executor, front arena and, for GPU workers, private
// simulated Device); every front runs the shared FrontStep. This driver
// adds only the order: the unit DAG (the assembly tree, with each planned
// batch condensed into one node) on the pool, whose deques are seeded by
// proportional mapping so whole subtrees stay worker-local, and ordered by
// critical-path bottom level.
//
// Time has two domains here. Wall-clock time is real (kernels do real work
// on real threads; see bench/bench_parallel_scaling.cpp). Virtual time is
// per worker: a task's virtual start is max(worker clock, children's
// virtual update-ready times), and trace.total_time is the virtual makespan
// over workers — the executed schedule priced on the calibrated model.
//
// Determinism: with deterministic_reduction (default) the result is BITWISE
// identical to factorize() for any thread count. With it off, children are
// assembled in completion order (roundoff-level differences; iterative
// refinement absorbs them).
#pragma once

#include <vector>

#include "multifrontal/factorization.hpp"
#include "multifrontal/front_step.hpp"
#include "policy/executors.hpp"
#include "sched/worker.hpp"

namespace mfgpu {

struct ParallelFactorizeOptions {
  /// Worker count when `workers` is empty (CPU-only workers, policy P1 —
  /// the paper's multithreaded WSMP baseline).
  int num_threads = 1;
  /// Explicit worker list (overrides num_threads); GPU-bearing workers get
  /// a private simulated Device and run the hybrid policy dispatch.
  std::vector<WorkerSpec> workers;
  /// Fixed child-assembly order: bitwise-equal to the serial factorization.
  bool deterministic_reduction = true;
  FactorizeOptions numeric;
  ExecutorOptions executor;
  /// Template for each GPU worker's private device.
  Device::Options device;
  /// Optional schedule flight recorder (obs/schedule_record.hpp): one lane
  /// per worker. The `numeric.recorder` field is ignored here.
  obs::ScheduleRecorder* recorder = nullptr;
};

/// Factor `analysis` with real threads. Matches factorize()'s contract
/// (panels, trace, NotPositiveDefiniteError propagation from any worker);
/// numeric execution only (use simulate_schedule for dry-run studies).
FactorizeResult factorize_parallel(const Analysis& analysis,
                                   const ParallelFactorizeOptions& options = {},
                                   const WorkerExecutorFactory& make_executor = {});

}  // namespace mfgpu
