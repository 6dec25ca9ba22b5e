// FrontStep — the one per-supernode step every factorization driver runs.
//
// In the paper every supernode goes through the same step, whatever order
// the supernodes run in:
//   1. wait for the children's update matrices (virtual time),
//   2. assemble the front from A and extend-add the children's updates,
//   3. run factor-update (potrf/trsm/syrk) through the lane's FuExecutor,
//   4. store the factor panel and hand the packed update to the parent.
// FrontStep holds the single copy of that step plus lane setup (device,
// executor, front arena, prepare) and the epilogue (device drain, trace,
// memory marks, metrics). The drivers keep only ordering and placement:
//   - factorize (factorization.hpp): one lane, units in postorder, or in
//     level order when the batch plan groups fronts;
//   - factorize_parallel (parallel.hpp): one lane per worker, the unit DAG
//     on the work-stealing pool;
//   - factorize_cluster (cluster/cluster.hpp): one lane per simulated node,
//     placement, interconnect messages and the two cluster engines.
//
// A unit is either one front or one planned batch of same-height fronts
// (multifrontal/batched.hpp), dispatched through execute_batch. Units are
// numbered by their first member supernode; without batches unit u is
// supernode u.
//
// Update matrices wait for their parent in one of two stores. The serial
// postorder run keeps the classic LIFO update stack (bounded by the
// symbolic peak_update_stack_entries); every other order gives each
// supernode its own buffer, freed as soon as the parent consumed it.
//
// Determinism: children are extend-added in descending child index (the
// stack's pop order), so every driver and lane count produces the serial
// factor bitwise. With deterministic_reduction off (pool only) they are
// extend-added in completion order instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "multifrontal/batched.hpp"
#include "multifrontal/factorization.hpp"
#include "multifrontal/stack_arena.hpp"
#include "policy/executors.hpp"
#include "sched/worker.hpp"

namespace mfgpu {

class FrontalMatrix;

/// Builds one worker's executor; called once per worker before the run (the
/// executor is then used exclusively by that worker's thread).
using WorkerExecutorFactory =
    std::function<std::unique_ptr<FuExecutor>(const WorkerSpec& spec, int worker)>;

/// The default factory, mirroring the scheduling simulation's semantics:
/// CPU workers run P1; GPU workers dispatch the paper's baseline hybrid.
std::unique_ptr<FuExecutor> default_worker_executor(
    const WorkerSpec& spec, const ExecutorOptions& executor_options);

/// How one run drives its FrontStep.
struct FrontStepSetup {
  int num_lanes = 1;
  /// Lanes are workers or nodes (true) or the one serial host lane.
  bool parallel = false;
  /// False: timing-only dry run (serial only) — no numerics, no update store.
  bool numeric = true;
  /// Extend-add children in descending index (bitwise serial) rather than
  /// in completion order.
  bool deterministic_reduction = true;
  /// Trace category of the factor_update spans.
  const char* category = "multifrontal";
  obs::ScheduleRecorder* recorder = nullptr;
};

class FrontStep {
 public:
  /// Waits on `lane` for child `child`'s update when it does not arrive by
  /// a plain dependency join (the cluster's interconnect messages); returns
  /// false to fall back to the join.
  using ChildWait = std::function<bool(int lane, index_t child)>;

  /// Plans the run's units (`numeric.batching`) and starts the recorder.
  FrontStep(const Analysis& analysis, const FactorizeOptions& numeric,
            const FrontStepSetup& setup);
  ~FrontStep();

  FrontStep(const FrontStep&) = delete;
  FrontStep& operator=(const FrontStep&) = delete;

  /// Lane setup, in lane order. The serial lane runs on the caller's
  /// context and executor, and each front owns its storage.
  void add_lane(FactorContext& ctx, FuExecutor& executor);
  /// A worker or node lane: a private device for GPU specs, the factory's
  /// executor (default_worker_executor without one) and a front arena.
  void add_lane(const WorkerSpec& spec, const Device::Options& device,
                const WorkerExecutorFactory& make_executor,
                const ExecutorOptions& executor_options);

  void set_child_wait(ChildWait wait) { child_wait_ = std::move(wait); }

  const BatchPlan& plan() const noexcept { return plan_; }
  index_t num_units() const noexcept {
    return static_cast<index_t>(unit_first_.size());
  }
  /// First member supernode of unit u (the supernode itself for a front).
  index_t unit_first(index_t u) const {
    return unit_first_[static_cast<std::size_t>(u)];
  }
  /// Batch index of unit u, or -1 for a single front.
  int unit_batch(index_t u) const {
    return unit_batch_[static_cast<std::size_t>(u)];
  }
  index_t unit_of(index_t s) const {
    return unit_of_[static_cast<std::size_t>(s)];
  }

  /// Assemble, factor-update and postprocess one unit on `lane`; every
  /// child of every member must have run.
  void run_unit(int lane, index_t unit);
  void run_front(int lane, index_t s);
  void run_batch(int lane, int batch);

  FactorContext& context(int lane) {
    return *lanes_[static_cast<std::size_t>(lane)].ctx;
  }
  /// Virtual time at which supernode s's update is safe to consume.
  double update_ready(index_t s) const {
    return update_ready_[static_cast<std::size_t>(s)];
  }
  /// High-water mark of the update store, in entries.
  std::int64_t update_peak_entries() const noexcept;

  /// Epilogue: drain each lane's device, reduce the lane clocks into the
  /// virtual makespan, fill the trace and memory marks and emit the
  /// multifrontal.* / gpusim.pool.* metrics.
  FactorizeResult finish();

 private:
  struct Lane {
    FactorContext* ctx = nullptr;
    FuExecutor* executor = nullptr;
    /// Storage of single fronts; null = each front allocates its own.
    std::unique_ptr<StackArena> front_arena;
    double start_time = 0.0;  ///< clock at setup: the makespan's origin
    double assembly_time = 0.0;
    // Owned by worker and node lanes.
    FactorContext owned_ctx;
    std::unique_ptr<Device> device;
    std::unique_ptr<FuExecutor> owned_executor;
  };

  void prepare(int lane);
  void assemble(int lane, index_t s, FrontalMatrix& front);
  FrontBlocks make_blocks(index_t s, FrontalMatrix& front) const;
  void postprocess(int lane, index_t s, FrontalMatrix& front,
                   FuOutcome outcome);
  void charge_assembly(Lane& lane, double entries);
  std::span<double> publish_update(index_t s, index_t entries);
  void release_update(index_t c);

  const Analysis& analysis_;
  const FactorizeOptions& numeric_options_;
  FrontStepSetup setup_;
  obs::ScheduleRecorder* rec_;
  BatchPlan plan_;
  std::vector<index_t> unit_of_;
  std::vector<index_t> unit_first_;
  std::vector<int> unit_batch_;
  std::vector<std::vector<index_t>> children_;
  index_t max_m_ = 0, max_k_ = 0, max_order_ = 0;
  std::deque<Lane> lanes_;  ///< a deque: lanes never move once added
  ChildWait child_wait_;

  // Update store: the LIFO stack in serial postorder, else per-supernode
  // slots (written by one task, read by its parent; the pool's
  // acquire-release completion counters order the accesses).
  std::unique_ptr<StackArena> stack_;
  std::vector<std::vector<double>> slots_;
  std::atomic<std::int64_t> live_entries_{0}, peak_entries_{0};

  std::vector<double> update_ready_;
  std::vector<FuCallRecord> records_;
  std::vector<index_t> ticket_;  ///< completion order (non-deterministic)
  std::atomic<index_t> next_ticket_{0};
  FactorizeResult result_;
};

}  // namespace mfgpu
