// F-U timing decorator: an FuExecutor that forwards every call to the real
// executor and records, per worker, the host wall seconds of prepare /
// execute / execute_batch split by the policy the inner executor chose
// (P1 on the CPU vs P2..P4 and Batched on the simulated GPU), the calls'
// flop counts, and their simulated seconds. It only observes: the factor a
// wrapped executor produces is bitwise the unwrapped one's.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "multifrontal/factor_update.hpp"
#include "multifrontal/parallel.hpp"

namespace perfbench {

/// One policy class's share of a worker's F-U calls.
struct FuClassTotals {
  std::int64_t calls = 0;
  double wall_s = 0.0;  ///< host seconds inside execute/execute_batch
  double flops = 0.0;   ///< asymptotic op count k^3/3 + m k^2 + m^2 k
  double sim_s = 0.0;   ///< FuCallRecord::t_total (simulated seconds)
};

/// Everything one worker's decorator saw. Owned by the caller so it
/// outlives executors that the parallel driver destroys on return.
struct FuLedger {
  FuClassTotals cpu;  ///< policy P1
  FuClassTotals gpu;  ///< policies P2..P4 and Batched
  double prepare_wall_s = 0.0;
  /// (supernode, simulated seconds) per call, for the exact cross-check
  /// against FactorizationTrace::fu_time.
  std::vector<std::pair<mfgpu::index_t, double>> sim_by_snode;

  FuClassTotals total() const;
};

class TimingExecutor : public mfgpu::FuExecutor {
 public:
  TimingExecutor(std::unique_ptr<mfgpu::FuExecutor> inner, FuLedger& ledger);

  mfgpu::FuOutcome execute(mfgpu::FrontBlocks front,
                           mfgpu::FactorContext& ctx) override;
  std::vector<mfgpu::FuOutcome> execute_batch(
      std::span<mfgpu::FrontBlocks> fronts,
      mfgpu::FactorContext& ctx) override;
  void prepare(mfgpu::index_t max_m, mfgpu::index_t max_k,
               mfgpu::FactorContext& ctx) override;
  const char* name() const override { return inner_->name(); }
  std::int64_t fault_count() const override { return inner_->fault_count(); }
  bool quarantined() const override { return inner_->quarantined(); }

 private:
  void account(const mfgpu::FrontBlocks& front,
               const mfgpu::FuOutcome& outcome, double wall_s);

  std::unique_ptr<mfgpu::FuExecutor> inner_;
  FuLedger& ledger_;
};

/// The parallel driver's default executors (P_BH on GPU workers, P1 on CPU
/// workers), each wrapped in a TimingExecutor writing to ledgers[worker];
/// `ledgers` must hold one entry per worker and outlive the factorization.
mfgpu::WorkerExecutorFactory timed_factory(
    const mfgpu::ExecutorOptions& executor_options,
    std::vector<FuLedger>& ledgers);

/// Sum of all workers' class totals.
FuClassTotals sum_totals(const std::vector<FuLedger>& ledgers, bool gpu_only);

/// True when the decorators saw exactly the trace's calls and simulated
/// F-U seconds (summed in supernode order, as the drivers record them).
bool matches_trace(const std::vector<FuLedger>& ledgers,
                   const mfgpu::FactorizationTrace& trace);

}  // namespace perfbench
