#include "timing_executor.hpp"

#include <algorithm>

#include "ledger.hpp"
#include "policy/policy.hpp"

namespace perfbench {

using mfgpu::FuOutcome;

namespace {

/// The call's asymptotic op count (the drivers leave FuCall::flops unset).
double flops(const mfgpu::FrontBlocks& front) {
  return front.flops > 0.0 ? front.flops : mfgpu::fu_total_ops(front.m, front.k);
}

}  // namespace

FuClassTotals FuLedger::total() const {
  return FuClassTotals{cpu.calls + gpu.calls, cpu.wall_s + gpu.wall_s,
                       cpu.flops + gpu.flops, cpu.sim_s + gpu.sim_s};
}

TimingExecutor::TimingExecutor(std::unique_ptr<mfgpu::FuExecutor> inner,
                               FuLedger& ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

void TimingExecutor::account(const mfgpu::FrontBlocks& front,
                             const FuOutcome& outcome, double wall_s) {
  FuClassTotals& cls = outcome.record.policy == 1 ? ledger_.cpu : ledger_.gpu;
  ++cls.calls;
  cls.wall_s += wall_s;
  cls.flops += flops(front);
  cls.sim_s += outcome.record.t_total;
  ledger_.sim_by_snode.emplace_back(front.snode, outcome.record.t_total);
}

FuOutcome TimingExecutor::execute(mfgpu::FrontBlocks front,
                                  mfgpu::FactorContext& ctx) {
  const Clock::time_point t0 = Clock::now();
  FuOutcome outcome = inner_->execute(front, ctx);
  account(front, outcome, seconds_since(t0));
  return outcome;
}

std::vector<FuOutcome> TimingExecutor::execute_batch(
    std::span<mfgpu::FrontBlocks> fronts, mfgpu::FactorContext& ctx) {
  const Clock::time_point t0 = Clock::now();
  std::vector<FuOutcome> outcomes = inner_->execute_batch(fronts, ctx);
  const double wall_s = seconds_since(t0);
  // One dispatch served the whole group: its wall time is shared out by
  // flop count, the same split the simulated components use.
  double total = 0.0;
  for (const mfgpu::FrontBlocks& front : fronts) total += flops(front);
  for (std::size_t i = 0; i < fronts.size(); ++i) {
    const double share = total > 0.0
                             ? flops(fronts[i]) / total
                             : 1.0 / static_cast<double>(fronts.size());
    account(fronts[i], outcomes[i], wall_s * share);
  }
  return outcomes;
}

void TimingExecutor::prepare(mfgpu::index_t max_m, mfgpu::index_t max_k,
                             mfgpu::FactorContext& ctx) {
  const Clock::time_point t0 = Clock::now();
  inner_->prepare(max_m, max_k, ctx);
  ledger_.prepare_wall_s += seconds_since(t0);
}

mfgpu::WorkerExecutorFactory timed_factory(
    const mfgpu::ExecutorOptions& executor_options,
    std::vector<FuLedger>& ledgers) {
  return [executor_options, &ledgers](
             const mfgpu::WorkerSpec& spec,
             int worker) -> std::unique_ptr<mfgpu::FuExecutor> {
    return std::make_unique<TimingExecutor>(
        mfgpu::default_worker_executor(spec, executor_options),
        ledgers.at(static_cast<std::size_t>(worker)));
  };
}

FuClassTotals sum_totals(const std::vector<FuLedger>& ledgers, bool gpu_only) {
  FuClassTotals sum;
  for (const FuLedger& ledger : ledgers) {
    const FuClassTotals t = gpu_only ? ledger.gpu : ledger.total();
    sum.calls += t.calls;
    sum.wall_s += t.wall_s;
    sum.flops += t.flops;
    sum.sim_s += t.sim_s;
  }
  return sum;
}

bool matches_trace(const std::vector<FuLedger>& ledgers,
                   const mfgpu::FactorizationTrace& trace) {
  std::vector<std::pair<mfgpu::index_t, double>> calls;
  for (const FuLedger& ledger : ledgers) {
    calls.insert(calls.end(), ledger.sim_by_snode.begin(),
                 ledger.sim_by_snode.end());
  }
  if (calls.size() != trace.calls.size()) return false;
  // Parallel workers interleave; the trace sums in supernode order. Calls
  // that carry no supernode id keep their execution order.
  std::stable_sort(calls.begin(), calls.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  double sim = 0.0;
  for (const auto& [snode, seconds] : calls) sim += seconds;
  return sim == trace.fu_time;
}

}  // namespace perfbench
