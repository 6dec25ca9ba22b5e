// Lock-free per-thread log of policy dispatch decisions.
//
// Every factor-update call routed through a hybrid dispatcher
// (DispatchExecutor) records what was decided and what it cost: the call
// dimensions, the chosen policy, the dispatcher's predicted time (when its
// strategy produces one — the ideal hybrid's dry-run oracle does, the
// classifier does not), and the measured (simulated) execution time. The
// profiler post-processes the log into the paper's Figs. 12-13 style audit:
// per-call regret against the retrospective ideal P_IH and the
// decision-agreement rate.
//
// Recording mirrors TraceSession: thread-local buffers registered once per
// thread, appends never take a lock, and the merge happens at report time
// while the pipeline is quiescent. All recording is gated on obs::enabled().
#pragma once

#include <cstdint>
#include <vector>

#include "multifrontal/fu_call.hpp"
#include "support/error.hpp"

namespace mfgpu::obs {

/// One dispatcher decision for a factor-update call.
struct PolicyDecision {
  FuCall call;    ///< the dispatched call (snode, m, k, flops)
  int policy = 0; ///< policy that actually executed (1..5)
  /// Fronts aggregated into the dispatch that executed this call (1 = the
  /// per-front path; > 1 only under Policy::Batched). The audit prices
  /// batched decisions at this width.
  int batch = 1;
  /// Dispatcher's predicted call time in seconds; < 0 = the strategy does
  /// not predict times (baseline thresholds, plain classifier).
  double predicted_seconds = -1.0;
  /// Host-visible (simulated) duration the executed call reported.
  double measured_seconds = 0.0;
  /// Serving request this dispatch executed for (obs::current_request_id();
  /// 0 outside the serving layer) — lets the per-request trace tooling
  /// attribute every F-U call to the request that paid for it.
  std::uint64_t request_id = 0;
};

/// One device fault a dispatcher detected and survived (see
/// policy/executors.cpp): which call faulted, what kind of fault, whether
/// the front ended on the host fallback path, and the simulated time the
/// failed on-device attempts wasted — the profiler's fault-regret source.
struct FaultEvent {
  FuCall call;     ///< the call whose device attempt faulted
  int policy = 0;  ///< GPU policy whose attempt faulted (1..5)
  int kind = 0;    ///< gpusim FaultKind the dispatcher observed (as int)
  int attempt = 0; ///< 0 = first on-device try, 1 = on-device retry
  bool fell_back = false;    ///< front re-executed on the host P1 path
  bool quarantined = false;  ///< this fault tripped the worker's breaker
  double wasted_seconds = 0.0;  ///< simulated time of the failed attempt
  /// Serving request whose work faulted (0 outside the serving layer).
  std::uint64_t request_id = 0;
};

/// Process-wide decision log. Same threading contract as TraceSession:
/// record() is lock-free after a thread's first call; decisions() and
/// clear() must run while no thread is recording.
class DecisionLog {
 public:
  static DecisionLog& global();

  /// Append one decision to the calling thread's buffer (lock-free).
  void record(const PolicyDecision& decision);

  /// Append one fault event to the calling thread's buffer (lock-free).
  void record_fault(const FaultEvent& event);

  /// Merged snapshot of all thread buffers (thread registration order).
  std::vector<PolicyDecision> decisions() const;

  /// Merged snapshot of all recorded fault events.
  std::vector<FaultEvent> fault_events() const;

  /// Total recorded decisions across all threads.
  std::int64_t size() const;

  /// Drop all recorded decisions and fault events (buffers stay registered).
  void clear();

  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

 private:
  DecisionLog();
  struct Impl;
  Impl* impl_;  // leaked singleton state: safe during static destruction
};

}  // namespace mfgpu::obs
