// The benchmark's workloads. Each run measures one workload for a fixed
// number of seconds and fills a Ledger:
//   - untraced (trace = false): the end-to-end metrics, measured through
//     the user API (Solver::analyze / factor / solve and
//     serve::SolverService::submit) with observability off;
//   - traced (trace = true): the per-layer metrics, from a run that
//     composes the same public layer calls Solver makes (ordering, analyze,
//     factorize / factorize_parallel, blocked solve, solve_with_refinement)
//     with obs recording on, spans around every layer call and the F-U
//     timing decorator around every executor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

const std::vector<std::string>& workload_names();

/// Runs one workload and records its metrics and checks in `ledger`.
/// Throws mfgpu::InvalidArgumentError for an unknown workload name.
void run_workload(const RunConfig& config, Ledger& ledger);

}  // namespace perfbench
