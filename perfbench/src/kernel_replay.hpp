// Kernel replay for the dense layer: re-runs a factorization's recorded F-U
// shapes through the public potrf / trsm / syrk_lower kernels — double for
// calls the policy kept on the CPU, float for calls it sent to the simulated
// GPU (whose kernels run in single precision on the host) — and times each
// kernel. The rates are weighted by the workload's real call distribution,
// and each comes with the calibrated xeon5160_model() rate for the same
// calls, so the host-vs-model gap is a number.
#pragma once

#include <vector>

#include "multifrontal/trace.hpp"

namespace perfbench {

struct KernelRate {
  double ops = 0.0;      ///< paper's asymptotic op count
  double wall_s = 0.0;   ///< measured host seconds
  double model_s = 0.0;  ///< xeon5160_model() seconds for the same calls

  double gflops() const { return wall_s > 0.0 ? ops / wall_s * 1e-9 : 0.0; }
  double model_gflops() const {
    return model_s > 0.0 ? ops / model_s * 1e-9 : 0.0;
  }
};

struct KernelReplay {
  KernelRate potrf;
  KernelRate trsm;
  KernelRate syrk;
  bool ok = true;  ///< every replayed factorization stayed finite
};

KernelReplay replay_kernels(const std::vector<mfgpu::FuCallRecord>& calls);

}  // namespace perfbench
