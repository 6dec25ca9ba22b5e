#include "kernel_replay.hpp"

#include <algorithm>
#include <cmath>

#include "dense/blas.hpp"
#include "dense/potrf.hpp"
#include "gpusim/cost_model.hpp"
#include "ledger.hpp"

namespace perfbench {

namespace {

using mfgpu::index_t;
using mfgpu::MatrixView;

/// Reusable operand storage for one precision, sized for the largest shape.
template <typename T>
struct Operands {
  std::vector<T> l1, l2, u;

  void reserve(index_t max_m, index_t max_k) {
    l1.resize(static_cast<std::size_t>(std::max<index_t>(1, max_k * max_k)));
    l2.resize(static_cast<std::size_t>(std::max<index_t>(1, max_m * max_k)));
    u.resize(static_cast<std::size_t>(std::max<index_t>(1, max_m * max_m)));
  }

  /// Fills a well-conditioned SPD pivot block and arbitrary L2 / U, then
  /// times the three kernels of one F-U call.
  bool run(index_t m, index_t k, KernelReplay& out) {
    MatrixView<T> a(l1.data(), k, k, k);
    for (index_t j = 0; j < k; ++j) {
      for (index_t i = 0; i < k; ++i) {
        a(i, j) = i == j ? static_cast<T>(k + 1) : static_cast<T>(0.5);
      }
    }
    MatrixView<T> b(l2.data(), m, k, std::max<index_t>(1, m));
    for (index_t j = 0; j < k; ++j) {
      for (index_t i = 0; i < m; ++i) {
        b(i, j) = static_cast<T>(0.25 + 0.001 * static_cast<double>(i % 7));
      }
    }
    MatrixView<T> c(u.data(), m, m, std::max<index_t>(1, m));
    for (index_t j = 0; j < m; ++j) {
      for (index_t i = j; i < m; ++i) c(i, j) = static_cast<T>(0);
    }

    Clock::time_point t0 = Clock::now();
    mfgpu::potrf<T>(a, 64, 0);
    out.potrf.wall_s += seconds_since(t0);
    if (m > 0) {
      t0 = Clock::now();
      mfgpu::trsm<T>(mfgpu::Side::Right, mfgpu::Uplo::Lower,
                     mfgpu::Trans::Transpose, mfgpu::Diag::NonUnit, T(1), a,
                     b);
      out.trsm.wall_s += seconds_since(t0);
      t0 = Clock::now();
      mfgpu::syrk_lower<T>(T(-1), b, T(1), c);
      out.syrk.wall_s += seconds_since(t0);
    }
    return std::isfinite(static_cast<double>(a(k - 1, k - 1))) &&
           (m == 0 || std::isfinite(static_cast<double>(c(m - 1, m - 1))));
  }
};

}  // namespace

KernelReplay replay_kernels(const std::vector<mfgpu::FuCallRecord>& calls) {
  index_t max_m = 0, max_k = 0;
  for (const mfgpu::FuCallRecord& call : calls) {
    max_m = std::max(max_m, call.m);
    max_k = std::max(max_k, call.k);
  }
  Operands<double> cpu;
  Operands<float> gpu;
  cpu.reserve(max_m, max_k);
  gpu.reserve(max_m, max_k);

  const mfgpu::ProcessorModel model = mfgpu::xeon5160_model();
  KernelReplay out;
  for (const mfgpu::FuCallRecord& call : calls) {
    if (call.k <= 0) continue;
    const index_t m = call.m, k = call.k;
    const double min_dim = static_cast<double>(std::min(m, k));
    const auto potrf_ops = static_cast<double>(mfgpu::potrf_ops(k));
    const auto trsm_ops = static_cast<double>(mfgpu::trsm_ops(m, k));
    const auto syrk_ops = static_cast<double>(mfgpu::syrk_ops(m, k));
    out.potrf.ops += potrf_ops;
    out.potrf.model_s += model.potrf.time(potrf_ops, static_cast<double>(k));
    if (m > 0) {
      out.trsm.ops += trsm_ops;
      out.trsm.model_s += model.trsm.time(trsm_ops, min_dim);
      out.syrk.ops += syrk_ops;
      out.syrk.model_s += model.syrk.time(syrk_ops, min_dim);
    }
    const bool finite =
        call.policy == 1 ? cpu.run(m, k, out) : gpu.run(m, k, out);
    out.ok = out.ok && finite;
  }
  return out;
}

}  // namespace perfbench
