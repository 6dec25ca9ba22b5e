// Wall-clock microbenchmarks (google-benchmark) of the library's own dense
// kernels — the numeric substrate everything executes on. These are the
// only benches that measure real machine time; all paper reproductions run
// on the calibrated virtual clock.
//
// Each kernel runs in both precisions twice: the fast kernel (`Fast`) and
// the plain-loop reference it must match bitwise (`Reference`), so the
// speedup of the micro-kernel is the ratio of the two rows at the same n.
// items_per_second is flops per second (blas.hpp's operation counts).
#include <benchmark/benchmark.h>

#include "dense/potrf.hpp"
#include "dense/reference.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

struct Fast {
  template <typename T>
  static void gemm_nt(T alpha, MatrixView<const T> a, MatrixView<const T> b,
                      T beta, MatrixView<T> c) {
    mfgpu::gemm<T>(Trans::NoTrans, Trans::Transpose, alpha, a, b, beta, c);
  }
  template <typename T>
  static void syrk(T alpha, MatrixView<const T> a, T beta, MatrixView<T> c) {
    mfgpu::syrk_lower<T>(alpha, a, beta, c);
  }
  template <typename T>
  static void trsm(MatrixView<const T> l, MatrixView<T> b) {
    mfgpu::trsm<T>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
                   T{1}, l, b);
  }
  template <typename T>
  static void potrf(MatrixView<T> a) {
    mfgpu::potrf<T>(a);
  }
};

struct Reference {
  template <typename T>
  static void gemm_nt(T alpha, MatrixView<const T> a, MatrixView<const T> b,
                      T beta, MatrixView<T> c) {
    reference::gemm<T>(Trans::NoTrans, Trans::Transpose, alpha, a, b, beta,
                       c);
  }
  template <typename T>
  static void syrk(T alpha, MatrixView<const T> a, T beta, MatrixView<T> c) {
    reference::syrk_lower<T>(alpha, a, beta, c);
  }
  template <typename T>
  static void trsm(MatrixView<const T> l, MatrixView<T> b) {
    reference::trsm<T>(Side::Right, Uplo::Lower, Trans::Transpose,
                       Diag::NonUnit, T{1}, l, b);
  }
  template <typename T>
  static void potrf(MatrixView<T> a) {
    reference::potrf<T>(a);
  }
};

template <typename T>
Matrix<T> random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> m(rows, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      m(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

template <typename T>
Matrix<T> random_spd(index_t n, std::uint64_t seed) {
  const auto g = random_matrix<T>(n, n, seed);
  Matrix<T> a(n, n, T{});
  reference::gemm<T>(Trans::NoTrans, Trans::Transpose, T{1}, g.view(),
                     g.view(), T{}, a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<T>(n);
  return a;
}

template <typename T, typename Impl>
void BM_GemmNT(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto a = random_matrix<T>(n, n, 1);
  const auto b = random_matrix<T>(n, n, 2);
  Matrix<T> c(n, n, T{});
  for (auto _ : state) {
    Impl::gemm_nt(T{1}, a.view(), b.view(), T{}, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * gemm_ops(n, n, n));
}

template <typename T, typename Impl>
void BM_SyrkLower(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto a = random_matrix<T>(n, n / 2, 3);
  Matrix<T> c(n, n, T{});
  for (auto _ : state) {
    Impl::syrk(T{-1}, a.view(), T{1}, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * syrk_ops(n, n / 2));
}

template <typename T, typename Impl>
void BM_TrsmRightLT(benchmark::State& state) {
  const index_t k = state.range(0);
  auto l = random_spd<T>(k, 4);
  reference::potrf<T>(l.view());
  const auto b0 = random_matrix<T>(2 * k, k, 5);
  auto b = b0;
  for (auto _ : state) {
    state.PauseTiming();
    b = b0;
    state.ResumeTiming();
    Impl::template trsm<T>(l.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations() * trsm_ops(2 * k, k));
}

template <typename T, typename Impl>
void BM_Potrf(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto a = random_spd<T>(n, 6);
  auto l = a;
  for (auto _ : state) {
    state.PauseTiming();
    l = a;
    state.ResumeTiming();
    Impl::potrf(l.view());
    benchmark::DoNotOptimize(l.data());
  }
  state.SetItemsProcessed(state.iterations() * potrf_ops(n));
}

#define MFGPU_KERNEL_BENCH(kernel)                                           \
  BENCHMARK_TEMPLATE(kernel, double, Fast)->Arg(64)->Arg(128)->Arg(256);     \
  BENCHMARK_TEMPLATE(kernel, double, Reference)->Arg(64)->Arg(128)->Arg(256); \
  BENCHMARK_TEMPLATE(kernel, float, Fast)->Arg(64)->Arg(128)->Arg(256);      \
  BENCHMARK_TEMPLATE(kernel, float, Reference)->Arg(64)->Arg(128)->Arg(256)

MFGPU_KERNEL_BENCH(BM_GemmNT);
MFGPU_KERNEL_BENCH(BM_SyrkLower);
MFGPU_KERNEL_BENCH(BM_TrsmRightLT);
MFGPU_KERNEL_BENCH(BM_Potrf);

}  // namespace
}  // namespace mfgpu

BENCHMARK_MAIN();
