#include "dense/potrf.hpp"

#include <cmath>

#include "dense/simd.hpp"

namespace mfgpu {
namespace {

// a(i, j) = (a(i, j) - sum_{p<j} a(i, p) a(j, p)) * inv for the RV vectors
// of rows starting at i0: the left-looking dot products, rows in the lanes.
template <typename T, int RV>
void potrf_column_rows(MatrixView<T> a, index_t j, index_t i0, T inv) {
  constexpr int W = simd::kWidth<T>;
  simd::Vec<T> acc[RV];
#pragma GCC unroll 8
  for (int v = 0; v < RV; ++v) acc[v] = simd::load(&a(i0 + v * W, j));
  for (index_t p = 0; p < j; ++p) {
    const simd::Vec<T> a_jp = simd::splat(a(j, p));
#pragma GCC unroll 8
    for (int v = 0; v < RV; ++v) {
      acc[v] -= simd::load(&a(i0 + v * W, p)) * a_jp;
    }
  }
  const simd::Vec<T> scale = simd::splat(inv);
#pragma GCC unroll 8
  for (int v = 0; v < RV; ++v) simd::store(&a(i0 + v * W, j), acc[v] * scale);
}

}  // namespace

template <typename T>
void potrf_unblocked(MatrixView<T> a, index_t column_offset) {
  MFGPU_CHECK(a.rows() == a.cols(), "potrf: matrix must be square");
  using Tile = simd::Tile<T>;
  constexpr int W = simd::kWidth<T>;
  const index_t n = a.rows();
  for (index_t j = 0; j < n; ++j) {
    T diag = a(j, j);
    for (index_t p = 0; p < j; ++p) diag -= a(j, p) * a(j, p);
    if (!(diag > T{})) {
      throw NotPositiveDefiniteError(column_offset + j,
                                     static_cast<double>(diag));
    }
    const T pivot = std::sqrt(diag);
    a(j, j) = pivot;
    const T inv = T{1} / pivot;
    index_t i = j + 1;
    for (; i + Tile::kStrip <= n; i += Tile::kStrip) {
      potrf_column_rows<T, Tile::kStripV>(a, j, i, inv);
    }
    for (; i + W <= n; i += W) potrf_column_rows<T, 1>(a, j, i, inv);
    for (; i < n; ++i) {
      T value = a(i, j);
      for (index_t p = 0; p < j; ++p) value -= a(i, p) * a(j, p);
      a(i, j) = value * inv;
    }
  }
}

template <typename T>
void potrf(MatrixView<T> a, index_t block, index_t column_offset) {
  MFGPU_CHECK(a.rows() == a.cols(), "potrf: matrix must be square");
  MFGPU_CHECK(block > 0, "potrf: block must be positive");
  const index_t n = a.rows();
  for (index_t j0 = 0; j0 < n; j0 += block) {
    const index_t jb = std::min(block, n - j0);
    auto pivot_block = a.block(j0, j0, jb, jb);
    potrf_unblocked(pivot_block, column_offset + j0);

    const index_t rest = n - j0 - jb;
    if (rest == 0) continue;
    auto below = a.block(j0 + jb, j0, rest, jb);
    trsm<T>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit, T{1},
            pivot_block, below);
    syrk_lower<T>(T{-1}, below, T{1}, a.block(j0 + jb, j0 + jb, rest, rest));
  }
}

template void potrf_unblocked<float>(MatrixView<float>, index_t);
template void potrf_unblocked<double>(MatrixView<double>, index_t);
template void potrf<float>(MatrixView<float>, index_t, index_t);
template void potrf<double>(MatrixView<double>, index_t, index_t);

}  // namespace mfgpu
