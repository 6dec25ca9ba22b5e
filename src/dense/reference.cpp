#include "dense/reference.hpp"

#include <algorithm>
#include <cmath>

namespace mfgpu::reference {

template <typename T>
void gemm(Trans trans_a, Trans trans_b, T alpha, MatrixView<const T> a,
          MatrixView<const T> b, T beta, MatrixView<T> c) {
  if (trans_a != Trans::NoTrans || trans_b != Trans::Transpose) {
    throw InvalidArgumentError("gemm: only C := alpha A B^T + beta C");
  }
  MFGPU_CHECK(a.rows() == c.rows() && b.rows() == c.cols() &&
                  a.cols() == b.cols(),
              "gemm: shape mismatch");
  scale(beta, c);
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  if (m == 0 || n == 0 || k == 0 || alpha == T{}) return;

  // Tile over (j, p, i) so panels of A and B stay cache resident.
  constexpr index_t kBlock = 64;
  for (index_t j0 = 0; j0 < n; j0 += kBlock) {
    const index_t jb = std::min(kBlock, n - j0);
    for (index_t p0 = 0; p0 < k; p0 += kBlock) {
      const index_t pb = std::min(kBlock, k - p0);
      for (index_t i0 = 0; i0 < m; i0 += kBlock) {
        const index_t ib = std::min(kBlock, m - i0);
        for (index_t j = j0; j < j0 + jb; ++j) {
          for (index_t p = p0; p < p0 + pb; ++p) {
            const T scale = alpha * b(j, p);
            const T* __restrict__ acol = &a(i0, p);
            T* __restrict__ ccol = &c(i0, j);
            for (index_t i = 0; i < ib; ++i) ccol[i] += scale * acol[i];
          }
        }
      }
    }
  }
}

template <typename T>
void syrk_lower(T alpha, MatrixView<const T> a, T beta, MatrixView<T> c) {
  const index_t n = c.rows();
  const index_t k = a.cols();
  MFGPU_CHECK(c.cols() == n && a.rows() == n, "syrk_lower: shape mismatch");
  if (beta != T{1}) {
    for (index_t j = 0; j < n; ++j) {
      T* __restrict__ col = &c(0, j);
      for (index_t i = j; i < n; ++i) {
        col[i] = (beta == T{}) ? T{} : beta * col[i];
      }
    }
  }
  if (n == 0 || k == 0 || alpha == T{}) return;

  for (index_t j = 0; j < n; ++j) {
    for (index_t p = 0; p < k; ++p) {
      const T scale = alpha * a(j, p);
      const T* __restrict__ acol = &a(0, p);
      T* __restrict__ ccol = &c(0, j);
      for (index_t i = j; i < n; ++i) ccol[i] += scale * acol[i];
    }
  }
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          MatrixView<const T> a, MatrixView<T> b) {
  MFGPU_CHECK(a.rows() == a.cols(), "trsm: A must be square");
  MFGPU_CHECK(uplo == Uplo::Lower, "trsm: only lower-triangular A supported");
  if (side != Side::Right || trans != Trans::Transpose) {
    throw InvalidArgumentError("trsm: only X * L^T = alpha B");
  }
  const index_t n = a.rows();
  MFGPU_CHECK(b.cols() == n, "trsm right: B column count must match A");
  scale(alpha, b);

  // Solve X * L^T = B  =>  column sweep: x_j = (b_j - sum_{p<j} x_p l_jp)/l_jj.
  const index_t m = b.rows();
  for (index_t j = 0; j < n; ++j) {
    T* __restrict__ bj = &b(0, j);
    for (index_t p = 0; p < j; ++p) {
      const T l_jp = a(j, p);
      const T* __restrict__ bp = &b(0, p);
      for (index_t i = 0; i < m; ++i) bj[i] -= l_jp * bp[i];
    }
    if (diag == Diag::NonUnit) {
      const T inv = T{1} / a(j, j);
      for (index_t i = 0; i < m; ++i) bj[i] *= inv;
    }
  }
}

template <typename T>
void potrf_unblocked(MatrixView<T> a, index_t column_offset) {
  MFGPU_CHECK(a.rows() == a.cols(), "potrf: matrix must be square");
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
    for (index_t i = j + 1; i < n; ++i) {
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
    reference::potrf_unblocked(pivot_block, column_offset + j0);

    const index_t rest = n - j0 - jb;
    if (rest == 0) continue;
    auto below = a.block(j0 + jb, j0, rest, jb);
    reference::trsm<T>(Side::Right, Uplo::Lower, Trans::Transpose,
                       Diag::NonUnit, T{1}, pivot_block, below);
    reference::syrk_lower<T>(T{-1}, below, T{1},
                             a.block(j0 + jb, j0 + jb, rest, rest));
  }
}

#define MFGPU_REFERENCE_INSTANTIATE(T)                                      \
  template void gemm<T>(Trans, Trans, T, MatrixView<const T>,               \
                        MatrixView<const T>, T, MatrixView<T>);             \
  template void syrk_lower<T>(T, MatrixView<const T>, T, MatrixView<T>);    \
  template void trsm<T>(Side, Uplo, Trans, Diag, T, MatrixView<const T>,    \
                        MatrixView<T>);                                     \
  template void potrf_unblocked<T>(MatrixView<T>, index_t);                 \
  template void potrf<T>(MatrixView<T>, index_t, index_t);

MFGPU_REFERENCE_INSTANTIATE(float)
MFGPU_REFERENCE_INSTANTIATE(double)

}  // namespace mfgpu::reference
