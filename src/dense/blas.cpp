#include "dense/blas.hpp"

#include <algorithm>

#include "dense/simd.hpp"

namespace mfgpu {
namespace {

using simd::Vec;

// C(MR x NR) += Â·B̂ᵀ over kc steps, the accumulators in registers for the
// whole loop. Â holds kc groups of MR entries (one sliver of rows), B̂ kc
// groups of NR vectors, each alpha * b(j, p) splat across the lanes. Every
// entry sees c = c + (alpha * b(j, p)) * a(i, p) for p ascending.
template <typename T>
void micro_kernel(index_t kc, const T* __restrict__ a_packed,
                  const T* __restrict__ b_packed, T* __restrict__ c,
                  index_t ldc) {
  using Tile = simd::Tile<T>;
  constexpr int MV = Tile::kMV, NR = Tile::kNR, W = simd::kWidth<T>;
  const T* a = static_cast<const T*>(__builtin_assume_aligned(a_packed, 16));
  const T* b = static_cast<const T*>(__builtin_assume_aligned(b_packed, 16));
  Vec<T> acc[NR][MV];
#pragma GCC unroll 8
  for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 8
    for (int v = 0; v < MV; ++v) acc[j][v] = simd::load(c + j * ldc + v * W);
  }
  for (index_t p = 0; p < kc; ++p, a += MV * W, b += NR * W) {
    Vec<T> av[MV];
#pragma GCC unroll 8
    for (int v = 0; v < MV; ++v) av[v] = simd::load(a + v * W);
#pragma GCC unroll 8
    for (int j = 0; j < NR; ++j) {
      const Vec<T> bj = simd::load(b + j * W);
#pragma GCC unroll 8
      for (int v = 0; v < MV; ++v) acc[j][v] += bj * av[v];
    }
  }
#pragma GCC unroll 8
  for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 8
    for (int v = 0; v < MV; ++v) simd::store(c + j * ldc + v * W, acc[j][v]);
  }
}

// A partial or diagonal-crossing tile: the kernel runs on a register-sized
// copy, and only entries (i, j) with i - j + diag >= 0 are read from and
// written back to c (diag >= NR keeps them all).
template <typename T>
void edge_tile(index_t kc, const T* a_packed, const T* b_packed,
               MatrixView<T> c, index_t diag) {
  using Tile = simd::Tile<T>;
  constexpr index_t MR = Tile::kMR, NR = Tile::kNR;
  alignas(16) T tile[MR * NR];
  for (index_t j = 0; j < NR; ++j) {
    for (index_t i = 0; i < MR; ++i) {
      const bool keep = i < c.rows() && j < c.cols() && i - j + diag >= 0;
      tile[i + j * MR] = keep ? c(i, j) : T{};
    }
  }
  micro_kernel(kc, a_packed, b_packed, tile, MR);
  for (index_t j = 0; j < c.cols(); ++j) {
    for (index_t i = std::max<index_t>(0, j - diag); i < c.rows(); ++i) {
      c(i, j) = tile[i + j * MR];
    }
  }
}

// Â: the rows of `a` (mc x kc) in slivers of MR, each stored p-major and
// zero-padded to MR rows.
template <typename T>
void pack_a(MatrixView<const T> a, T* out) {
  constexpr index_t MR = simd::Tile<T>::kMR;
  const index_t mc = a.rows(), kc = a.cols();
  for (index_t i0 = 0; i0 < mc; i0 += MR, out += MR * kc) {
    const index_t mr = std::min(MR, mc - i0);
    for (index_t p = 0; p < kc; ++p) {
      const T* src = &a(i0, p);
      T* dst = out + p * MR;
      if (mr == MR) {
        std::copy(src, src + MR, dst);
      } else {
        std::copy(src, src + mr, dst);
        std::fill(dst + mr, dst + MR, T{});
      }
    }
  }
}

// B̂: the rows of `b` (nc x kc) in groups of NR, each value alpha * b(j, p)
// splat across a vector, zero-padded to NR columns.
template <typename T>
void pack_b(T alpha, MatrixView<const T> b, T* out) {
  constexpr index_t NR = simd::Tile<T>::kNR;
  constexpr int W = simd::kWidth<T>;
  const index_t nc = b.rows(), kc = b.cols();
  for (index_t j0 = 0; j0 < nc; j0 += NR, out += NR * W * kc) {
    const index_t nr = std::min(NR, nc - j0);
    for (index_t p = 0; p < kc; ++p) {
      const T* src = &b(j0, p);
      T* dst = out + p * NR * W;
      for (index_t j = 0; j < NR; ++j) {
        simd::store(dst + j * W, simd::splat(j < nr ? alpha * src[j] : T{}));
      }
    }
  }
}

// C(m x n) += alpha * A(m x k) * B(n x k)^T through the micro-kernel. With
// kLower only the entries on or below the diagonal of C are read or written.
template <typename T, bool kLower>
void gemm_nt_packed(T alpha, MatrixView<const T> a, MatrixView<const T> b,
                    MatrixView<T> c) {
  using Tile = simd::Tile<T>;
  constexpr index_t MR = Tile::kMR, NR = Tile::kNR, KC = Tile::kKC,
                    MC = Tile::kMC, NC = Tile::kNC;
  constexpr int W = simd::kWidth<T>;
  alignas(16) T a_packed[MC * KC];
  alignas(16) T b_packed[NC * KC * W];
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  for (index_t pc = 0; pc < k; pc += KC) {
    const index_t kc = std::min(KC, k - pc);
    for (index_t jc = 0; jc < n; jc += NC) {
      const index_t nc = std::min(NC, n - jc);
      pack_b(alpha, b.block(jc, pc, nc, kc), b_packed);
      for (index_t ic = kLower ? jc : 0; ic < m; ic += MC) {
        const index_t mc = std::min(MC, m - ic);
        pack_a(a.block(ic, pc, mc, kc), a_packed);
        for (index_t jr = 0; jr < nc; jr += NR) {
          const index_t nr = std::min(NR, nc - jr);
          const T* b_tile = b_packed + jr * kc * W;
          for (index_t ir = 0; ir < mc; ir += MR) {
            const index_t mr = std::min(MR, mc - ir);
            const index_t i = ic + ir, j = jc + jr;
            if (kLower && i + mr <= j) continue;  // wholly above the diagonal
            const T* a_tile = a_packed + ir * kc;
            const index_t diag = kLower ? i - j : NR;
            if (mr == MR && nr == NR && diag >= NR - 1) {
              micro_kernel(kc, a_tile, b_tile, &c(i, j), c.ld());
            } else {
              edge_tile(kc, a_tile, b_tile, c.block(i, j, mr, nr), diag);
            }
          }
        }
      }
    }
  }
}

// C(m x n) += alpha * A * B^T column by column for the RV vectors of rows
// starting at i0, straight from the operands: the narrow-shape path, where
// packing and partial tiles would cost more than they save. Same operation
// sequence per entry as the micro-kernel.
template <typename T, int RV>
void direct_rows(T alpha, MatrixView<const T> a, MatrixView<const T> b,
                 MatrixView<T> c, index_t i0, index_t j) {
  constexpr int W = simd::kWidth<T>;
  Vec<T> acc[RV];
#pragma GCC unroll 8
  for (int v = 0; v < RV; ++v) acc[v] = simd::load(&c(i0 + v * W, j));
  for (index_t p = 0; p < a.cols(); ++p) {
    const Vec<T> scale = simd::splat(alpha * b(j, p));
#pragma GCC unroll 8
    for (int v = 0; v < RV; ++v) {
      acc[v] += scale * simd::load(&a(i0 + v * W, p));
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < RV; ++v) simd::store(&c(i0 + v * W, j), acc[v]);
}

template <typename T, bool kLower>
void gemm_nt_direct(T alpha, MatrixView<const T> a, MatrixView<const T> b,
                    MatrixView<T> c) {
  using Tile = simd::Tile<T>;
  constexpr int W = simd::kWidth<T>;
  const index_t m = c.rows();
  for (index_t j = 0; j < c.cols(); ++j) {
    index_t i = kLower ? j : 0;
    for (; i + Tile::kStrip <= m; i += Tile::kStrip) {
      direct_rows<T, Tile::kStripV>(alpha, a, b, c, i, j);
    }
    for (; i + W <= m; i += W) direct_rows<T, 1>(alpha, a, b, c, i, j);
    if (i == m) continue;
    T* __restrict__ ccol = &c(0, j);
    for (index_t p = 0; p < a.cols(); ++p) {
      const T scale = alpha * b(j, p);
      const T* __restrict__ acol = &a(0, p);
      for (index_t r = i; r < m; ++r) ccol[r] += scale * acol[r];
    }
  }
}

// C(m x n) += alpha * A * B^T, through the packed micro-kernel or, for narrow
// shapes, the direct loop; both give the same bits. Below about 48 rows (or
// NR columns) packing and partial tiles cost more than the register tile
// saves (measured on syrk, the dominant call, for k = 1..128).
template <typename T, bool kLower>
void gemm_nt_update(T alpha, MatrixView<const T> a, MatrixView<const T> b,
                    MatrixView<T> c) {
  using Tile = simd::Tile<T>;
  if (c.rows() < Tile::kDirectRows || c.cols() < Tile::kNR) {
    gemm_nt_direct<T, kLower>(alpha, a, b, c);
  } else {
    gemm_nt_packed<T, kLower>(alpha, a, b, c);
  }
}

// The diagonal block of the trsm: x_j = (x_j - sum_{p<j} l_jp x_p) * inv_jj
// for the RV vectors of rows starting at i0, the rows in the lanes.
template <typename T, int RV>
void trsm_triangle_rows(Diag diag, MatrixView<const T> l, MatrixView<T> x,
                        index_t i0) {
  constexpr int W = simd::kWidth<T>;
  for (index_t j = 0; j < l.rows(); ++j) {
    Vec<T> acc[RV];
#pragma GCC unroll 8
    for (int v = 0; v < RV; ++v) acc[v] = simd::load(&x(i0 + v * W, j));
    for (index_t p = 0; p < j; ++p) {
      const Vec<T> l_jp = simd::splat(l(j, p));
#pragma GCC unroll 8
      for (int v = 0; v < RV; ++v) {
        acc[v] -= l_jp * simd::load(&x(i0 + v * W, p));
      }
    }
    if (diag == Diag::NonUnit) {
      const Vec<T> inv = simd::splat(T{1} / l(j, j));
#pragma GCC unroll 8
      for (int v = 0; v < RV; ++v) acc[v] *= inv;
    }
#pragma GCC unroll 8
    for (int v = 0; v < RV; ++v) simd::store(&x(i0 + v * W, j), acc[v]);
  }
}

template <typename T>
void trsm_triangle(Diag diag, MatrixView<const T> l, MatrixView<T> x) {
  using Tile = simd::Tile<T>;
  constexpr int W = simd::kWidth<T>;
  const index_t m = x.rows();
  index_t i0 = 0;
  for (; i0 + Tile::kStrip <= m; i0 += Tile::kStrip) {
    trsm_triangle_rows<T, Tile::kStripV>(diag, l, x, i0);
  }
  for (; i0 + W <= m; i0 += W) trsm_triangle_rows<T, 1>(diag, l, x, i0);
  for (; i0 < m; ++i0) {
    for (index_t j = 0; j < l.rows(); ++j) {
      T value = x(i0, j);
      for (index_t p = 0; p < j; ++p) value -= l(j, p) * x(i0, p);
      if (diag == Diag::NonUnit) value *= T{1} / l(j, j);
      x(i0, j) = value;
    }
  }
}

template <typename T>
void scale_lower(T beta, MatrixView<T> c) {
  if (beta == T{1}) return;
  for (index_t j = 0; j < c.cols(); ++j) {
    T* __restrict__ col = &c(0, j);
    for (index_t i = j; i < c.rows(); ++i) {
      col[i] = (beta == T{}) ? T{} : beta * col[i];
    }
  }
}

}  // namespace

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
  if (c.empty() || a.cols() == 0 || alpha == T{}) return;
  gemm_nt_update<T, false>(alpha, a, b, c);
}

template <typename T>
void syrk_lower(T alpha, MatrixView<const T> a, T beta, MatrixView<T> c) {
  const index_t n = c.rows();
  MFGPU_CHECK(c.cols() == n && a.rows() == n, "syrk_lower: shape mismatch");
  // Scale the lower triangle only; the upper triangle is never referenced.
  scale_lower(beta, c);
  if (n == 0 || a.cols() == 0 || alpha == T{}) return;
  gemm_nt_update<T, true>(alpha, a, a, c);
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
  if (b.rows() == 0) return;

  // Solve X * L^T = B one column block J at a time: first subtract the
  // solved columns before J through the micro-kernel (alpha = -1 packs
  // -l_jp, and x + (-l) * y is bitwise x - l * y), then the triangle.
  constexpr index_t NB = simd::Tile<T>::kTrsmNB;
  const index_t m = b.rows();
  for (index_t j0 = 0; j0 < n; j0 += NB) {
    const index_t jb = std::min(NB, n - j0);
    auto xj = b.block(0, j0, m, jb);
    if (j0 > 0) {
      gemm_nt_update<T, false>(T{-1}, b.block(0, 0, m, j0),
                               a.block(j0, 0, jb, j0), xj);
    }
    trsm_triangle(diag, a.block(j0, j0, jb, jb), xj);
  }
}

index_t potrf_ops(index_t k) { return k * k * k / 3; }
index_t trsm_ops(index_t m, index_t k) { return m * k * k; }
index_t syrk_ops(index_t m, index_t k) { return m * m * k; }
index_t gemm_ops(index_t m, index_t n, index_t k) { return 2 * m * n * k; }

// Explicit instantiations for the two precisions the system uses.
template void gemm<float>(Trans, Trans, float, MatrixView<const float>,
                          MatrixView<const float>, float, MatrixView<float>);
template void gemm<double>(Trans, Trans, double, MatrixView<const double>,
                           MatrixView<const double>, double,
                           MatrixView<double>);
template void syrk_lower<float>(float, MatrixView<const float>, float,
                                MatrixView<float>);
template void syrk_lower<double>(double, MatrixView<const double>, double,
                                 MatrixView<double>);
template void trsm<float>(Side, Uplo, Trans, Diag, float,
                          MatrixView<const float>, MatrixView<float>);
template void trsm<double>(Side, Uplo, Trans, Diag, double,
                           MatrixView<const double>, MatrixView<double>);

}  // namespace mfgpu
