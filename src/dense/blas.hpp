// Level-3 BLAS kernels implemented from scratch (the paper offloads exactly
// these to ATLAS on the host and CUBLAS on the GPU: gemm, syrk, trsm).
//
// Only the variants the multifrontal algorithm calls are implemented; other
// combinations throw InvalidArgumentError. gemm, syrk and the trsm updates
// run on one register-blocked SIMD micro-kernel (blas.cpp), and every output
// entry keeps the operation sequence of the plain loops in
// dense/reference.hpp, which the tests check bitwise. All matrices are
// column-major.
#pragma once

#include "dense/matrix.hpp"
#include "support/error.hpp"

namespace mfgpu {

enum class Trans { NoTrans, Transpose };
enum class Uplo { Lower, Upper };
enum class Side { Left, Right };
enum class Diag { NonUnit, Unit };

/// C := alpha * A * B^T + beta * C with A (M x K), B (N x K), C (M x N):
/// trans_a must be NoTrans and trans_b Transpose.
template <typename T>
void gemm(Trans trans_a, Trans trans_b, T alpha, MatrixView<const T> a,
          MatrixView<const T> b, T beta, MatrixView<T> c);

/// Symmetric rank-k update, lower triangle only:
/// C := alpha * A * A^T + beta * C with A (N x K), C (N x N).
/// This is the paper's syrk kernel (U^n -= L2 * L2^T uses alpha = -1).
template <typename T>
void syrk_lower(T alpha, MatrixView<const T> a, T beta, MatrixView<T> c);

/// Triangular solve with multiple right-hand sides: Side::Right,
/// Trans::Transpose, Uplo::Lower solves X * L^T = alpha * B in place (the
/// paper's trsm: L2 := L2 * L1^{-T}).
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          MatrixView<const T> a, MatrixView<T> b);

/// Number of floating point operations for each kernel: the conventional
/// leading-order counts, a multiply-add counted as 2 flops (potrf k^3/3,
/// trsm m k^2, syrk m^2 k, gemm 2 m n k), as in the paper's Section IV-B, so
/// rates are comparable with Table III.
index_t potrf_ops(index_t k);
index_t trsm_ops(index_t m, index_t k);
index_t syrk_ops(index_t m, index_t k);
index_t gemm_ops(index_t m, index_t n, index_t k);

}  // namespace mfgpu
