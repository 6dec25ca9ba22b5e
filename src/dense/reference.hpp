// Plain-loop reference versions of the dense kernels: the scalar loops the
// fast kernels in blas.cpp / potrf.cpp replaced, same signatures and same
// supported combinations. Every output entry of a fast kernel follows the
// operation sequence of its reference, so tests compare the two bitwise
// (memcmp) and bench_kernels_micro times one against the other.
#pragma once

#include "dense/blas.hpp"
#include "dense/matrix.hpp"

namespace mfgpu::reference {

template <typename T>
void gemm(Trans trans_a, Trans trans_b, T alpha, MatrixView<const T> a,
          MatrixView<const T> b, T beta, MatrixView<T> c);

template <typename T>
void syrk_lower(T alpha, MatrixView<const T> a, T beta, MatrixView<T> c);

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          MatrixView<const T> a, MatrixView<T> b);

template <typename T>
void potrf_unblocked(MatrixView<T> a, index_t column_offset = 0);

template <typename T>
void potrf(MatrixView<T> a, index_t block = 64, index_t column_offset = 0);

}  // namespace mfgpu::reference
