// Column-major dense matrix container and non-owning view.
//
// All dense kernels in mfgpu operate on MatrixView<T>, so the same code path
// serves owning matrices, frontal-matrix slices, and panels of the supernodal
// factor. Column-major layout matches the BLAS/LAPACK convention used by the
// paper's kernels (potrf / trsm / syrk).
#pragma once

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "support/error.hpp"

namespace mfgpu {

/// Non-owning view of a column-major matrix block.
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    MFGPU_CHECK(rows >= 0 && cols >= 0 && ld >= rows &&
                    (rows == 0 || ld >= 1),
                "MatrixView: invalid dimensions");
  }

  T* data() const noexcept { return data_; }
  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  index_t ld() const noexcept { return ld_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  T& operator()(index_t i, index_t j) const {
    return data_[i + j * ld_];
  }

  /// Sub-block view of `r` rows and `c` columns starting at (i0, j0).
  MatrixView block(index_t i0, index_t j0, index_t r, index_t c) const {
    MFGPU_CHECK(i0 >= 0 && j0 >= 0 && i0 + r <= rows_ && j0 + c <= cols_,
                "MatrixView::block: out of range");
    return MatrixView(data_ + i0 + j0 * ld_, r, c, ld_);
  }

  /// View of a single column as an (rows x 1) matrix.
  MatrixView col(index_t j) const { return block(0, j, rows_, 1); }

  /// A mutable view converts implicitly to a read-only view.
  operator MatrixView<const T>() const
    requires(!std::is_const_v<T>)
  {
    return MatrixView<const T>(data_, rows_, cols_, ld_);
  }

 private:
  T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Owning column-major matrix. Leading dimension always equals rows().
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  T& operator()(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }
  const T& operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }

  MatrixView<T> view() { return MatrixView<T>(data(), rows_, cols_, rows_); }
  MatrixView<const T> view() const {
    return MatrixView<const T>(data(), rows_, cols_, rows_);
  }
  /// Mutable block view.
  MatrixView<T> block(index_t i0, index_t j0, index_t r, index_t c) {
    return view().block(i0, j0, r, c);
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

 private:
  static std::size_t checked_size(index_t rows, index_t cols) {
    MFGPU_CHECK(rows >= 0 && cols >= 0, "Matrix: negative dimensions");
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<T> data_;
};

/// Copy src into dst; shapes must match (leading dimensions may differ).
template <typename T, typename U>
void copy_into(MatrixView<U> src, MatrixView<T> dst) {
  MFGPU_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols(),
              "copy_into: shape mismatch");
  for (index_t j = 0; j < src.cols(); ++j) {
    for (index_t i = 0; i < src.rows(); ++i) {
      dst(i, j) = static_cast<T>(src(i, j));
    }
  }
}

/// c := beta * c; beta == 0 writes zeros (the BLAS convention, so NaNs in
/// c do not survive), beta == 1 leaves c untouched.
template <typename T>
void scale(T beta, MatrixView<T> c) {
  if (beta == T{1}) return;
  for (index_t j = 0; j < c.cols(); ++j) {
    T* col = &c(0, j);
    if (beta == T{}) {
      std::fill(col, col + c.rows(), T{});
    } else {
      for (index_t i = 0; i < c.rows(); ++i) col[i] *= beta;
    }
  }
}

/// Frobenius norm of a view.
template <typename T>
double frobenius_norm(MatrixView<const T> a) {
  double sum = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const double v = static_cast<double>(a(i, j));
      sum += v * v;
    }
  }
  return std::sqrt(sum);
}

/// Max-abs difference between two equally shaped views.
template <typename T>
double max_abs_diff(MatrixView<const T> a, MatrixView<const T> b) {
  MFGPU_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              "max_abs_diff: shape mismatch");
  double best = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      best = std::max(best,
                      std::abs(static_cast<double>(a(i, j)) -
                               static_cast<double>(b(i, j))));
    }
  }
  return best;
}

}  // namespace mfgpu
