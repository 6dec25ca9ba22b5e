#include "dense/blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dense/matrix.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

Matrix<double> random_matrix(index_t rows, index_t cols, Rng& rng) {
  Matrix<double> m(rows, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) m(i, j) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

// Naive reference gemm.
Matrix<double> reference_gemm(Trans ta, Trans tb, double alpha,
                              const Matrix<double>& a, const Matrix<double>& b,
                              double beta, Matrix<double> c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::NoTrans) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double sum = 0.0;
      for (index_t p = 0; p < k; ++p) {
        const double av = (ta == Trans::NoTrans) ? a(i, p) : a(p, i);
        const double bv = (tb == Trans::NoTrans) ? b(p, j) : b(j, p);
        sum += av * bv;
      }
      c(i, j) = alpha * sum + beta * c(i, j);
    }
  }
  return c;
}

struct GemmCase {
  Trans ta, tb;
  index_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

// Each case's op(A) and op(B) are built explicitly and multiplied through
// the one layout gemm supports, C := alpha * A * B^T + beta * C.
TEST_P(GemmTest, MatchesReference) {
  const GemmCase gc = GetParam();
  Rng rng(7 + static_cast<std::uint64_t>(gc.m * 131 + gc.n * 17 + gc.k));
  const index_t ar = (gc.ta == Trans::NoTrans) ? gc.m : gc.k;
  const index_t ac = (gc.ta == Trans::NoTrans) ? gc.k : gc.m;
  const index_t br = (gc.tb == Trans::NoTrans) ? gc.k : gc.n;
  const index_t bc = (gc.tb == Trans::NoTrans) ? gc.n : gc.k;
  const auto a = random_matrix(ar, ac, rng);
  const auto b = random_matrix(br, bc, rng);
  auto c = random_matrix(gc.m, gc.n, rng);
  const auto expected = reference_gemm(gc.ta, gc.tb, 1.3, a, b, -0.7, c);

  Matrix<double> a_mk(gc.m, gc.k), b_nk(gc.n, gc.k);
  for (index_t p = 0; p < gc.k; ++p) {
    for (index_t i = 0; i < gc.m; ++i) {
      a_mk(i, p) = (gc.ta == Trans::NoTrans) ? a(i, p) : a(p, i);
    }
    for (index_t j = 0; j < gc.n; ++j) {
      b_nk(j, p) = (gc.tb == Trans::NoTrans) ? b(p, j) : b(j, p);
    }
  }
  gemm<double>(Trans::NoTrans, Trans::Transpose, 1.3, a_mk.view(),
               b_nk.view(), -0.7, c.view());
  EXPECT_LT(max_abs_diff<double>(c.view(), expected.view()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(
        GemmCase{Trans::NoTrans, Trans::NoTrans, 5, 7, 3},
        GemmCase{Trans::NoTrans, Trans::Transpose, 9, 4, 6},
        GemmCase{Trans::Transpose, Trans::NoTrans, 4, 9, 6},
        GemmCase{Trans::Transpose, Trans::Transpose, 8, 8, 8},
        GemmCase{Trans::NoTrans, Trans::NoTrans, 70, 65, 80},
        GemmCase{Trans::NoTrans, Trans::Transpose, 130, 70, 66},
        GemmCase{Trans::Transpose, Trans::NoTrans, 66, 130, 70},
        GemmCase{Trans::Transpose, Trans::Transpose, 129, 64, 65},
        GemmCase{Trans::NoTrans, Trans::NoTrans, 1, 1, 1},
        GemmCase{Trans::NoTrans, Trans::Transpose, 1, 64, 64}));

TEST(GemmEdge, ZeroDimensionsAreNoops) {
  Matrix<double> a(0, 0), b(0, 0), c(0, 0);
  EXPECT_NO_THROW(gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0,
                               a.view(), b.view(), 0.0, c.view()));
}

TEST(GemmEdge, BetaZeroOverwritesNaNFree) {
  Rng rng(3);
  auto a = random_matrix(4, 3, rng);
  auto b = random_matrix(5, 3, rng);
  Matrix<double> c(4, 5, std::numeric_limits<double>::quiet_NaN());
  gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, a.view(), b.view(), 0.0,
               c.view());
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 4; ++i) EXPECT_FALSE(std::isnan(c(i, j)));
  }
}

TEST(GemmEdge, ShapeMismatchThrows) {
  Matrix<double> a(4, 3), b(6, 5), c(4, 6);
  EXPECT_THROW(gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, a.view(),
                            b.view(), 0.0, c.view()),
               InvalidArgumentError);
}

TEST(GemmEdge, OnlyNoTransTimesTransposeIsSupported) {
  Matrix<double> a(3, 3), b(3, 3), c(3, 3);
  for (Trans ta : {Trans::NoTrans, Trans::Transpose}) {
    for (Trans tb : {Trans::NoTrans, Trans::Transpose}) {
      if (ta == Trans::NoTrans && tb == Trans::Transpose) continue;
      EXPECT_THROW(
          gemm<double>(ta, tb, 1.0, a.view(), b.view(), 0.0, c.view()),
          InvalidArgumentError);
    }
  }
}

// A NaN must reach every entry it feeds, even where it meets an exact zero:
// 0 * NaN is NaN. (The kernels once skipped zero multipliers, which hid it.)
TEST(GemmEdge, NaNAgainstZeroPropagates) {
  Rng rng(5);
  for (index_t m : {6, 100}) {  // the narrow and the packed path
    auto a = random_matrix(m, 4, rng);
    auto b = random_matrix(m, 4, rng);
    a(2, 1) = std::numeric_limits<double>::quiet_NaN();
    for (index_t j = 0; j < m; ++j) b(j, 1) = 0.0;
    Matrix<double> c(m, m, 0.0);
    gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, a.view(), b.view(),
                 1.0, c.view());
    for (index_t j = 0; j < m; ++j) EXPECT_TRUE(std::isnan(c(2, j))) << j;
  }
}

TEST(SyrkTest, MatchesGemmOnLowerTriangle) {
  Rng rng(11);
  for (index_t n : {1, 2, 5, 17, 64, 130}) {
    for (index_t k : {1, 3, 16, 65}) {
      auto a = random_matrix(n, k, rng);
      auto c = random_matrix(n, n, rng);
      auto full = c;
      gemm<double>(Trans::NoTrans, Trans::Transpose, -1.0, a.view(), a.view(),
                   1.0, full.view());
      syrk_lower<double>(-1.0, a.view(), 1.0, c.view());
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = j; i < n; ++i) {
          EXPECT_NEAR(c(i, j), full(i, j), 1e-11) << n << "x" << k;
        }
      }
    }
  }
}

TEST(SyrkTest, UpperTriangleUntouched) {
  Rng rng(13);
  auto a = random_matrix(6, 4, rng);
  Matrix<double> c(6, 6, 42.0);
  syrk_lower<double>(1.0, a.view(), 1.0, c.view());
  for (index_t j = 1; j < 6; ++j) {
    for (index_t i = 0; i < j; ++i) EXPECT_EQ(c(i, j), 42.0);
  }
}

TEST(SyrkTest, NaNAgainstZeroPropagates) {
  Rng rng(15);
  for (index_t n : {7, 100}) {  // the narrow and the packed path
    auto a = random_matrix(n, 3, rng);
    for (index_t i = 0; i < n; ++i) a(i, 2) = 0.0;
    a(4, 2) = std::numeric_limits<double>::quiet_NaN();
    Matrix<double> c(n, n, 0.0);
    syrk_lower<double>(-1.0, a.view(), 1.0, c.view());
    for (index_t j = 0; j <= 4; ++j) EXPECT_TRUE(std::isnan(c(4, j))) << j;
  }
}

TEST(TrsmTest, RightLowerTransposeSolves) {
  Rng rng(17);
  for (index_t k : {1, 2, 7, 33, 100}) {
    for (index_t m : {1, 5, 50}) {
      auto l = random_matrix(k, k, rng);
      for (index_t j = 0; j < k; ++j) {
        l(j, j) = 3.0 + std::abs(l(j, j));
        for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;
      }
      auto x_true = random_matrix(m, k, rng);
      Matrix<double> b(m, k);
      gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, x_true.view(),
                   l.view(), 0.0, b.view());
      trsm<double>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
                   1.0, l.view(), b.view());
      EXPECT_LT(max_abs_diff<double>(b.view(), x_true.view()), 1e-10);
    }
  }
}

TEST(TrsmTest, NaNBehindZeroMultiplierPropagates) {
  // L is diagonal, so every l_jp below the diagonal is an exact zero; the
  // NaN in column 1 of the right-hand side still reaches x_j for j > 1,
  // both inside the first column block and through the update of later
  // ones (k = 40 spans two blocks; m = 100 takes the packed update).
  for (index_t m : {3, 100}) {
    const index_t k = 40;
    Matrix<double> l(k, k, 0.0);
    for (index_t j = 0; j < k; ++j) l(j, j) = 2.0;
    Matrix<double> b(m, k, 1.0);
    b(1, 1) = std::numeric_limits<double>::quiet_NaN();
    trsm<double>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
                 1.0, l.view(), b.view());
    EXPECT_EQ(b(1, 0), 0.5);
    for (index_t j = 1; j < k; ++j) EXPECT_TRUE(std::isnan(b(1, j))) << j;
    for (index_t j = 0; j < k; ++j) EXPECT_EQ(b(0, j), 0.5) << j;
  }
}

TEST(TrsmTest, LeftSideThrows) {
  Matrix<double> l(3, 3, 1.0), b(3, 2);
  for (Trans trans : {Trans::NoTrans, Trans::Transpose}) {
    EXPECT_THROW(trsm<double>(Side::Left, Uplo::Lower, trans, Diag::NonUnit,
                              1.0, l.view(), b.view()),
                 InvalidArgumentError);
  }
}

TEST(TrsmTest, UpperUnsupportedThrows) {
  Matrix<double> l(3, 3), b(2, 3);
  EXPECT_THROW(trsm<double>(Side::Right, Uplo::Upper, Trans::Transpose,
                            Diag::NonUnit, 1.0, l.view(), b.view()),
               InvalidArgumentError);
}

TEST(OpCountTest, PaperConventions) {
  EXPECT_EQ(potrf_ops(30), 9000);
  EXPECT_EQ(trsm_ops(10, 4), 160);
  EXPECT_EQ(syrk_ops(10, 4), 400);
  EXPECT_EQ(gemm_ops(2, 3, 4), 48);
}

}  // namespace
}  // namespace mfgpu
