// The fast dense kernels against their plain-loop references, bitwise
// (memcmp), in float and double. The shape sweeps hit every remainder of
// the micro-kernel tile (MR, NR), of the row strip of the rows-in-lanes
// loops, of the trsm column block and of the k panel, on the narrow (direct)
// and the packed paths, on strided views (ld > rows). Comparing the backing
// storage also checks that nothing outside the view is written.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dense/blas.hpp"
#include "dense/potrf.hpp"
#include "dense/reference.hpp"
#include "dense/simd.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

constexpr index_t kPad = 3;  // extra rows below every view: ld = rows + 3

/// A rows x cols view with ld = rows + kPad into random storage.
template <typename T>
struct Strided {
  Matrix<T> storage;

  Strided(index_t rows, index_t cols, Rng& rng, double lo = -1.0,
          double hi = 1.0)
      : storage(rows + kPad, cols) {
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = 0; i < rows + kPad; ++i) {
        storage(i, j) = static_cast<T>(rng.uniform(lo, hi));
      }
    }
  }
  MatrixView<T> view() {
    return storage.view().block(0, 0, storage.rows() - kPad, storage.cols());
  }
  MatrixView<const T> cview() const {
    return const_cast<Strided*>(this)->view();
  }
  bool same_bits(const Strided& other) const {
    const std::size_t bytes = sizeof(T) * storage.rows() * storage.cols();
    return storage.rows() == other.storage.rows() &&
           storage.cols() == other.storage.cols() &&
           (bytes == 0 ||
            std::memcmp(storage.data(), other.storage.data(), bytes) == 0);
  }
};

/// from .. from + 2 * step + 1, then `extra`.
std::vector<index_t> sweep(index_t from, index_t step,
                           std::vector<index_t> extra = {}) {
  std::vector<index_t> sizes;
  for (index_t s = from; s <= from + 2 * step + 1; ++s) sizes.push_back(s);
  sizes.insert(sizes.end(), extra.begin(), extra.end());
  return sizes;
}

/// Row counts for the products behind gemm / syrk / trsm: every remainder
/// of `step` on the direct (narrow) path and on the packed path, and sizes
/// past a packing block.
template <typename T>
std::vector<index_t> product_rows(index_t step) {
  using Tile = simd::Tile<T>;
  return sweep(0, step,
               sweep(Tile::kDirectRows, step,
                     {Tile::kMC + Tile::kMR + 1, Tile::kNC + Tile::kMR + 1}));
}

template <typename T>
class KernelsBitwise : public ::testing::Test {
 protected:
  using Tile = simd::Tile<T>;
  static constexpr T kScalars[] = {T{-1}, T{0.5}, T{1}, T{0}};
};

using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(KernelsBitwise, Precisions);

template <typename T>
void expect_gemm_matches(index_t m, index_t n, index_t k, T alpha, T beta,
                         Rng& rng) {
  Strided<T> a(m, k, rng), b(n, k, rng), c(m, n, rng);
  Strided<T> expected = c;
  gemm<T>(Trans::NoTrans, Trans::Transpose, alpha, a.cview(), b.cview(), beta,
          c.view());
  reference::gemm<T>(Trans::NoTrans, Trans::Transpose, alpha, a.cview(),
                     b.cview(), beta, expected.view());
  EXPECT_TRUE(c.same_bits(expected))
      << "gemm m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
      << " beta=" << beta;
}

TYPED_TEST(KernelsBitwise, GemmNtTileRemainders) {
  using T = TypeParam;
  using Tile = typename TestFixture::Tile;
  Rng rng(101);
  for (index_t m : product_rows<T>(Tile::kMR)) {
    for (index_t n : sweep(0, Tile::kNR, {Tile::kNC + 1})) {
      for (index_t k : {0, 1, 2, 5}) {
        for (T alpha : this->kScalars) {
          for (T beta : this->kScalars) {
            expect_gemm_matches<T>(m, n, k, alpha, beta, rng);
          }
        }
      }
    }
  }
}

TYPED_TEST(KernelsBitwise, GemmNtPanelRemainders) {
  using T = TypeParam;
  using Tile = typename TestFixture::Tile;
  Rng rng(102);
  for (index_t k = 0; k <= Tile::kKC + 1; ++k) {
    expect_gemm_matches<T>(Tile::kDirectRows + 1, Tile::kNR + 1, k, T{-1},
                           T{1}, rng);
  }
  for (index_t k : {2 * Tile::kKC, 2 * Tile::kKC + 1}) {
    expect_gemm_matches<T>(Tile::kMC + 3, Tile::kNC + 2, k, T{0.5}, T{-1},
                           rng);
  }
}

template <typename T>
void expect_syrk_matches(index_t n, index_t k, T alpha, T beta, Rng& rng) {
  Strided<T> a(n, k, rng), c(n, n, rng);
  const Strided<T> before = c;
  Strided<T> expected = c;
  syrk_lower<T>(alpha, a.cview(), beta, c.view());
  reference::syrk_lower<T>(alpha, a.cview(), beta, expected.view());
  EXPECT_TRUE(c.same_bits(expected))
      << "syrk n=" << n << " k=" << k << " alpha=" << alpha
      << " beta=" << beta;
  for (index_t j = 1; j < n; ++j) {
    EXPECT_EQ(std::memcmp(&c.storage(0, j), &before.storage(0, j),
                          sizeof(T) * j),
              0)
        << "syrk wrote above the diagonal: n=" << n << " column " << j;
  }
}

TYPED_TEST(KernelsBitwise, SyrkTileRemainders) {
  using T = TypeParam;
  using Tile = typename TestFixture::Tile;
  Rng rng(103);
  for (index_t n : product_rows<T>(Tile::kMR)) {
    for (index_t k : {0, 1, 3}) {
      for (T alpha : this->kScalars) {
        for (T beta : this->kScalars) {
          expect_syrk_matches<T>(n, k, alpha, beta, rng);
        }
      }
    }
  }
  for (index_t k = 0; k <= Tile::kKC + 1; ++k) {
    expect_syrk_matches<T>(Tile::kDirectRows + Tile::kNR + 1, k, T{-1}, T{1},
                           rng);
  }
  expect_syrk_matches<T>(2 * Tile::kNC + 5, 2 * Tile::kKC + 1, T{-1}, T{1},
                         rng);
}

/// A lower-triangular L (n x n) with |diagonal| in [1, 2] and small
/// off-diagonal entries, so solves stay finite; the upper triangle holds
/// random junk the kernels must not read.
template <typename T>
Strided<T> random_lower(index_t n, Rng& rng) {
  Strided<T> l(n, n, rng, -0.5, 0.5);
  for (index_t j = 0; j < n; ++j) {
    l.storage(j, j) = static_cast<T>(rng.uniform(1.0, 2.0));
  }
  return l;
}

template <typename T>
void expect_trsm_matches(index_t m, index_t n, Diag diag, T alpha, Rng& rng) {
  const Strided<T> l = random_lower<T>(n, rng);
  Strided<T> b(m, n, rng);
  Strided<T> expected = b;
  trsm<T>(Side::Right, Uplo::Lower, Trans::Transpose, diag, alpha, l.cview(),
          b.view());
  reference::trsm<T>(Side::Right, Uplo::Lower, Trans::Transpose, diag, alpha,
                     l.cview(), expected.view());
  EXPECT_TRUE(b.same_bits(expected))
      << "trsm m=" << m << " n=" << n << " alpha=" << alpha
      << " unit=" << (diag == Diag::Unit);
}

TYPED_TEST(KernelsBitwise, TrsmColumnBlockRemainders) {
  using T = TypeParam;
  using Tile = typename TestFixture::Tile;
  Rng rng(104);
  for (index_t n : sweep(0, Tile::kTrsmNB, {3 * Tile::kTrsmNB + 1})) {
    for (index_t m : {index_t{0}, index_t{1}, Tile::kStrip + 1,
                      Tile::kDirectRows + 1, Tile::kMC + Tile::kMR + 1}) {
      for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
        expect_trsm_matches<T>(m, n, diag, T{1}, rng);
      }
    }
  }
}

TYPED_TEST(KernelsBitwise, TrsmRowStripRemainders) {
  using T = TypeParam;
  using Tile = typename TestFixture::Tile;
  Rng rng(105);
  for (index_t m : sweep(0, Tile::kStrip, {Tile::kDirectRows + 3})) {
    for (index_t n : {index_t{1}, index_t{2}, Tile::kTrsmNB + 1}) {
      for (T alpha : this->kScalars) {
        expect_trsm_matches<T>(m, n, Diag::NonUnit, alpha, rng);
      }
      expect_trsm_matches<T>(m, n, Diag::Unit, T{0.5}, rng);
    }
  }
}

/// G G^T + n I on a strided view: symmetric positive definite.
template <typename T>
Strided<T> random_spd(index_t n, Rng& rng) {
  Strided<T> g(n, n, rng), a(n, n, rng);
  reference::gemm<T>(Trans::NoTrans, Trans::Transpose, T{1}, g.cview(),
                     g.cview(), T{0}, a.view());
  for (index_t i = 0; i < n; ++i) a.storage(i, i) += static_cast<T>(n);
  return a;
}

TYPED_TEST(KernelsBitwise, PotrfUnblockedRowStripRemainders) {
  using T = TypeParam;
  using Tile = typename TestFixture::Tile;
  Rng rng(106);
  for (index_t n : sweep(0, Tile::kStrip, {64, 65})) {
    Strided<T> a = random_spd<T>(n, rng);
    Strided<T> expected = a;
    potrf_unblocked<T>(a.view(), 0);
    reference::potrf_unblocked<T>(expected.view(), 0);
    EXPECT_TRUE(a.same_bits(expected)) << "potrf_unblocked n=" << n;
  }
}

TYPED_TEST(KernelsBitwise, PotrfBlocked) {
  using T = TypeParam;
  Rng rng(107);
  for (index_t n : {0, 1, 7, 63, 64, 65, 100, 130, 200}) {
    for (index_t block : {7, 16, 64}) {
      Strided<T> a = random_spd<T>(n, rng);
      Strided<T> expected = a;
      potrf<T>(a.view(), block, 0);
      reference::potrf<T>(expected.view(), block, 0);
      EXPECT_TRUE(a.same_bits(expected))
          << "potrf n=" << n << " block=" << block;
    }
  }
}

}  // namespace
}  // namespace mfgpu
