// Explicit 16-byte SIMD for the dense kernels (2 doubles / 4 floats), and
// the register-tile geometry they share.
//
// The width is the baseline x86-64 vector, spelled out with GCC/Clang vector
// extensions because the compiler leaves the equivalent plain loops scalar,
// and because staying on the baseline ISA keeps one binary with the same bits
// on every host. Lanes only ever hold distinct output entries and every lane
// op is the IEEE operation the scalar loop performs (no reassociation, no
// fused multiply-add), so a vectorized kernel reproduces the scalar operation
// sequence of every entry bitwise.
#pragma once

#include <cstring>

#include "support/error.hpp"

namespace mfgpu::simd {

template <typename T>
struct Lanes;
template <>
struct Lanes<double> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct Lanes<float> {
  typedef float type __attribute__((vector_size(16)));
};

template <typename T>
using Vec = typename Lanes<T>::type;

/// Entries per vector.
template <typename T>
inline constexpr int kWidth = 16 / sizeof(T);

template <typename T>
inline Vec<T> splat(T v) {
  Vec<T> r;
  for (int l = 0; l < kWidth<T>; ++l) r[l] = v;
  return r;
}
template <typename T>
inline Vec<T> load(const T* x) {
  Vec<T> v;
  std::memcpy(&v, x, sizeof v);
  return v;
}
template <typename T>
inline void store(T* x, Vec<T> v) {
  std::memcpy(x, &v, sizeof v);
}

/// Geometry of the gemm micro-kernel C(MR x NR) += Â·B̂ᵀ and of the packed
/// panels around it. Tests derive their shape sweeps from these.
template <typename T>
struct Tile {
  static constexpr int kMV = 2;                  ///< vectors per tile column
  static constexpr index_t kMR = kMV * kWidth<T>;  ///< 4 doubles / 8 floats
  static constexpr index_t kNR = 4;
  static constexpr index_t kKC = 128;  ///< k steps per packed panel
  static constexpr index_t kMC = 64;   ///< rows of A per packed block
  static constexpr index_t kNC = 32;   ///< columns of B per packed block
  /// Products with fewer rows of C than this (or fewer than NR columns)
  /// skip the packing and run column by column, rows in the lanes.
  static constexpr index_t kDirectRows = 48;
  /// trsm column block: the gemm covers the columns before it, the
  /// triangle inside it runs with rows in the lanes.
  static constexpr index_t kTrsmNB = 32;
  /// Row strip of the rows-in-lanes loops (trsm triangle, potrf columns).
  static constexpr int kStripV = 4;
  static constexpr index_t kStrip = kStripV * kWidth<T>;
  static_assert(kMC % kMR == 0 && kNC % kNR == 0 && kDirectRows % kMR == 0);
};

}  // namespace mfgpu::simd
