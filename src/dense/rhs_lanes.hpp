// Explicit fixed-width SIMD over blocks of right-hand sides stored
// RHS-contiguous (row-major n x R: the R values of unknown i are adjacent).
//
// Kernels walk the right-hand sides in chunks of W = 8, 4, 2, 1 values and
// keep each chunk in registers as W/2 two-wide vectors — the baseline x86-64
// width, spelled out because the compiler leaves the equivalent plain loops
// scalar. Lanes only ever hold independent entries (different right-hand
// sides), and every lane op is the IEEE operation the scalar code performs,
// so a chunked kernel reproduces the scalar operation sequence of every
// entry bitwise.
#pragma once

#include <cstring>

#include "support/error.hpp"

namespace mfgpu::lanes {

typedef double Pair __attribute__((vector_size(2 * sizeof(double))));

inline Pair splat(double v) { return Pair{v, v}; }
inline Pair load_pair(const double* x) {
  Pair v;
  std::memcpy(&v, x, sizeof v);
  return v;
}
inline void store_pair(double* x, Pair v) { std::memcpy(x, &v, sizeof v); }

/// The W right-hand-side values of one row: W/2 pairs.
template <int W>
struct Chunk {
  static_assert(W % 2 == 0);
  static constexpr int H = W / 2;
  Pair p[H];

  static Chunk load(const double* x) {
    Chunk c;
#pragma GCC unroll 4
    for (int h = 0; h < H; ++h) c.p[h] = load_pair(x + 2 * h);
    return c;
  }
  void store(double* x) const {
#pragma GCC unroll 4
    for (int h = 0; h < H; ++h) store_pair(x + 2 * h, p[h]);
  }
  /// this -= a * v
  void sub_product(double a, const Chunk& v) {
    const Pair s = splat(a);
#pragma GCC unroll 4
    for (int h = 0; h < H; ++h) p[h] -= s * v.p[h];
  }
  /// this += a * v
  void add_product(double a, const Chunk& v) {
    const Pair s = splat(a);
#pragma GCC unroll 4
    for (int h = 0; h < H; ++h) p[h] += s * v.p[h];
  }
  void sub(const Chunk& v) {
#pragma GCC unroll 4
    for (int h = 0; h < H; ++h) p[h] -= v.p[h];
  }
  void divide(double d) {
    const Pair s = splat(d);
#pragma GCC unroll 4
    for (int h = 0; h < H; ++h) p[h] = p[h] / s;
  }
};

template <>
struct Chunk<1> {
  double p;
  static Chunk load(const double* x) { return Chunk{*x}; }
  void store(double* x) const { *x = p; }
  void sub_product(double a, const Chunk& v) { p -= a * v.p; }
  void add_product(double a, const Chunk& v) { p += a * v.p; }
  void sub(const Chunk& v) { p -= v.p; }
  void divide(double d) { p = p / d; }
};

/// Calls f.operator()<W>(c0) on consecutive right-hand-side chunks
/// [c0, c0 + W) covering [0, R), widest first.
template <typename F>
void for_each_chunk(index_t R, F&& f) {
  index_t c0 = 0;
  for (; c0 + 8 <= R; c0 += 8) f.template operator()<8>(c0);
  if (c0 + 4 <= R) {
    f.template operator()<4>(c0);
    c0 += 4;
  }
  if (c0 + 2 <= R) {
    f.template operator()<2>(c0);
    c0 += 2;
  }
  if (c0 < R) f.template operator()<1>(c0);
}

}  // namespace mfgpu::lanes
