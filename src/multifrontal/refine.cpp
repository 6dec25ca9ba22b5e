#include "multifrontal/refine.hpp"

#include <cmath>
#include <cstring>

#include "dense/rhs_lanes.hpp"

namespace mfgpu {

namespace {

/// r(:, c) = b(:, c) - A x(:, c) for every column c in `cols`, in one pass
/// over A for all of them; returns ||r(:, cols[i])||_2 in order. The columns
/// only share SIMD lanes, so each one sees exactly SparseSpd::multiply's
/// accumulation sequence and residual_norm's summation order: the norms are
/// bitwise residual_norm's. Refinement records these norms and solves for
/// these residuals, so every iterate costs one pass over A.
std::vector<double> residuals(const SparseSpd& a, const Matrix<double>& x,
                              const Matrix<double>& b,
                              std::span<const index_t> cols,
                              Matrix<double>& r) {
  const index_t n = a.n();
  const auto k = static_cast<index_t>(cols.size());
  // A x on RHS-contiguous copies: row i holds the k values of unknown i.
  std::vector<double> xr(static_cast<std::size_t>(n * k));
  std::vector<double> yr(static_cast<std::size_t>(n * k), 0.0);
  for (index_t c = 0; c < k; ++c) {
    const double* xc = x.data() + cols[static_cast<std::size_t>(c)] * n;
    for (index_t i = 0; i < n; ++i) {
      xr[static_cast<std::size_t>(i * k + c)] = xc[i];
    }
  }
  for (index_t j = 0; j < n; ++j) {
    const std::span<const index_t> rows = a.column_rows(j);
    const std::span<const double> vals = a.column_values(j);
    lanes::for_each_chunk(k, [&]<int W>(index_t c0) {
      using Chunk = lanes::Chunk<W>;
      const Chunk xj = Chunk::load(&xr[static_cast<std::size_t>(j * k + c0)]);
      Chunk yj = Chunk::load(&yr[static_cast<std::size_t>(j * k + c0)]);
      // Diagonal once; off-diagonals act on both triangles.
      yj.add_product(vals[0], xj);
      for (std::size_t t = 1; t < rows.size(); ++t) {
        const auto at = static_cast<std::size_t>(rows[t] * k + c0);
        Chunk yi = Chunk::load(&yr[at]);
        yi.add_product(vals[t], xj);
        yi.store(&yr[at]);
        yj.add_product(vals[t], Chunk::load(&xr[at]));
      }
      yj.store(&yr[static_cast<std::size_t>(j * k + c0)]);
    });
  }
  std::vector<double> norms(static_cast<std::size_t>(k));
  for (index_t c = 0; c < k; ++c) {
    const index_t col = cols[static_cast<std::size_t>(c)];
    const double* bc = b.data() + col * n;
    double* rc = r.data() + col * n;
    double sum = 0.0;
    for (index_t i = 0; i < n; ++i) {
      rc[i] = bc[i] - yr[static_cast<std::size_t>(i * k + c)];
      sum += rc[i] * rc[i];
    }
    norms[static_cast<std::size_t>(c)] = std::sqrt(sum);
  }
  return norms;
}

}  // namespace

double residual_norm(const SparseSpd& a, std::span<const double> x,
                     std::span<const double> b) {
  const auto n = static_cast<std::size_t>(a.n());
  MFGPU_CHECK(x.size() == n && b.size() == n, "residual_norm: size mismatch");
  std::vector<double> ax(n);
  a.multiply(x, ax);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = b[i] - ax[i];
    sum += r * r;
  }
  return std::sqrt(sum);
}

// The scalar API is the one-column case of the blocked loop below — one
// implementation, so the two can never drift (the serving layer's
// batched-vs-unbatched bitwise-identity guarantee rests on this).
RefineResult solve_with_refinement(const SparseSpd& a_original,
                                   const Analysis& analysis,
                                   const Factorization& factor,
                                   std::span<const double> b,
                                   int max_iterations, double tol,
                                   const ParallelSolveOptions& solve_options) {
  const auto n = static_cast<std::size_t>(a_original.n());
  MFGPU_CHECK(b.size() == n, "solve_with_refinement: size mismatch");
  Matrix<double> rhs(static_cast<index_t>(n), 1);
  std::memcpy(rhs.data(), b.data(), n * sizeof(double));
  BlockRefineResult block = solve_with_refinement(
      a_original, analysis, factor, rhs, max_iterations, tol, solve_options);
  RefineResult result;
  result.x.assign(block.x.data(), block.x.data() + n);
  result.residual_norms = std::move(block.residual_norms.front());
  result.iterations = block.iterations.front();
  return result;
}

BlockRefineResult solve_with_refinement(
    const SparseSpd& a_original, const Analysis& analysis,
    const Factorization& factor, const Matrix<double>& b, int max_iterations,
    double tol, const ParallelSolveOptions& solve_options) {
  const auto n = static_cast<std::size_t>(a_original.n());
  const index_t num_rhs = b.cols();
  MFGPU_CHECK(static_cast<std::size_t>(b.rows()) == n,
              "solve_with_refinement: size mismatch");
  MFGPU_CHECK(num_rhs >= 1, "solve_with_refinement: empty rhs block");

  BlockRefineResult result;
  result.x = solve(analysis, factor, b, num_rhs, solve_options);
  result.residual_norms.resize(static_cast<std::size_t>(num_rhs));
  result.iterations.assign(static_cast<std::size_t>(num_rhs), 0);

  auto col_span = [n](const Matrix<double>& m, index_t col) {
    return std::span<const double>(m.data() + col * static_cast<index_t>(n),
                                   n);
  };
  // b - A x of each column's current iterate: its norm is recorded, and it
  // is the rhs of the column's next correction.
  Matrix<double> residual(static_cast<index_t>(n), num_rhs);
  std::vector<index_t> active(static_cast<std::size_t>(num_rhs));
  for (index_t col = 0; col < num_rhs; ++col) {
    active[static_cast<std::size_t>(col)] = col;
  }
  const std::vector<double> initial =
      residuals(a_original, result.x, b, active, residual);

  // Per-column refinement state, mirroring the scalar loop exactly: each
  // column converges, stagnates, and reverts on its own norms. A step is
  // not guaranteed to improve (a factor of the wrong or corrupted matrix
  // diverges), so the smallest-residual iterate is tracked per column and
  // the recorded history is truncated back to it on revert — back() always
  // equals residual_norm(a, x_col, b_col), with no duplicated entries.
  std::vector<double> target(static_cast<std::size_t>(num_rhs));
  std::vector<double> best_norm(static_cast<std::size_t>(num_rhs));
  std::vector<std::size_t> best_pos(static_cast<std::size_t>(num_rhs), 0);
  std::vector<std::vector<double>> best_x(static_cast<std::size_t>(num_rhs));
  std::vector<char> done(static_cast<std::size_t>(num_rhs), 0);

  for (index_t col = 0; col < num_rhs; ++col) {
    const auto c = static_cast<std::size_t>(col);
    auto& norms = result.residual_norms[c];
    norms.push_back(initial[c]);
    double b_norm = 0.0;
    for (double v : col_span(b, col)) b_norm += v * v;
    b_norm = std::sqrt(b_norm);
    target[c] = tol * (b_norm > 0.0 ? b_norm : 1.0);
    best_norm[c] = norms.back();
    best_x[c].assign(col_span(result.x, col).begin(),
                     col_span(result.x, col).end());
  }

  for (int it = 0; it < max_iterations; ++it) {
    active.clear();
    for (index_t col = 0; col < num_rhs; ++col) {
      const auto c = static_cast<std::size_t>(col);
      if (!done[c] && result.residual_norms[c].back() > target[c]) {
        active.push_back(col);
      }
    }
    if (active.empty()) break;

    // One blocked correction solve for the whole active set, against the
    // double-precision residuals already computed for its norms.
    Matrix<double> rblock(static_cast<index_t>(n),
                          static_cast<index_t>(active.size()));
    for (std::size_t a = 0; a < active.size(); ++a) {
      std::memcpy(rblock.data() + static_cast<index_t>(a) *
                                      static_cast<index_t>(n),
                  residual.data() + active[a] * static_cast<index_t>(n),
                  n * sizeof(double));
    }
    const Matrix<double> dx =
        solve(analysis, factor, rblock, static_cast<index_t>(active.size()),
              solve_options);
    for (std::size_t a = 0; a < active.size(); ++a) {
      double* x_col = result.x.data() + active[a] * static_cast<index_t>(n);
      const double* dx_col =
          dx.data() + static_cast<index_t>(a) * static_cast<index_t>(n);
      for (std::size_t i = 0; i < n; ++i) x_col[i] += dx_col[i];
    }
    const std::vector<double> step_norms =
        residuals(a_original, result.x, b, active, residual);

    for (std::size_t a = 0; a < active.size(); ++a) {
      const index_t col = active[a];
      const auto c = static_cast<std::size_t>(col);
      const double* x_col = result.x.data() + col * static_cast<index_t>(n);
      auto& norms = result.residual_norms[c];
      const double norm = step_norms[a];
      ++result.iterations[c];
      if (norm < best_norm[c]) {
        best_norm[c] = norm;
        best_pos[c] = norms.size();
        best_x[c].assign(x_col, x_col + n);
      }
      // Stop this column when refinement stagnates (no ~2x improvement).
      if (norm > 0.5 * norms.back()) done[c] = 1;
      norms.push_back(norm);
    }
  }

  for (index_t col = 0; col < num_rhs; ++col) {
    const auto c = static_cast<std::size_t>(col);
    auto& norms = result.residual_norms[c];
    if (best_norm[c] < norms.back()) {
      double* x_col = result.x.data() + col * static_cast<index_t>(n);
      std::memcpy(x_col, best_x[c].data(), n * sizeof(double));
      norms.resize(best_pos[c] + 1);
    }
  }
  return result;
}

}  // namespace mfgpu
