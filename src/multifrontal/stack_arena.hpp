// LIFO arena for update matrices.
//
// With a postordered elimination tree, update matrices are produced and
// consumed in strict stack order: a supernode pushes its update after
// popping those of its children. Packing them into one arena (the classic
// multifrontal "update stack") bounds working memory by the symbolic
// peak_update_stack_entries() instead of the sum over all supernodes.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace mfgpu {

class StackArena {
 public:
  /// The buffer is left uninitialized: push() zeroes each block it hands
  /// out, so only the entries a factorization uses are ever written.
  explicit StackArena(index_t capacity_entries);

  /// Push a block of `entries` doubles (zero-initialized); returns its view.
  std::span<double> push(index_t entries);
  /// View of the i-th block from the top (0 = topmost).
  std::span<double> from_top(index_t i);
  /// Pop the topmost block.
  void pop();

  index_t num_blocks() const noexcept {
    return static_cast<index_t>(offsets_.size());
  }
  index_t used_entries() const noexcept { return top_; }
  index_t peak_entries() const noexcept { return peak_; }

 private:
  std::unique_ptr<double[]> buffer_;
  index_t capacity_ = 0;
  std::vector<index_t> offsets_;  ///< start offset of each live block
  index_t top_ = 0;
  index_t peak_ = 0;
};

/// Packed lower-triangle addressing for an n x n update matrix stored
/// column-major without the upper triangle: entry (i, j), i >= j, lives at
/// packed_index(n, i, j).
inline index_t packed_lower_size(index_t n) { return n * (n + 1) / 2; }
inline index_t packed_index(index_t n, index_t i, index_t j) {
  return j * n - j * (j - 1) / 2 + (i - j);
}

}  // namespace mfgpu
