#include "symbolic/postorder.hpp"

#include <algorithm>

namespace mfgpu {

std::vector<std::vector<index_t>> children_lists(
    std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  std::vector<std::vector<index_t>> children(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p != -1) {
      MFGPU_CHECK(p >= 0 && p < n, "postorder: parent out of range");
      children[static_cast<std::size_t>(p)].push_back(v);
    }
  }
  return children;
}

std::vector<index_t> etree_heights(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  std::vector<index_t> height(static_cast<std::size_t>(n), 0);
  // Children precede parents, so one forward pass sees every child first.
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p == -1) continue;
    MFGPU_CHECK(p > v && p < n, "etree_heights: forest not postordered");
    auto& h = height[static_cast<std::size_t>(p)];
    h = std::max(h, height[static_cast<std::size_t>(v)] + 1);
  }
  return height;
}

std::vector<index_t> postorder_forest(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  const auto children = children_lists(parent);
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));

  // Iterative DFS: (vertex, next-child cursor).
  std::vector<std::pair<index_t, std::size_t>> stack;
  for (index_t root = 0; root < n; ++root) {
    if (parent[static_cast<std::size_t>(root)] != -1) continue;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [v, cursor] = stack.back();
      const auto& kids = children[static_cast<std::size_t>(v)];
      if (cursor < kids.size()) {
        const index_t child = kids[cursor++];
        stack.emplace_back(child, 0);
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  MFGPU_CHECK(static_cast<index_t>(order.size()) == n,
              "postorder: forest has a cycle or dangling parent");
  return order;
}

bool is_postordered(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  // Necessary and sufficient with contiguity: parent > child for all, and
  // each vertex's subtree occupies [v - size(v) + 1, v].
  std::vector<index_t> subtree(static_cast<std::size_t>(n), 1);
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p == -1) continue;
    if (p <= v) return false;
    subtree[static_cast<std::size_t>(p)] += subtree[static_cast<std::size_t>(v)];
  }
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p == -1) continue;
    // children of p must form contiguous blocks ending right before p or
    // before a later sibling; the cheap check: v + (remaining gap) <= p.
    if (v >= p) return false;
  }
  // Contiguity check via DFS ranges.
  const auto order = postorder_forest(parent);
  for (index_t p = 0; p < n; ++p) {
    if (order[static_cast<std::size_t>(p)] != p) return false;
  }
  return true;
}

}  // namespace mfgpu
