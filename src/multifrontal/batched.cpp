#include "multifrontal/batched.hpp"

#include <algorithm>
#include <cstdlib>

#include "dense/blas.hpp"
#include "support/error.hpp"
#include "symbolic/postorder.hpp"

namespace mfgpu {

const char* batching_mode_name(BatchingMode mode) noexcept {
  switch (mode) {
    case BatchingMode::Off:
      return "off";
    case BatchingMode::On:
      return "on";
    case BatchingMode::Auto:
      return "auto";
  }
  return "?";
}

namespace {

double front_ops(const SupernodeInfo& sn) {
  const index_t m = sn.num_update_rows();
  const index_t k = sn.width();
  return static_cast<double>(potrf_ops(k)) +
         static_cast<double>(trsm_ops(m, k)) +
         static_cast<double>(syrk_ops(m, k));
}

}  // namespace

BatchPlan group_batches(const SymbolicFactor& sym,
                        const BatchingOptions& options) {
  const index_t nsup = sym.num_supernodes();
  BatchPlan plan;
  plan.batch_of.assign(static_cast<std::size_t>(nsup), -1);

  const auto snodes = sym.supernodes();
  std::vector<index_t> parent(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    parent[static_cast<std::size_t>(s)] =
        snodes[static_cast<std::size_t>(s)].parent;
  }
  plan.height = etree_heights(parent);
  for (index_t s = 0; s < nsup; ++s) {
    plan.num_levels =
        std::max(plan.num_levels, plan.height[static_cast<std::size_t>(s)] + 1);
  }
  if (!options.enabled()) return plan;
  MFGPU_CHECK(options.min_batch >= 1 && options.max_batch >= 1,
              "group_batches: batch bounds must be >= 1");

  // Candidates per level, in ascending supernode order (the deterministic
  // member order every driver must preserve).
  std::vector<std::vector<index_t>> level_candidates(
      static_cast<std::size_t>(plan.num_levels));
  for (index_t s = 0; s < nsup; ++s) {
    const SupernodeInfo& sn = snodes[static_cast<std::size_t>(s)];
    const index_t m = sn.num_update_rows();
    const index_t k = sn.width();
    if (k <= 0 || m <= 0 || k > options.max_k || m > options.max_m) continue;
    level_candidates[static_cast<std::size_t>(
                         plan.height[static_cast<std::size_t>(s)])]
        .push_back(s);
  }

  for (index_t level = 0; level < plan.num_levels; ++level) {
    const auto& candidates = level_candidates[static_cast<std::size_t>(level)];
    std::size_t i = 0;
    while (i < candidates.size()) {
      const std::size_t take = std::min(
          candidates.size() - i, static_cast<std::size_t>(options.max_batch));
      // A trailing sliver can't amortize the aggregation overhead.
      if (take < static_cast<std::size_t>(options.min_batch)) break;
      FrontBatch batch;
      batch.level = level;
      batch.snodes.assign(candidates.begin() + static_cast<std::ptrdiff_t>(i),
                          candidates.begin() +
                              static_cast<std::ptrdiff_t>(i + take));
      if (options.mode == BatchingMode::Auto) {
        double ops = 0.0;
        for (index_t s : batch.snodes) {
          ops += front_ops(snodes[static_cast<std::size_t>(s)]);
        }
        if (ops / static_cast<double>(batch.snodes.size()) >
            options.auto_ops_threshold) {
          i += take;
          continue;
        }
      }
      const int id = static_cast<int>(plan.batches.size());
      for (index_t s : batch.snodes) {
        plan.batch_of[static_cast<std::size_t>(s)] = id;
      }
      plan.batches.push_back(std::move(batch));
      i += take;
    }
  }
  return plan;
}

namespace {

BatchingMode parse_mode(const std::string& word) {
  if (word == "off") return BatchingMode::Off;
  if (word == "on") return BatchingMode::On;
  if (word == "auto") return BatchingMode::Auto;
  throw InvalidArgumentError("parse_batching: unknown mode '" + word +
                             "' (expected off|on|auto)");
}

long parse_positive(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v <= 0) {
    throw InvalidArgumentError("parse_batching: bad value for " + key + ": '" +
                               value + "'");
  }
  return v;
}

}  // namespace

BatchingOptions parse_batching(const std::string& spec) {
  BatchingOptions options;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string part = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (first) {
      options.mode = parse_mode(part);
      first = false;
      continue;
    }
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgumentError("parse_batching: expected key=value, got '" +
                                 part + "'");
    }
    const std::string key = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    if (key == "max_k") {
      options.max_k = static_cast<index_t>(parse_positive(key, value));
    } else if (key == "max_m") {
      options.max_m = static_cast<index_t>(parse_positive(key, value));
    } else if (key == "min") {
      options.min_batch = static_cast<int>(parse_positive(key, value));
    } else if (key == "max") {
      options.max_batch = static_cast<int>(parse_positive(key, value));
    } else if (key == "ops") {
      options.auto_ops_threshold =
          static_cast<double>(parse_positive(key, value));
    } else {
      throw InvalidArgumentError("parse_batching: unknown key '" + key + "'");
    }
  }
  if (options.min_batch > options.max_batch) {
    throw InvalidArgumentError("parse_batching: min > max");
  }
  return options;
}

BatchingOptions resolve_batching(const std::string& cli_spec,
                                 const char* env_value) {
  if (!cli_spec.empty()) return parse_batching(cli_spec);
  if (env_value != nullptr && env_value[0] != '\0') {
    return parse_batching(env_value);
  }
  return BatchingOptions{};
}

}  // namespace mfgpu
