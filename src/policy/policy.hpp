// The four workload-division policies of Table VI:
//   P1: potrf, trsm, syrk all on the CPU
//   P2: potrf, trsm on the CPU; syrk on the GPU
//   P3: potrf on the CPU; trsm, syrk on the GPU
//   P4: potrf, trsm, syrk all on the GPU (Fig. 9 panel algorithm)
// plus the batched execution class:
//   Batched: many small independent fronts aggregated into one GPU
//            dispatch (one launch + one transfer each way per batch),
//            amortizing the per-call overheads that dominate the paper's
//            ~97% small-call regime.
#pragma once

#include <array>
#include <string>

#include "multifrontal/fu_call.hpp"
#include "support/error.hpp"

namespace mfgpu {

enum class Policy : int { P1 = 1, P2 = 2, P3 = 3, P4 = 4, Batched = 5 };

/// The per-front policies a single F-U call can be executed under.
/// Policy::Batched is a dispatch-level class (a whole group of fronts per
/// call) and is deliberately not part of this sweep.
inline constexpr std::array<Policy, 4> kAllPolicies = {
    Policy::P1, Policy::P2, Policy::P3, Policy::P4};

/// Highest policy index in use (P1..P4 + Batched); sizes per-policy tables.
inline constexpr int kMaxPolicyIndex = 5;

const char* policy_name(Policy p);
Policy policy_from_index(int index);  ///< 1-based, matching the paper

/// Total asymptotic ops of one factor-update call: k^3/3 + m k^2 + m^2 k.
double fu_total_ops(index_t m, index_t k);

/// Bytes moved by the basic GPU implementation's copies, paper Eq. 2:
/// N_D(L1, L2) = k^2 + 2 m k words up+down, N_D(L2 L2^T) = m^2 words back.
/// (single-precision words on the device link).
double fu_copy_bytes_basic(index_t m, index_t k);

}  // namespace mfgpu
