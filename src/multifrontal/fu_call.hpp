// FuCall — the one descriptor every factor-update surface speaks.
//
// Historically the executor, timer, dispatcher, and decision-log layers all
// passed parallel positional `(m, k, ...)` argument lists; adding a field
// (a flop count, say) meant touching every signature. FuCall carries
// the call's identity once: FrontStep fills it when it builds a front,
// and FrontBlocks, FuCallRecord, PolicyDecision, choosers, and predictors
// all derive from or embed it.
//
// This header is deliberately dependency-light (support/error.hpp only) so
// observability headers can embed FuCall without pulling in the dense or
// gpusim layers.
#pragma once

#include "support/error.hpp"

namespace mfgpu {

/// Identity of one factor-update call.
struct FuCall {
  index_t snode = -1;      ///< supernode / front id (-1 = synthetic shape)
  index_t m = 0;           ///< update-matrix dimension (rows below pivot)
  index_t k = 0;           ///< pivot-block width (columns factored)
  double flops = 0.0;      ///< total asymptotic ops (k^3/3 + m k^2 + m^2 k)
  index_t global_col = 0;  ///< first global column, for pivot error reports
};

}  // namespace mfgpu
