#include "multifrontal/factorization.hpp"

#include <algorithm>
#include <numeric>

#include "multifrontal/front_step.hpp"
#include "obs/obs.hpp"

namespace mfgpu {

std::int64_t Factorization::storage_bytes() const noexcept {
  std::int64_t bytes = 0;
  for (const auto& p : panels) {
    bytes += static_cast<std::int64_t>(p.rows()) * p.cols() * 8;
  }
  for (const auto& p : panels32) {
    bytes += static_cast<std::int64_t>(p.rows()) * p.cols() * 4;
  }
  return bytes;
}

FactorizeResult factorize(const Analysis& analysis, FuExecutor& executor,
                          FactorContext& ctx,
                          const FactorizeOptions& options) {
  obs::ScopedSpan factorize_span("multifrontal", "factorize",
                                 &ctx.host_clock);
  FrontStepSetup setup;
  setup.numeric = ctx.numeric;
  setup.recorder = options.recorder;
  FrontStep step(analysis, options, setup);
  const BatchPlan& plan = step.plan();
  factorize_span.set_arg(0, "supernodes",
                         analysis.symbolic.num_supernodes());
  if (plan.any()) {
    factorize_span.set_arg(1, "batches",
                           static_cast<index_t>(plan.batches.size()));
  }

  // Postorder keeps the updates on one LIFO stack. Batch members sit in
  // different subtrees, so with batches the units run level by level
  // instead: every child's height is below its parent's, and members of one
  // batch share a height, so each unit is ready when its level starts.
  std::vector<index_t> order(static_cast<std::size_t>(step.num_units()));
  std::iota(order.begin(), order.end(), index_t{0});
  if (plan.any()) {
    std::stable_sort(order.begin(), order.end(), [&](index_t x, index_t y) {
      return plan.height[static_cast<std::size_t>(step.unit_first(x))] <
             plan.height[static_cast<std::size_t>(step.unit_first(y))];
    });
  }

  step.add_lane(ctx, executor);
  for (index_t unit : order) step.run_unit(0, unit);
  FactorizeResult result = step.finish();

  if (obs::enabled()) {
    const auto peak = static_cast<double>(step.update_peak_entries());
    auto& metrics = obs::MetricsRegistry::global();
    metrics.gauge_max("multifrontal.stack_arena.peak_entries", peak);
    metrics.gauge_max("multifrontal.stack_arena.peak_bytes",
                      peak * sizeof(double));
  }
  return result;
}

}  // namespace mfgpu
