// Tests for the shared per-front step (multifrontal/front_step.hpp) as the
// drivers see it: every driver names the real front to its executor, and a
// pivot breakdown surfaces identically from every driver.
#include "multifrontal/front_step.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "multifrontal/parallel.hpp"
#include "obs/decision_log.hpp"
#include "obs/obs.hpp"
#include "ordering/minimum_degree.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

Analysis elasticity_analysis() {
  Rng rng(11);
  const GridProblem p = make_elasticity_3d(6, 6, 5, 3, rng);
  return analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
}

std::unique_ptr<FuExecutor> p1_dispatch() {
  return std::make_unique<DispatchExecutor>(
      "p1", [](const FuCall&) { return Policy::P1; });
}

/// The fronts named by the policy decisions logged while `run` executes.
std::set<index_t> decided_fronts(const std::function<void()>& run) {
  obs::DecisionLog::global().clear();
  obs::enable();
  run();
  obs::disable();
  std::set<index_t> fronts;
  for (const obs::PolicyDecision& d : obs::DecisionLog::global().decisions()) {
    fronts.insert(d.call.snode);
  }
  obs::DecisionLog::global().clear();
  return fronts;
}

TEST(FrontStepTest, SerialDecisionsNameTheRealFrontLikeThePool) {
  const Analysis analysis = elasticity_analysis();
  const index_t nsup = analysis.symbolic.num_supernodes();
  std::set<index_t> all;
  for (index_t s = 0; s < nsup; ++s) all.insert(s);

  const std::set<index_t> serial = decided_fronts([&] {
    const auto executor = p1_dispatch();
    FactorContext ctx;
    factorize(analysis, *executor, ctx);
  });
  const std::set<index_t> pool = decided_fronts([&] {
    ParallelFactorizeOptions options;
    options.num_threads = 2;
    factorize_parallel(analysis, options,
                       [](const WorkerSpec&, int) { return p1_dispatch(); });
  });
  EXPECT_EQ(serial, all);
  EXPECT_EQ(pool, all);
}

/// `analysis` with the diagonal of permuted column `col` negated: same
/// pattern (so the same symbolic structure), but Cholesky breaks down at
/// that column.
Analysis with_negative_pivot(const Analysis& analysis, index_t col) {
  const SparseSpd& a = analysis.permuted;
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  const auto values = a.values();
  Coo coo(a.n());
  for (index_t j = 0; j < a.n(); ++j) {
    for (index_t p = col_ptr[static_cast<std::size_t>(j)];
         p < col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = row_idx[static_cast<std::size_t>(p)];
      const double v = values[static_cast<std::size_t>(p)];
      coo.add(i, j, (i == j && j == col) ? -v : v);
    }
  }
  Analysis bad = analysis;
  bad.permuted = coo.to_csc();
  return bad;
}

TEST(FrontStepTest, NonSpdFrontRaisesTheSameColumnFromEveryDriver) {
  const Analysis good = elasticity_analysis();
  // Supernode 0 is a leaf of the postordered tree; breaking its first pivot
  // fails exactly one front, and never a root, so every driver and
  // schedule must report the same column.
  const SupernodeInfo& leaf = good.symbolic.supernodes()[0];
  ASSERT_NE(leaf.parent, -1);
  const index_t column = leaf.first_col;
  const Analysis bad = with_negative_pivot(good, column);
  const BatchingOptions batched = parse_batching("on,min=2");
  ASSERT_TRUE(group_batches(bad.symbolic, batched).any());

  std::vector<std::pair<std::string, std::function<void()>>> drivers;
  for (const bool batch : {false, true}) {
    const std::string tag = batch ? " batched" : " per-front";
    drivers.emplace_back("serial" + tag, [&bad, batch, batched] {
      PolicyExecutor p1(Policy::P1);
      FactorContext ctx;
      FactorizeOptions options;
      if (batch) options.batching = batched;
      factorize(bad, p1, ctx, options);
    });
    for (const int threads : {1, 2, 4}) {
      drivers.emplace_back(
          "pool " + std::to_string(threads) + tag,
          [&bad, batch, batched, threads] {
            ParallelFactorizeOptions options;
            options.num_threads = threads;
            if (batch) options.numeric.batching = batched;
            factorize_parallel(bad, options);
          });
    }
  }
  for (const ClusterEngine engine :
       {ClusterEngine::FanBoth, ClusterEngine::LevelSync}) {
    for (const int nodes : {1, 3}) {
      drivers.emplace_back(
          std::string("cluster ") + cluster_engine_name(engine) + " " +
              std::to_string(nodes),
          [&bad, engine, nodes] {
            ClusterFactorizeOptions options;
            options.cluster.num_nodes = nodes;
            options.cluster.engine = engine;
            options.cluster.nodes_have_gpu = false;
            factorize_cluster(bad, options);
          });
    }
  }

  for (const auto& [name, run] : drivers) {
    SCOPED_TRACE(name);
    try {
      run();
      ADD_FAILURE() << "expected NotPositiveDefiniteError";
    } catch (const NotPositiveDefiniteError& e) {
      EXPECT_EQ(e.column(), column);
      EXPECT_LE(e.pivot(), 0.0);
    }
  }
}

}  // namespace
}  // namespace mfgpu
