#include "multifrontal/parallel.hpp"

#include <algorithm>
#include <chrono>

#include "obs/obs.hpp"
#include "obs/request_context.hpp"
#include "sched/proportional_map.hpp"
#include "sched/task_graph.hpp"
#include "sched/thread_pool.hpp"

namespace mfgpu {

FactorizeResult factorize_parallel(const Analysis& analysis,
                                   const ParallelFactorizeOptions& options,
                                   const WorkerExecutorFactory& make_executor) {
  const SymbolicFactor& sym = analysis.symbolic;
  const index_t nsup = sym.num_supernodes();

  std::vector<WorkerSpec> workers = options.workers;
  if (workers.empty()) workers = cpu_workers(std::max(1, options.num_threads));
  const int num_workers = static_cast<int>(workers.size());

  obs::ScopedSpan factorize_span("multifrontal", "parallel_factorize");
  factorize_span.set_arg(0, "supernodes", nsup);
  factorize_span.set_arg(1, "workers", num_workers);
  // Capture the serving request bound to the calling thread (if any) so the
  // pool workers' spans, dispatch decisions, and fault events stay attributed
  // to it across the thread hop.
  const obs::RequestContext* request = obs::current_request();

  if (nsup == 0) {
    FactorizeResult result;
    result.factor.numeric = true;
    return result;
  }

  const TaskGraph graph = build_task_graph(sym, analysis.permuted);
  const std::vector<double> bottom = bottom_levels(graph, task_costs(graph));
  const std::vector<int> mapping = proportional_mapping(graph, num_workers);

  FrontStepSetup setup;
  setup.num_lanes = num_workers;
  setup.parallel = true;
  setup.deterministic_reduction = options.deterministic_reduction;
  setup.recorder = options.recorder;
  FrontStep step(analysis, options.numeric, setup);
  for (const WorkerSpec& spec : workers) {
    step.add_lane(spec, options.device, make_executor, options.executor);
  }

  // The unit DAG: one node per unit, one edge per member-parent pair
  // (duplicate edges between the same units are fine — GraphDag counts
  // each). Without batches this is the assembly tree itself. A unit's
  // priority is its highest member bottom level, its seed worker its first
  // member's proportional mapping.
  const index_t num_units = step.num_units();
  std::vector<index_t> succ_ptr(static_cast<std::size_t>(num_units) + 1, 0);
  std::vector<index_t> deps(static_cast<std::size_t>(num_units), 0);
  std::vector<double> priority(static_cast<std::size_t>(num_units), 0.0);
  std::vector<int> seed(static_cast<std::size_t>(num_units));
  for (index_t s = 0; s < nsup; ++s) {
    const std::size_t u = static_cast<std::size_t>(step.unit_of(s));
    priority[u] = std::max(priority[u], bottom[static_cast<std::size_t>(s)]);
    const index_t p = graph.parent[static_cast<std::size_t>(s)];
    if (p == -1) continue;
    ++succ_ptr[u + 1];
    ++deps[static_cast<std::size_t>(step.unit_of(p))];
  }
  for (index_t u = 0; u < num_units; ++u) {
    succ_ptr[static_cast<std::size_t>(u) + 1] +=
        succ_ptr[static_cast<std::size_t>(u)];
    seed[static_cast<std::size_t>(u)] =
        mapping[static_cast<std::size_t>(step.unit_first(u))];
  }
  std::vector<index_t> succ(
      static_cast<std::size_t>(succ_ptr[static_cast<std::size_t>(num_units)]));
  std::vector<index_t> cursor(succ_ptr.begin(), succ_ptr.end() - 1);
  for (index_t s = 0; s < nsup; ++s) {
    const index_t p = graph.parent[static_cast<std::size_t>(s)];
    if (p == -1) continue;
    const std::size_t u = static_cast<std::size_t>(step.unit_of(s));
    succ[static_cast<std::size_t>(cursor[u]++)] = step.unit_of(p);
  }
  GraphDag dag;
  dag.succ_ptr = succ_ptr;
  dag.succ = succ;
  dag.num_deps = deps;
  dag.preferred_worker = seed;
  dag.priority = priority;

  auto body = [&](index_t unit, int w) {
    obs::RequestScope request_scope(request);
    const SimClock* clock = &step.context(w).host_clock;
    const int b = step.unit_batch(unit);
    if (b < 0) {
      obs::ScopedSpan task_span("multifrontal", "fu_task", clock);
      task_span.set_arg(0, "snode", step.unit_first(unit));
      task_span.set_arg(1, "worker", w);
      step.run_front(w, step.unit_first(unit));
    } else {
      const FrontBatch& batch =
          step.plan().batches[static_cast<std::size_t>(b)];
      obs::ScopedSpan task_span("multifrontal", "fu_task_batch", clock);
      task_span.set_arg(0, "fronts", static_cast<index_t>(batch.snodes.size()));
      task_span.set_arg(1, "level", batch.level);
      task_span.set_arg(2, "worker", w);
      step.run_batch(w, b);
    }
  };

  ThreadPool pool(num_workers);
  const auto wall_t0 = std::chrono::steady_clock::now();
  const PoolRunStats stats = pool.run_dag(dag, body);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0)
          .count();

  FactorizeResult result = step.finish();
  result.pool_stats = stats;
  result.pool_wall_seconds = wall_seconds;

  if (obs::enabled()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add("sched.parallel.wall_seconds", wall_seconds);
    metrics.gauge_set("sched.parallel.workers",
                      static_cast<double>(num_workers));
    if (result.faults_survived > 0) {
      metrics.add("fault.run.survived",
                  static_cast<double>(result.faults_survived));
    }
    if (result.quarantined_workers > 0) {
      metrics.gauge_set("fault.workers.quarantined",
                        static_cast<double>(result.quarantined_workers));
    }
    double busy = 0.0;
    for (double b : stats.busy_seconds) busy += b;
    if (wall_seconds > 0.0) {
      metrics.gauge_set("sched.parallel.utilization",
                        busy / (wall_seconds * num_workers));
    }
  }
  return result;
}

}  // namespace mfgpu
