// Simulated distributed-cluster factorization — the paper's named future
// work ("a distributed-memory version of the solver") executed as real
// numerics over simulated nodes.
//
// Model
//   - Elimination subtrees map to simulated cluster nodes: the proportional
//     mapping seeds the placement and a greedy refinement trades residual
//     load imbalance against interconnect cost (cluster/placement.hpp).
//   - Each node is one FrontStep lane (multifrontal/front_step.hpp), exactly
//     like one worker of factorize_parallel, and every front runs the shared
//     FrontStep; this driver keeps only placement, the wires, death
//     failover and the two engines below.
//   - A child placed on another node ships its PACKED update matrix to the
//     parent's node as a sized message over an InterconnectModel link
//     (sched/interconnect.hpp). Messages serialize on the producer's
//     egress lane and the consumer's ingress lane (one virtual-time lane
//     each per node), so transfers overlap compute on both sides instead
//     of charging the whole wire time to the critical path.
//   - The asynchronous fan-both engine has NO global level barriers: any
//     task whose children's updates have (virtually) arrived may run, and
//     the engine always picks the ready task with the earliest estimated
//     start (critical-path bottom level breaks ties). The LevelSync engine
//     runs the same numerics with a barrier after every elimination-tree
//     level — the reference the fan-both speedup is measured against
//     (bench/bench_cluster_scaling.cpp).
//
// Determinism: FrontStep extend-adds children in the serial order and
// device-fault fates are a pure function of (seed, front, op) — never of
// placement — so the cluster factor is
// BITWISE identical to the serial factorize() for every node count, link
// speed, engine, and non-death fault seed.
//
// Node death (chaos): node_death_rate > 0 draws a deterministic death
// point per node from death_seed; a dead node's unexecuted tasks are
// re-placed onto the least-loaded survivor (its already-published updates
// remain readable — checkpointed messages). Re-placement never changes the
// numerics, only the simulated schedule.
//
// Aggregated small-front batching (multifrontal/batched.hpp) is a
// per-node device concern orthogonal to this simulation; the cluster
// engine always dispatches per-front and ignores FactorizeOptions::
// batching (the batched factor is bitwise identical anyway).
#pragma once

#include <cstdint>
#include <string>

#include "cluster/placement.hpp"
#include "multifrontal/parallel.hpp"
#include "sched/interconnect.hpp"

namespace mfgpu {

enum class ClusterEngine {
  FanBoth = 0,   ///< asynchronous: no global barriers (the default)
  LevelSync = 1  ///< barrier after every elimination-tree level
};

const char* cluster_engine_name(ClusterEngine engine) noexcept;

/// Knobs for the simulated cluster (SolverOptions::cluster, the
/// `--cluster=` CLI flag, and serve-side per-request overrides funnel
/// here). num_nodes == 0 disables the cluster path entirely.
struct ClusterOptions {
  /// Simulated node count; 0 = cluster path off.
  int num_nodes = 0;
  /// Inter-node link for update-matrix messages.
  InterconnectModel link = infiniband_link();
  ClusterEngine engine = ClusterEngine::FanBoth;
  /// Refine the proportional placement for interconnect cost.
  bool refine_placement = true;
  /// Give every node a private simulated GPU (hybrid dispatch); off = all
  /// nodes run host-only P1.
  bool nodes_have_gpu = true;
  /// Chaos: probability each node dies mid-run (deterministic per
  /// death_seed; at least one node always survives).
  double node_death_rate = 0.0;
  std::uint64_t death_seed = 0;

  bool enabled() const noexcept { return num_nodes > 0; }

  friend bool operator==(const ClusterOptions&,
                         const ClusterOptions&) = default;
};

/// Parse a cluster spec: "off" | "<nodes>[,<token>...]" where each token is
/// an engine name ("fanboth" | "levelsync"), "norefine", "nogpu", or part
/// of a link spec handed to parse_link ("shared" | "infiniband" |
/// "gigabit" | "<bandwidth>,<latency>"). Examples:
///   "4"  "8,gigabit"  "4,levelsync,1e9,5e-6"  "2,nogpu,shared"
/// Throws InvalidArgumentError on malformed specs.
ClusterOptions parse_cluster(const std::string& spec);

/// Short human-readable description ("4 nodes, fan-both, infiniband").
std::string cluster_description(const ClusterOptions& options);

/// Simulated-schedule outcomes of one cluster factorization.
struct ClusterStats {
  int num_nodes = 0;
  ClusterEngine engine = ClusterEngine::FanBoth;
  double makespan = 0.0;           ///< max node virtual clock
  double max_node_seconds = 0.0;   ///< busiest node's clock (== makespan)
  /// Interconnect traffic: cross-node update-matrix messages actually sent.
  std::int64_t messages = 0;
  double bytes_on_wire = 0.0;
  double send_busy_seconds = 0.0;  ///< total egress-lane busy time
  /// Placement objective (cluster/placement.hpp).
  double placement_seed_cost = 0.0;
  double placement_refined_cost = 0.0;
  int placement_moves = 0;
  /// Chaos outcomes.
  int node_deaths = 0;
  std::int64_t replaced_tasks = 0;
};

struct ClusterFactorizeOptions {
  ClusterOptions cluster;
  FactorizeOptions numeric;  ///< batching is ignored (see header comment)
  ExecutorOptions executor;
  /// Template for each GPU-bearing node's private device (fault injection
  /// included — per-front fault fates stay placement-independent).
  Device::Options device;
  /// Optional schedule flight recorder: one lane per node. Remote message
  /// arrivals are recorded as Transfer-class waits, so the critical-path
  /// analyzer attributes wire stalls and what-if replay scales them with
  /// transfer_scale. The `numeric.recorder` field is ignored here.
  obs::ScheduleRecorder* recorder = nullptr;
};

/// Factor `analysis` on the simulated cluster. Matches factorize()'s
/// contract (panels, trace, error propagation); trace.total_time is the
/// cluster's virtual makespan. `make_executor` builds each node's executor
/// (default: GPU nodes dispatch the paper's baseline hybrid, CPU nodes run
/// P1); `stats_out` (optional) receives the schedule/traffic statistics.
FactorizeResult factorize_cluster(const Analysis& analysis,
                                  const ClusterFactorizeOptions& options = {},
                                  const WorkerExecutorFactory& make_executor = {},
                                  ClusterStats* stats_out = nullptr);

}  // namespace mfgpu
