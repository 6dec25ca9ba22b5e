#include "multifrontal/front_step.hpp"

#include <algorithm>

#include "multifrontal/frontal.hpp"
#include "obs/obs.hpp"
#include "obs/schedule_record.hpp"
#include "policy/baseline_hybrid.hpp"
#include "symbolic/postorder.hpp"

namespace mfgpu {

std::unique_ptr<FuExecutor> default_worker_executor(
    const WorkerSpec& spec, const ExecutorOptions& executor_options) {
  if (spec.has_gpu) {
    return std::make_unique<DispatchExecutor>(
        make_baseline_hybrid(paper_thresholds(), executor_options));
  }
  return std::make_unique<PolicyExecutor>(Policy::P1, executor_options);
}

FrontStep::FrontStep(const Analysis& analysis, const FactorizeOptions& numeric,
                     const FrontStepSetup& setup)
    : analysis_(analysis),
      numeric_options_(numeric),
      setup_(setup),
      rec_(setup.recorder),
      plan_(group_batches(analysis.symbolic, numeric.batching)) {
  const SymbolicFactor& sym = analysis.symbolic;
  const index_t nsup = sym.num_supernodes();
  MFGPU_CHECK(setup.deterministic_reduction || setup.parallel,
              "FrontStep: the serial update stack needs deterministic order");

  // Units: each unbatched front alone, each batch as one, numbered by first
  // member.
  unit_of_.assign(static_cast<std::size_t>(nsup), -1);
  std::vector<index_t> batch_unit(plan_.batches.size(), -1);
  for (index_t s = 0; s < nsup; ++s) {
    const int b = plan_.batch_of[static_cast<std::size_t>(s)];
    index_t& unit = b < 0 ? unit_of_[static_cast<std::size_t>(s)]
                          : batch_unit[static_cast<std::size_t>(b)];
    if (unit == -1) {
      unit = num_units();
      unit_first_.push_back(s);
      unit_batch_.push_back(b);
    }
    unit_of_[static_cast<std::size_t>(s)] = unit;
  }

  std::vector<index_t> parent(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    parent[static_cast<std::size_t>(s)] = sn.parent;
    max_m_ = std::max(max_m_, sn.num_update_rows());
    max_k_ = std::max(max_k_, sn.width());
    max_order_ = std::max(max_order_, sn.front_order());
  }
  children_ = children_lists(parent);

  if (!setup.parallel && !plan_.any()) {
    // Dry runs skip the numeric stack entirely (the assembly cost is
    // charged from the symbolic sizes), so huge matrices time cheaply.
    stack_ = std::make_unique<StackArena>(
        setup.numeric ? sym.peak_update_stack_entries() : 0);
  } else {
    slots_.resize(static_cast<std::size_t>(nsup));
  }
  update_ready_.assign(static_cast<std::size_t>(nsup), 0.0);
  records_.resize(static_cast<std::size_t>(nsup));
  if (!setup.deterministic_reduction) {
    ticket_.assign(static_cast<std::size_t>(nsup), 0);
  }

  result_.factor.numeric = setup.numeric;
  if (numeric.store_factor && setup.numeric) {
    if (numeric.precision == FactorPrecision::Float32) {
      result_.factor.panels32.resize(static_cast<std::size_t>(nsup));
    } else {
      result_.factor.panels.resize(static_cast<std::size_t>(nsup));
    }
  }

  if (rec_ != nullptr) {
    rec_->start(setup.num_lanes, nsup, std::move(parent), setup.parallel,
                plan_.any());
  }
}

FrontStep::~FrontStep() = default;

void FrontStep::add_lane(FactorContext& ctx, FuExecutor& executor) {
  Lane& lane = lanes_.emplace_back();
  lane.ctx = &ctx;
  lane.executor = &executor;
  prepare(static_cast<int>(lanes_.size()) - 1);
}

void FrontStep::add_lane(const WorkerSpec& spec,
                         const Device::Options& device,
                         const WorkerExecutorFactory& make_executor,
                         const ExecutorOptions& executor_options) {
  const int w = static_cast<int>(lanes_.size());
  Lane& lane = lanes_.emplace_back();
  lane.ctx = &lane.owned_ctx;
  if (spec.has_gpu) {
    Device::Options device_options = device;
    device_options.numeric = true;
    lane.device = std::make_unique<Device>(device_options);
    lane.ctx->device = lane.device.get();
  }
  lane.owned_executor = make_executor
                            ? make_executor(spec, w)
                            : default_worker_executor(spec, executor_options);
  MFGPU_CHECK(lane.owned_executor != nullptr,
              "FrontStep: executor factory returned null");
  lane.executor = lane.owned_executor.get();
  lane.front_arena = std::make_unique<StackArena>(max_order_ * max_order_);
  prepare(w);
}

// Size the executor's device/pinned pools once for the biggest front the
// symbolic analysis predicts (WSMP-style symbolic-driven preallocation).
void FrontStep::prepare(int w) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  FactorContext& ctx = *lane.ctx;
  if (rec_ != nullptr) rec_->attach(w, ctx.host_clock, ctx.device != nullptr);
  lane.start_time = ctx.host_clock.now();
  if (rec_ != nullptr) {
    rec_->begin_task(w, obs::TaskKind::Prologue, -1, ctx.host_clock);
  }
  lane.executor->prepare(max_m_, max_k_, ctx);
  if (rec_ != nullptr) rec_->end_task(w, ctx.host_clock);
}

void FrontStep::run_unit(int w, index_t unit) {
  const int b = unit_batch(unit);
  if (b < 0) {
    run_front(w, unit_first(unit));
  } else {
    run_batch(w, b);
  }
}

void FrontStep::run_front(int w, index_t s) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  FactorContext& ctx = *lane.ctx;
  const SupernodeInfo& sn =
      analysis_.symbolic.supernodes()[static_cast<std::size_t>(s)];
  if (rec_ != nullptr) {
    rec_->begin_task(w, obs::TaskKind::Front, s, ctx.host_clock);
  }
  struct ArenaPop {
    StackArena* arena;
    ~ArenaPop() {
      if (arena != nullptr) arena->pop();
    }
  };
  StackArena* arena = lane.front_arena.get();
  std::span<double> storage;
  if (arena != nullptr) {
    storage = arena->push(sn.front_order() * sn.front_order());
  }
  const ArenaPop arena_guard{arena};
  FrontalMatrix front = arena != nullptr ? FrontalMatrix(sn, storage)
                                         : FrontalMatrix(sn, setup_.numeric);

  assemble(w, s, front);
  FrontBlocks blocks = make_blocks(s, front);
  if (rec_ != nullptr) rec_->add_call(w, blocks.call());
  FuOutcome outcome;
  {
    obs::ScopedSpan fu_span(setup_.category, "factor_update", &ctx.host_clock);
    if (rec_ != nullptr) rec_->begin_exec(w);
    outcome = lane.executor->execute(blocks, ctx);
    if (rec_ != nullptr) rec_->end_exec(w);
    fu_span.set_arg(0, "m", front.m());
    fu_span.set_arg(1, "k", front.k());
    fu_span.set_arg(2, "policy", outcome.record.policy);
  }
  postprocess(w, s, front, outcome);
  if (rec_ != nullptr) rec_->end_task(w, ctx.host_clock);
}

// One aggregated dispatch: assemble every member (same order and extend-add
// semantics as a single front), run them through the executor's
// execute_batch, then publish each member's update individually so faults
// degrade per front.
void FrontStep::run_batch(int w, int b) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  FactorContext& ctx = *lane.ctx;
  const FrontBatch& batch = plan_.batches[static_cast<std::size_t>(b)];
  const std::size_t width = batch.snodes.size();
  if (rec_ != nullptr) {
    rec_->begin_task(w, obs::TaskKind::Batch, b, ctx.host_clock);
  }
  std::vector<FrontalMatrix> fronts;
  fronts.reserve(width);  // no reallocation: blocks hold views inside
  std::vector<FrontBlocks> blocks;
  blocks.reserve(width);
  for (index_t member : batch.snodes) {
    fronts.emplace_back(
        analysis_.symbolic.supernodes()[static_cast<std::size_t>(member)],
        setup_.numeric);
    assemble(w, member, fronts.back());
    blocks.push_back(make_blocks(member, fronts.back()));
    if (rec_ != nullptr) rec_->add_call(w, blocks.back().call());
  }
  std::vector<FuOutcome> outcomes;
  {
    obs::ScopedSpan fu_span(setup_.category, "factor_update_batch",
                            &ctx.host_clock);
    if (rec_ != nullptr) rec_->begin_exec(w);
    outcomes = lane.executor->execute_batch(blocks, ctx);
    if (rec_ != nullptr) rec_->end_exec(w);
    fu_span.set_arg(0, "fronts", static_cast<index_t>(width));
    fu_span.set_arg(1, "level", batch.level);
  }
  MFGPU_CHECK(outcomes.size() == width,
              "FrontStep: executor returned wrong batch size");
  for (std::size_t i = 0; i < width; ++i) {
    postprocess(w, batch.snodes[i], fronts[i], outcomes[i]);
  }
  if (rec_ != nullptr) rec_->end_task(w, ctx.host_clock);
}

// Virtual start, scatter from A, extend-add the children.
void FrontStep::assemble(int w, index_t s, FrontalMatrix& front) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  FactorContext& ctx = *lane.ctx;
  const auto supernodes = analysis_.symbolic.supernodes();
  const SupernodeInfo& sn = supernodes[static_cast<std::size_t>(s)];

  // A front cannot assemble before its children's update matrices are
  // (virtually) ready, wherever they were produced.
  const auto& kids = children_[static_cast<std::size_t>(s)];
  for (index_t c : kids) {
    if (child_wait_ && child_wait_(w, c)) continue;
    if (rec_ != nullptr) rec_->note_join(w, c);
    ctx.host_clock.advance_to(update_ready_[static_cast<std::size_t>(c)]);
  }

  double assembly_entries =
      static_cast<double>(front.assemble_from_matrix(analysis_.permuted, sn));
  auto extend_add = [&](index_t c) {
    const SupernodeInfo& child = supernodes[static_cast<std::size_t>(c)];
    if (!setup_.numeric) {
      assembly_entries +=
          static_cast<double>(packed_lower_size(child.num_update_rows()));
      return;
    }
    const std::span<const double> update =
        stack_ != nullptr ? stack_->from_top(0)
                          : std::span<const double>(
                                slots_[static_cast<std::size_t>(c)]);
    assembly_entries +=
        static_cast<double>(front.extend_add(child.update_rows, update));
    release_update(c);
  };
  if (setup_.deterministic_reduction) {
    // Descending child index: the topmost stack block belongs to the most
    // recently processed (largest) child.
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) extend_add(*it);
  } else {
    std::vector<index_t> order(kids.begin(), kids.end());
    std::sort(order.begin(), order.end(), [&](index_t x, index_t y) {
      return ticket_[static_cast<std::size_t>(x)] <
             ticket_[static_cast<std::size_t>(y)];
    });
    for (index_t c : order) extend_add(c);
  }
  charge_assembly(lane, assembly_entries);
}

FrontBlocks FrontStep::make_blocks(index_t s, FrontalMatrix& front) const {
  const SupernodeInfo& sn =
      analysis_.symbolic.supernodes()[static_cast<std::size_t>(s)];
  FrontBlocks blocks = make_shape_blocks(front.m(), front.k(), sn.first_col);
  blocks.snode = s;
  if (setup_.numeric) {
    blocks.l1 = front.l1();
    blocks.l2 = front.l2();
    blocks.u = front.update();
  }
  return blocks;
}

// Trace record, panel store, packed update hand-off, virtual ready time.
void FrontStep::postprocess(int w, index_t s, FrontalMatrix& front,
                            FuOutcome outcome) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  FactorContext& ctx = *lane.ctx;
  const SupernodeInfo& sn =
      analysis_.symbolic.supernodes()[static_cast<std::size_t>(s)];

  outcome.record.snode = s;
  records_[static_cast<std::size_t>(s)] = outcome.record;

  if (numeric_options_.store_factor && setup_.numeric) {
    const MatrixView<const double> source(front.full().data(), front.order(),
                                          front.k(), front.full().ld());
    if (numeric_options_.precision == FactorPrecision::Float32) {
      auto& panel = result_.factor.panels32[static_cast<std::size_t>(s)];
      panel = Matrix<float>(front.order(), front.k());
      copy_into<float>(source, panel.view());
    } else {
      auto& panel = result_.factor.panels[static_cast<std::size_t>(s)];
      panel = Matrix<double>(front.order(), front.k());
      copy_into<double>(source, panel.view());
    }
  }
  charge_assembly(lane, static_cast<double>(front.order()) *
                            static_cast<double>(front.k()));

  if (sn.parent != -1) {
    const index_t entries = packed_lower_size(front.m());
    if (setup_.numeric) front.pack_update(publish_update(s, entries));
    charge_assembly(lane, static_cast<double>(entries));
    if (rec_ != nullptr) {
      rec_->note_ready(w, s, outcome.update_ready_at,
                       static_cast<int>(outcome.record.policy));
    }
    update_ready_[static_cast<std::size_t>(s)] =
        std::max(outcome.update_ready_at, ctx.host_clock.now());
    if (!setup_.deterministic_reduction) {
      ticket_[static_cast<std::size_t>(s)] =
          next_ticket_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    MFGPU_CHECK(front.m() == 0, "FrontStep: root supernode with update rows");
    if (rec_ != nullptr) {
      rec_->note_ready(w, s, outcome.update_ready_at,
                       static_cast<int>(outcome.record.policy));
    }
    ctx.host_clock.advance_to(outcome.update_ready_at);
  }
}

void FrontStep::charge_assembly(Lane& lane, double entries) {
  FactorContext& ctx = *lane.ctx;
  const double t0 = ctx.host_clock.now();
  host_assembly_cost(ctx.host_exec(), entries);
  lane.assembly_time += ctx.host_clock.now() - t0;
}

std::span<double> FrontStep::publish_update(index_t s, index_t entries) {
  if (stack_ != nullptr) return stack_->push(entries);
  auto& slot = slots_[static_cast<std::size_t>(s)];
  slot.assign(static_cast<std::size_t>(entries), 0.0);
  const std::int64_t live =
      live_entries_.fetch_add(entries, std::memory_order_relaxed) + entries;
  std::int64_t peak = peak_entries_.load(std::memory_order_relaxed);
  while (live > peak && !peak_entries_.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return slot;
}

void FrontStep::release_update(index_t c) {
  if (stack_ != nullptr) {
    stack_->pop();
    return;
  }
  auto& slot = slots_[static_cast<std::size_t>(c)];
  live_entries_.fetch_sub(static_cast<std::int64_t>(slot.size()),
                          std::memory_order_relaxed);
  slot = {};  // freed once consumed
}

std::int64_t FrontStep::update_peak_entries() const noexcept {
  return stack_ != nullptr ? static_cast<std::int64_t>(stack_->peak_entries())
                           : peak_entries_.load(std::memory_order_relaxed);
}

FactorizeResult FrontStep::finish() {
  // Drain in-flight device copies and reduce the lane clocks into the
  // virtual makespan: the executed schedule priced on the calibrated model.
  double makespan = 0.0;
  double assembly_total = 0.0;
  for (std::size_t w = 0; w < lanes_.size(); ++w) {
    Lane& lane = lanes_[w];
    FactorContext& ctx = *lane.ctx;
    const int id = static_cast<int>(w);
    if (rec_ != nullptr) {
      rec_->begin_task(id, obs::TaskKind::Epilogue, -1, ctx.host_clock);
    }
    if (ctx.device != nullptr) ctx.device->synchronize(ctx.host_clock);
    if (rec_ != nullptr) {
      rec_->end_task(id, ctx.host_clock);
      rec_->detach(id, ctx.host_clock);
    }
    makespan = std::max(makespan, ctx.host_clock.now() - lane.start_time);
    assembly_total += lane.assembly_time;
    result_.faults_survived += lane.executor->fault_count();
    if (lane.executor->quarantined()) ++result_.quarantined_workers;
  }

  FactorizationTrace& trace = result_.trace;
  for (const FuCallRecord& record : records_) trace.record_call(record);
  trace.assembly_time = assembly_total;
  trace.total_time = makespan;

  // Per-lane memory marks: a worker's front arena, or the serial update
  // store.
  const std::int64_t update_peak = update_peak_entries();
  for (std::size_t w = 0; w < lanes_.size(); ++w) {
    const Lane& lane = lanes_[w];
    WorkerMemory mem;
    mem.worker = static_cast<int>(w);
    mem.arena_peak_bytes =
        (lane.front_arena != nullptr
             ? static_cast<std::int64_t>(lane.front_arena->peak_entries())
             : update_peak) *
        static_cast<std::int64_t>(sizeof(double));
    if (const Device* device = lane.ctx->device; device != nullptr) {
      mem.device_pool_peak_bytes = device->device_pool_stats().peak_bytes;
      mem.pinned_pool_peak_bytes = device->pinned_pool_stats().peak_bytes;
      mem.device_pool_charged_allocs =
          device->device_pool_stats().charged_allocations;
      mem.pinned_pool_charged_allocs =
          device->pinned_pool_stats().charged_allocations;
    }
    result_.memory.push_back(mem);
  }

  if (obs::enabled()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add("multifrontal.assembly.seconds", assembly_total);
    metrics.add("multifrontal.factorize.seconds", makespan);
    metrics.add("multifrontal.supernodes",
                static_cast<double>(records_.size()));
    if (plan_.any()) {
      metrics.add("batch.planned", static_cast<double>(plan_.batches.size()));
    }
    for (const Lane& lane : lanes_) {
      if (const Device* device = lane.ctx->device; device != nullptr) {
        metrics.gauge_max(
            "gpusim.pool.device.peak_bytes",
            static_cast<double>(device->device_pool_stats().peak_bytes));
        metrics.gauge_max(
            "gpusim.pool.pinned.peak_bytes",
            static_cast<double>(device->pinned_pool_stats().peak_bytes));
      }
    }
  }
  return std::move(result_);
}

}  // namespace mfgpu
