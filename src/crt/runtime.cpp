#include "crt/runtime.hpp"

#include <algorithm>

namespace arcane::crt {

using isa::xmnmc::OffloadPayload;

Runtime::Runtime(const SystemConfig& cfg, sim::EventQueue& events,
                 llc::Llc& llc, dma::DmaEngine& dma,
                 std::vector<vpu::VectorUnit>& vpus, KernelLibrary library)
    : cfg_(cfg),
      lib_(std::move(library)),
      map_(cfg.num_matrix_regs) {
  ctx_.cfg = &cfg_;
  ctx_.costs = cfg_.crt;
  ctx_.events = &events;
  ctx_.llc = &llc;
  ctx_.dma = &dma;
  ctx_.vpus = &vpus;
}

// --------------------------- Kernel Decoder ---------------------------

Runtime::DecodeResult Runtime::decode_offload(const OffloadPayload& payload,
                                              Cycle irq_time) {
  Cycle start = std::max(irq_time, ctx_.ecpu_free);
  const Cycle base_cost = ctx_.costs.irq_entry + ctx_.costs.decode_lookup;
  const DecodeResult r = payload.is_xmr()
                             ? decode_xmr(payload, start, base_cost)
                             : decode_kernel(payload, start, base_cost);
  if (ctx_.spans != nullptr) {
    ctx_.spans->span(telemetry::kTrackEcpu,
                     payload.is_xmr() ? "decode.xmr" : "decode.kernel", start,
                     r.complete_at, /*tenant=*/-1, /*job=*/-1,
                     /*arg=*/payload.func5);
  }
  return r;
}

Runtime::DecodeResult Runtime::decode_xmr(const OffloadPayload& p, Cycle start,
                                          Cycle cost) {
  const auto f = isa::xmnmc::unpack_xmr(p);
  cost += ctx_.costs.xmr_preamble;
  const Cycle done = start + cost;
  ctx_.ecpu_free = done;
  ctx_.phases.preamble += cost;
  ctx_.phases.ecpu_busy += cost;

  if (!map_.in_range(f.md)) {
    return {false, done, "xmr: matrix register out of range"};
  }
  if (f.rows == 0 || f.cols == 0 || f.stride < f.cols) {
    return {false, done, "xmr: degenerate shape"};
  }
  // Hazard check: rebinding a register still referenced by pending kernels
  // is resolved by renaming — operand snapshots make the rebind safe, we
  // only account for the rename the real C-RT would perform.
  if (map_.get(f.md).valid && queue_ != nullptr &&
      queue_->kernel_uses_matrix(f.md)) {
    ++ctx_.phases.renames;
  }

  map_.bind(f.md, f.addr, MatShape{f.rows, f.cols, f.stride}, p.et);
  ++ctx_.phases.xmr_executed;
  return {true, done, {}};
}

Runtime::DecodeResult Runtime::decode_kernel(const OffloadPayload& p,
                                             Cycle start, Cycle cost) {
  auto reject = [&](std::string why) -> DecodeResult {
    const Cycle done = start + cost;
    ctx_.ecpu_free = done;
    ctx_.phases.preamble += cost;
    ctx_.phases.ecpu_busy += cost;
    return {false, done, std::move(why)};
  };
  const KernelInfo* info = lib_.find(p.func5);
  if (info == nullptr) return reject("unknown kernel id");

  KernelOp op;
  op.uid = ctx_.next_uid++;
  op.func5 = p.func5;
  op.et = p.et;
  op.f = isa::xmnmc::unpack_xmk(p);

  auto resolve = [&](std::uint16_t idx, Operand& out) -> bool {
    if (!map_.in_range(idx) || !map_.get(idx).valid) return false;
    const MatrixBinding& b = map_.get(idx);
    out = Operand{b.addr, b.shape, true};
    return true;
  };

  cost += ctx_.costs.kernel_preamble;
  std::string why;
  if (!resolve(op.f.md, op.md)) why = "destination matrix not reserved";
  if (why.empty() && info->uses_ms1 && !resolve(op.f.ms1, op.ms1))
    why = "ms1 not reserved";
  if (why.empty() && info->uses_ms2 && !resolve(op.f.ms2, op.ms2))
    why = "ms2 not reserved";
  if (why.empty() && info->uses_ms3 && !resolve(op.f.ms3, op.ms3))
    why = "ms3 not reserved";

  Plan plan;
  if (why.empty()) {
    plan = info->planner->plan(op, cfg_);
    if (!plan.ok()) why = plan.error;
  }
  if (!why.empty()) return reject(why);

  // CT source/destination status marking scales with the operand footprint
  // (one pass over the covered cache-line addresses, §III-A3).
  cost += preamble_marking_cost(op, plan, cfg_, ctx_.costs);

  ARCANE_CHECK(queue_ != nullptr, "decoder has no kernel queue connected");
  // Wait for a slot in the statically allocated kernel queue.
  Cycle t = start;
  while (queue_->queued_kernels() >= cfg_.kernel_queue_depth) {
    ARCANE_CHECK(!ctx_.events->empty(),
                 "kernel queue full with no pending completions (deadlock)");
    t = std::max(t, ctx_.events->run_one());
  }

  register_at_ranges(op, plan, ctx_.llc->at());

  const Cycle done = t + cost;
  ctx_.ecpu_free = std::max(ctx_.ecpu_free, done);
  ctx_.phases.preamble += cost;
  ctx_.phases.ecpu_busy += cost;

  queue_->push_kernel(op, plan, done);
  return {true, done, {}};
}

}  // namespace arcane::crt
