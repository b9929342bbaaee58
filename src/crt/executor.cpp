#include "crt/executor.hpp"

#include <algorithm>
#include <cstring>

namespace arcane::crt {

Cycle preamble_marking_cost(const KernelOp& op, const Plan& plan,
                            const SystemConfig& cfg,
                            const CrtCostModel& costs) {
  const std::uint32_t line = cfg.llc.line_bytes();
  std::uint64_t lines_marked = 0;
  auto count_lines = [&](const Operand& o) {
    if (o.valid) {
      lines_marked += ceil_div<std::uint32_t>(
          std::max<std::uint32_t>(o.footprint(op.et), 1u), line);
    }
  };
  count_lines(op.ms1);
  count_lines(op.ms2);
  count_lines(op.ms3);
  lines_marked += ceil_div<std::uint32_t>(
      std::max<std::uint32_t>(plan.dest_hi - plan.dest_lo, 1u), line);
  return lines_marked * costs.preamble_per_line;
}

void register_at_ranges(KernelOp& op, const Plan& plan,
                        llc::AddressTable& at) {
  // Destination first, then sources not covered by it.
  op.dest_at_entry = static_cast<int>(
      at.register_range(plan.dest_lo, plan.dest_hi, true, op.uid));
  auto register_src = [&](const Operand& o) {
    if (!o.valid) return;
    const Addr lo = o.addr;
    const Addr hi = o.addr + std::max<std::uint32_t>(o.footprint(op.et), 1u);
    if (lo >= plan.dest_lo && hi <= plan.dest_hi) return;  // covered by dest
    op.src_at[op.src_at_count++] = at.register_range(lo, hi, false, op.uid);
  };
  register_src(op.ms1);
  register_src(op.ms2);
  register_src(op.ms3);
}

void KernelExecutor::launch(const KernelOp& op, const Plan& plan,
                            std::span<const unsigned> vpus, Cycle now,
                            bool hung) {
  ARCANE_ASSERT(!busy(), "launch on a busy executor");
  ARCANE_ASSERT(vpus.size() == plan.chain_count,
                "launch: one VPU per chain required");
  active_ = ActiveKernel{};
  active_.op = &op;
  active_.plan = &plan;
  active_.hung = hung;

  if (ctx_->spans != nullptr) {
    for (unsigned v : vpus) {
      ctx_->spans->instant(telemetry::track_vpu(v), "kernel.launch", now,
                           /*tenant=*/-1,
                           /*job=*/static_cast<std::int64_t>(op.uid),
                           /*arg=*/op.func5);
    }
  }
  if (hung) return;  // the kernel sits here until abort_hung()
  const std::size_t n = plan.chain_count;
  if (chains_.size() < n) {
    chains_.resize(n);
    check_programs(check_programs_);
  }
  active_.chains_left = static_cast<unsigned>(n);
  for (std::size_t i = 0; i < n; ++i) {
    ChainState& cs = chains_[i];
    cs.vpu = vpus[i];
    cs.next_tile = 0;
    cs.claimed = false;
    cs.compute_end = 0;
    cs.breakdown = {};
    const unsigned ci = static_cast<unsigned>(i);
    ctx_->events->schedule(ctx_->ecpu_free,
                           [this, ci] { chain_step(ci, ctx_->events->now()); },
                           "crt.chain_step");
  }
}

void KernelExecutor::abort_hung() {
  ARCANE_ASSERT(hung(), "abort_hung on an executor that is not hung");
  active_ = ActiveKernel{};
}

void KernelExecutor::check_programs(bool on) {
  check_programs_ = on;
  for (ChainState& cs : chains_) cs.progs.set_checked(on);
}

void KernelExecutor::chain_step(unsigned chain_idx, Cycle t) {
  ARCANE_ASSERT(busy(), "chain_step without an active kernel");
  ChainState& cs = chains_[chain_idx];
  const Plan& plan = *active_.plan;
  const KernelOp& op = *active_.op;
  ARCANE_ASSERT(cs.next_tile < plan.tile_count[chain_idx], "chain overrun");

  cs.tile.clear();
  const vpu::ProgramKey key{
      op.func5, op.et,
      plan.planner->tile(plan, chain_idx, cs.next_tile, cs.tile)};
  vpu::VectorUnit& vu = (*ctx_->vpus)[cs.vpu];
  Cycle ecpu = std::max(ctx_->ecpu_free, t);
  const Cycle ecpu_start = ecpu;
  // Cycle accounting: [t, ecpu_start) is time this chain event spent
  // waiting for the shared eCPU (another executor or the decoder holds it).
  sim::OpStallBreakdown& bd = cs.breakdown;
  bd[sim::StallBucket::kDispatch] += ecpu_start - t;

  // ---------------- allocation (Matrix Allocator) ----------------
  ecpu += ctx_->costs.tile_loop;
  Cycle alloc_duration = 0;
  Cycle alloc_ext = 0;  // external-backend share of alloc_duration

  // Forwarding of an elided result: snapshot forwardable operand rows
  // *before* claiming lines (claiming this chain's registers may recycle
  // the very lines that hold the producer's resident result).
  if (fwd_bufs_.size() < cs.tile.loads.size()) {
    fwd_bufs_.resize(cs.tile.loads.size());
  }
  fwd_valid_.assign(cs.tile.loads.size(), 0);
  for (std::size_t i = 0; i < cs.tile.loads.size(); ++i) {
    fwd_valid_[i] =
        client_->forward_load(*this, cs.tile.loads[i], fwd_bufs_[i]);
  }

  if (!cs.claimed) {
    client_->before_claim(cs.vpu);
    dma::TransferCost claim_cost;
    for (unsigned v = 0; v < plan.vregs_claimed; ++v) {
      claim_cost += ctx_->llc->claim_line(cs.vpu, v, op.uid);
    }
    if (claim_cost.ext_bytes > 0) {
      alloc_duration += ctx_->dma->descriptor_cycles(claim_cost);
      alloc_ext += ctx_->dma->external_cycles(claim_cost);
      ctx_->dma->note_descriptor(claim_cost, false);
    }
    cs.claimed = true;
  }

  // Any deferred (never-written-back) intermediate this tile reads from
  // memory without a forwarding match must be materialized first.
  for (std::size_t i = 0; i < cs.tile.loads.size(); ++i) {
    if (fwd_valid_[i]) continue;
    const DmaXfer& x = cs.tile.loads[i];
    client_->materialize_deferred(
        x.mem_addr, x.mem_addr + (x.rows - 1) * x.mem_stride + x.row_bytes);
  }

  for (std::size_t i = 0; i < cs.tile.loads.size(); ++i) {
    const DmaXfer& x = cs.tile.loads[i];
    ecpu += ctx_->costs.per_dma_descriptor;
    const bool fwd = fwd_valid_[i] != 0;
    dma::TransferCost cost;
    for (std::uint32_t r = 0; r < x.rows; ++r) {
      auto dst = vu.vreg(x.first_vreg + r * x.vreg_step)
                     .subspan(x.vreg_offset + r * x.vreg_offset_step,
                              x.row_bytes);
      if (fwd) {
        std::memcpy(dst.data(),
                    fwd_bufs_[i].data() +
                        static_cast<std::size_t>(r) * x.row_bytes,
                    x.row_bytes);
        cost.cache_bytes += x.row_bytes;
      } else {
        cost += ctx_->llc->read_range(x.mem_addr + r * x.mem_stride, dst);
      }
    }
    if (fwd) {
      cost.int_segments = x.rows;  // in-VPU register-file moves
      ctx_->phases.writebacks_elided += x.rows;
    }
    alloc_duration += ctx_->dma->descriptor_cycles(cost);
    alloc_ext += ctx_->dma->external_cycles(cost);
    ctx_->dma->note_descriptor(cost, true);
    ++ctx_->phases.dma_descriptors;
  }

  // The eCPU programs the transfer and moves on; the DMA runs autonomously
  // and the allocator's lock is released from its completion interrupt, so
  // only the (shared) DMA engine serializes chains on different VPUs.
  ecpu += ctx_->costs.lock + ctx_->costs.unlock;
  const Cycle dma_start = ctx_->dma->reserve(std::max(t, ecpu), alloc_duration);
  const Cycle alloc_end = dma_start + alloc_duration;
  ctx_->llc->lock_until(alloc_end);
  ctx_->phases.allocation += alloc_end - t;
  // [ecpu_start, ecpu) programmed the allocation; [ecpu, dma_start) waited
  // for the shared DMA engine; the transfer itself splits into its external
  // (backend refill) and on-chip shares.
  bd[sim::StallBucket::kAlloc] += ecpu - ecpu_start;
  bd[sim::StallBucket::kMemDma] += dma_start - ecpu;
  bd[sim::StallBucket::kMemRefill] += alloc_ext;
  bd[sim::StallBucket::kAlloc] += alloc_duration - alloc_ext;
  if (ctx_->spans != nullptr) {
    ctx_->spans->span(telemetry::track_vpu(cs.vpu), "alloc", dma_start,
                      alloc_end, /*tenant=*/-1,
                      /*job=*/static_cast<std::int64_t>(op.uid),
                      /*arg=*/cs.next_tile);
  }

  // ---------------- compute (VPU micro-program) ----------------
  // The eCPU only *launches* the micro-program; each NM-Carus instance has
  // its own sequencer fetching vector instructions locally (paper [3]), so
  // chains on different VPUs overlap their compute phases.
  ecpu += ctx_->costs.kernel_launch;
  ctx_->phases.ecpu_busy += ecpu - ecpu_start;
  ctx_->ecpu_free = std::max(ctx_->ecpu_free, ecpu);
  const Cycle compute_start = std::max(alloc_end, ecpu);
  const vpu::Program& prog = cs.progs.acquire(
      key, vu.config(), ctx_->costs.vinsn_dispatch,
      [&](std::vector<vpu::VInsn>& list) {
        plan.planner->program(plan, chain_idx, cs.next_tile, list);
      },
      ctx_->phases.programs_prepared);
  cs.compute_end = vu.run(prog, compute_start);
  ctx_->phases.compute += cs.compute_end - alloc_end;
  // [alloc_end, compute_start) waited for the eCPU to issue the launch.
  bd[sim::StallBucket::kDispatch] += compute_start - alloc_end;
  bd[sim::StallBucket::kCompute] += cs.compute_end - compute_start;

  if (ctx_->spans != nullptr) {
    ctx_->spans->span(telemetry::track_vpu(cs.vpu), "compute", compute_start,
                      cs.compute_end, /*tenant=*/-1,
                      /*job=*/static_cast<std::int64_t>(op.uid),
                      /*arg=*/static_cast<std::int64_t>(prog.size()));
  }
  // The write-back (and its DMA reservation) happens in its own event at
  // compute_end, so concurrent chains reserve the shared DMA in time order.
  ctx_->events->schedule(cs.compute_end, [this, chain_idx] {
    chain_writeback(chain_idx, ctx_->events->now());
  }, "crt.chain_writeback");
}

void KernelExecutor::chain_writeback(unsigned chain_idx, Cycle t) {
  ARCANE_ASSERT(busy(), "chain_writeback without an active kernel");
  ChainState& cs = chains_[chain_idx];
  const Plan& plan = *active_.plan;
  const unsigned tile_count = plan.tile_count[chain_idx];
  vpu::VectorUnit& vu = (*ctx_->vpus)[cs.vpu];
  Cycle ecpu = std::max(ctx_->ecpu_free, t);
  const Cycle ecpu_start = ecpu;

  // Full write-back elision (paper §IV-B2): when the owner knows the
  // destination will be consumed whole by the next kernel, skip the
  // write-back and leave the result resident in the register file.
  const bool single_tile_chain = plan.chain_count == 1 && tile_count == 1;
  if (single_tile_chain && cs.tile.stores.size() == 1 &&
      cs.tile.stores[0].vreg_step == 1 && cs.tile.stores[0].vreg_offset == 0 &&
      client_->allow_writeback_elision(*this, plan.dest_lo, plan.dest_hi)) {
    active_.elided_writeback = true;
  }

  Cycle wb_end = t;
  if (!cs.tile.stores.empty() && !active_.elided_writeback) {
    ecpu += ctx_->costs.lock + ctx_->costs.unlock;
    Cycle wb_duration = 0;
    for (const DmaXfer& x : cs.tile.stores) {
      ecpu += ctx_->costs.per_dma_descriptor;
      dma::TransferCost cost;
      for (std::uint32_t r = 0; r < x.rows; ++r) {
        auto src = vu.vreg(x.first_vreg + r * x.vreg_step)
                       .subspan(x.vreg_offset + r * x.vreg_offset_step,
                                x.row_bytes);
        cost += ctx_->llc->write_range(x.mem_addr + r * x.mem_stride,
                                       {src.data(), src.size()});
      }
      wb_duration += ctx_->dma->descriptor_cycles(cost);
      ctx_->dma->note_descriptor(cost, false);
      ++ctx_->phases.dma_descriptors;
    }
    const Cycle wb_start = ctx_->dma->reserve(std::max(t, ecpu), wb_duration);
    wb_end = wb_start + wb_duration;
    ctx_->llc->lock_until(wb_end);
    ctx_->phases.writeback += wb_end - t;
    // Cycle accounting: eCPU wait, then write-back programming, then the
    // DMA-engine wait, then the transfer. The transfer's external share
    // stays in `writeback` (it drains results, it does not refill operands).
    sim::OpStallBreakdown& bd = cs.breakdown;
    bd[sim::StallBucket::kDispatch] += ecpu_start - t;
    bd[sim::StallBucket::kWriteback] += ecpu - ecpu_start;
    bd[sim::StallBucket::kMemDma] += wb_start - ecpu;
    bd[sim::StallBucket::kWriteback] += wb_duration;
    if (ctx_->spans != nullptr) {
      ctx_->spans->span(telemetry::track_vpu(cs.vpu), "writeback", wb_start,
                        wb_end, /*tenant=*/-1,
                        /*job=*/static_cast<std::int64_t>(active_.op->uid),
                        /*arg=*/cs.next_tile);
    }
  }
  ctx_->phases.ecpu_busy += ecpu - ecpu_start;
  ctx_->ecpu_free = std::max(ctx_->ecpu_free, ecpu);

  ++cs.next_tile;
  if (cs.next_tile < tile_count) {
    ctx_->events->schedule(wb_end, [this, chain_idx] {
      chain_step(chain_idx, ctx_->events->now());
    }, "crt.chain_step");
    return;
  }

  if (wb_end >= active_.finish_time) {
    active_.finish_time = wb_end;
    active_.critical_chain = chain_idx;
  }
  ARCANE_ASSERT(active_.chains_left > 0, "chain accounting underflow");
  if (--active_.chains_left == 0) {
    const Cycle finish = std::max(active_.finish_time, ctx_->ecpu_free) +
                         ctx_->costs.writeback_epilogue;
    // The critical chain's buckets tile [launch, finish_time]; the eCPU
    // wait and the epilogue extend them to the kernel's finish.
    sim::OpStallBreakdown& bd = chains_[active_.critical_chain].breakdown;
    bd[sim::StallBucket::kDispatch] +=
        std::max(active_.finish_time, ctx_->ecpu_free) - active_.finish_time;
    bd[sim::StallBucket::kWriteback] += ctx_->costs.writeback_epilogue;
    ctx_->phases.ecpu_busy += ctx_->costs.writeback_epilogue;
    ctx_->ecpu_free = std::max(ctx_->ecpu_free, finish);
    ctx_->events->schedule(finish, [this] { finish_kernel(ctx_->events->now()); },
                           "crt.finish_kernel");
  }
}

void KernelExecutor::finish_kernel(Cycle t) {
  ARCANE_ASSERT(busy(), "finish_kernel without active kernel");
  ++ctx_->phases.kernels_executed;
  const FinishedKernel fin{*active_.op, *active_.plan, chains_[0].vpu,
                           active_.elided_writeback,
                           chains_[active_.critical_chain].breakdown};
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_vpu(fin.vpu), "kernel.done", t,
                         /*tenant=*/-1,
                         /*job=*/static_cast<std::int64_t>(fin.op.uid),
                         /*arg=*/fin.elided_writeback ? 1 : 0);
  }
  // Free the executor *before* the hook so the owner can relaunch from it.
  active_ = ActiveKernel{};
  client_->on_kernel_finish(*this, fin, t);
}

}  // namespace arcane::crt
