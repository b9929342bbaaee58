// C-RT — the Cache Runtime executed by the eCPU inside the ARCANE LLC
// (paper §IV-B). Single-threaded, preemptive, producer-consumer around a
// statically allocated kernel queue. Three modules:
//
//  * Kernel Decoder  (this class): runs in the bridge interrupt handler;
//    O(1) kernel-library lookup, operand resolution with hazard-checking
//    renames (operand snapshots), planning, AT registration, preamble cost
//    model, and the wait for a free kernel-queue slot.
//  * Kernel Scheduler: the consumer side of the queue. sched::Scheduler's
//    host instance — FIFO, one kernel in flight, VPUs chosen by
//    SystemConfig::vpu_select — reached through the KernelQueue interface
//    the bridge connects.
//  * Matrix Allocator (inside crt::KernelExecutor): claims vector-register
//    lines, programs 2D DMA transfers through the cache (hit forwarding),
//    and consolidates results back with fetch-on-write during write-back.
//
// The functional semantics of this runtime are native C++; its *timing* is
// an instruction-budget model (CrtCostModel) — see DESIGN.md substitutions.
#ifndef ARCANE_CRT_RUNTIME_HPP_
#define ARCANE_CRT_RUNTIME_HPP_

#include <string>
#include <vector>

#include "common/config.hpp"
#include "crt/executor.hpp"
#include "crt/kernel_library.hpp"
#include "crt/kernel_op.hpp"
#include "crt/matrix_map.hpp"
#include "dma/dma.hpp"
#include "isa/xmnmc.hpp"
#include "llc/llc.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/span.hpp"
#include "vpu/vector_unit.hpp"

namespace arcane::crt {

/// The consumer side of the C-RT kernel queue: where the decoder parks the
/// kernels it accepts. sched::Scheduler implements it with its host
/// instance; the bridge connects the two, so this library never depends on
/// the scheduler.
class KernelQueue {
 public:
  virtual ~KernelQueue() = default;
  /// Decoded kernels waiting for dispatch (the queue occupancy).
  virtual unsigned queued_kernels() const = 0;
  /// True while a pushed kernel is queued or executing.
  virtual bool kernels_busy() const = 0;
  /// Whether a queued or executing kernel names logical matrix register
  /// `reg` (the decoder's rename check).
  virtual bool kernel_uses_matrix(std::uint16_t reg) const = 0;
  /// Append a decoded, planned and AT-registered kernel whose decode
  /// completes at `done`; the queue keeps its own copy of both.
  virtual void push_kernel(const KernelOp& op, const Plan& plan,
                           Cycle done) = 0;
  /// Stall buckets summed over every retired kernel pushed here.
  virtual sim::OpStallBreakdown kernel_stalls() const = 0;
};

class Runtime {
 public:
  Runtime(const SystemConfig& cfg, sim::EventQueue& events, llc::Llc& llc,
          dma::DmaEngine& dma, std::vector<vpu::VectorUnit>& vpus,
          KernelLibrary library);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Feed accepted kernels to `queue` (the bridge wires the scheduler).
  void connect(KernelQueue& queue) { queue_ = &queue; }

  /// Kernel Decoder entry point, invoked by the bridge IRQ at `irq_time`.
  /// Runs the software decode + preamble; returns the acceptance decision
  /// and the cycle at which the decode outcome reaches the bridge.
  struct DecodeResult {
    bool accepted = false;
    Cycle complete_at = 0;
    std::string reject_reason;
  };
  DecodeResult decode_offload(const isa::xmnmc::OffloadPayload& payload,
                              Cycle irq_time);

  const sim::CrtPhaseStats& phases() const { return ctx_.phases; }
  /// Stall-bucket totals of the kernels this decoder queued: a view of the
  /// host tenant's buckets in the scheduler.
  sim::OpStallBreakdown stall_totals() const {
    return queue_ != nullptr ? queue_->kernel_stalls()
                             : sim::OpStallBreakdown{};
  }
  const MatrixMap& matrix_map() const { return map_; }
  const KernelLibrary& library() const { return lib_; }

  /// The shared C-RT firmware context (eCPU timeline, phases, uid
  /// allocator). sched::Scheduler executors charge the same eCPU here.
  CrtContext& context() { return ctx_; }

  void set_spans(telemetry::SpanTracer* spans) { ctx_.spans = spans; }

 private:
  DecodeResult decode_xmr(const isa::xmnmc::OffloadPayload& p, Cycle start,
                          Cycle cost);
  DecodeResult decode_kernel(const isa::xmnmc::OffloadPayload& p, Cycle start,
                             Cycle cost);

  SystemConfig cfg_;
  KernelLibrary lib_;
  MatrixMap map_;
  CrtContext ctx_;
  KernelQueue* queue_ = nullptr;
};

}  // namespace arcane::crt

#endif  // ARCANE_CRT_RUNTIME_HPP_
