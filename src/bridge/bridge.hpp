// The CV-X-IF bridge (paper §III-B): a unified interface between the host
// CPU and the eCPU. It samples the offloaded instruction's func5, element
// size and source register values, raises the eCPU interrupt, and forwards
// the software decode outcome back to the host (accept => the host continues
// out-of-order; reject => the host takes an illegal-instruction trap).
//
// The bridge connects the decoder to the kernel queue it feeds (the
// scheduler's host instance). It also exposes the LLC subsystem's
// memory-mapped registers on the second slave port (firmware/config access
// in the real system; status introspection here).
#ifndef ARCANE_BRIDGE_BRIDGE_HPP_
#define ARCANE_BRIDGE_BRIDGE_HPP_

#include <string>

#include "common/config.hpp"
#include "cpu/cpu.hpp"
#include "crt/runtime.hpp"
#include "isa/xmnmc.hpp"
#include "telemetry/span.hpp"

namespace arcane::bridge {

/// MMIO register map (offsets from MemConfig::mmio_base).
enum MmioReg : std::uint32_t {
  kRegMagic = 0x00,       // reads 0x41524341 ("ARCA")
  kRegStatus = 0x04,      // bit0: busy, bits[15:8]: kernel queue occupancy
  kRegKernelCount = 0x08, // kernels executed
  kRegXmrCount = 0x0C,    // xmr instructions executed
  kRegOffloads = 0x10,    // total offloads sampled
  kRegRejects = 0x14,     // rejected offloads
};

class Bridge final : public cpu::Coprocessor {
 public:
  /// Connects `runtime`'s decoder to `queue`.
  Bridge(const SystemConfig& cfg, crt::Runtime& runtime,
         crt::KernelQueue& queue)
      : cfg_(cfg), runtime_(&runtime), queue_(&queue) {
    runtime.connect(queue);
  }

  void set_spans(telemetry::SpanTracer* spans) { spans_ = spans; }

  IssueResult offload(const isa::DecodedInst& inst, std::uint32_t rs1,
                      std::uint32_t rs2, std::uint32_t rs3,
                      Cycle now) override;

  /// Second slave port: word-sized register reads (writes are ignored).
  std::uint32_t mmio_read(std::uint32_t offset) const;

  std::uint64_t offloads() const { return offloads_; }
  std::uint64_t rejects() const { return rejects_; }
  const std::string& last_reject_reason() const { return last_reject_; }

  /// Cycles between the CV-X-IF issue transaction and the eCPU interrupt.
  static constexpr Cycle kIrqLatency = 2;
  /// Cycles for the decode outcome to travel back over CV-X-IF.
  static constexpr Cycle kAckLatency = 1;

 private:
  SystemConfig cfg_;
  crt::Runtime* runtime_;
  crt::KernelQueue* queue_;
  telemetry::SpanTracer* spans_ = nullptr;
  Cycle busy_until_ = 0;  // one in-flight offload at a time
  std::uint64_t offloads_ = 0;
  std::uint64_t rejects_ = 0;
  std::string last_reject_;
};

}  // namespace arcane::bridge

#endif  // ARCANE_BRIDGE_BRIDGE_HPP_
