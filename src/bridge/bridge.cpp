#include "bridge/bridge.hpp"

#include <algorithm>

namespace arcane::bridge {

cpu::Coprocessor::IssueResult Bridge::offload(const isa::DecodedInst& inst,
                                              std::uint32_t rs1,
                                              std::uint32_t rs2,
                                              std::uint32_t rs3, Cycle now) {
  ++offloads_;
  if (inst.funct3 > 2) {
    ++rejects_;
    last_reject_ = "invalid element size";
    return {false, now};
  }
  isa::xmnmc::OffloadPayload payload;
  payload.func5 = inst.func5;
  payload.et = static_cast<ElemType>(inst.funct3);
  payload.rs1 = rs1;
  payload.rs2 = rs2;
  payload.rs3 = rs3;

  // The bridge holds a single instruction: a new offload waits for the
  // previous decode to be acknowledged.
  const Cycle irq_time = std::max(now, busy_until_) + kIrqLatency;
  const auto r = runtime_->decode_offload(payload, irq_time);
  busy_until_ = r.complete_at;
  if (spans_ != nullptr) {
    const char* name = payload.is_xmr()
                           ? (r.accepted ? "offload.xmr" : "offload.xmr.reject")
                           : (r.accepted ? "offload.xmk" : "offload.xmk.reject");
    spans_->instant(telemetry::kTrackEcpu, name, now, /*tenant=*/-1,
                    /*job=*/-1, /*arg=*/payload.func5);
  }
  if (!r.accepted) {
    ++rejects_;
    last_reject_ = r.reject_reason;
    return {false, r.complete_at + kAckLatency};
  }
  return {true, r.complete_at + kAckLatency};
}

std::uint32_t Bridge::mmio_read(std::uint32_t offset) const {
  switch (offset) {
    case kRegMagic: return 0x41524341u;
    case kRegStatus:
      return (queue_->kernels_busy() ? 1u : 0u) |
             (queue_->queued_kernels() << 8);
    case kRegKernelCount:
      return static_cast<std::uint32_t>(runtime_->phases().kernels_executed);
    case kRegXmrCount:
      return static_cast<std::uint32_t>(runtime_->phases().xmr_executed);
    case kRegOffloads: return static_cast<std::uint32_t>(offloads_);
    case kRegRejects: return static_cast<std::uint32_t>(rejects_);
    default: return 0;
  }
}

}  // namespace arcane::bridge
