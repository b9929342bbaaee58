// The near-memory vector ISA executed by the NM-Carus-style VPUs.
//
// This re-creates the custom vector-like RISC-V extension of NM-Carus
// (paper [3]) at the level of detail ARCANE relies on: 32 vector registers
// of VLEN bytes, element widths of 8/16/32 bits, and vector-vector (.vv),
// vector-scalar (.vx) and element-scalar (.es) operand forms. C-RT kernels
// are micro-programs over this ISA, dispatched by the eCPU (§IV).
//
// Two additions beyond a minimal RVV-like subset are required by the matrix
// kernels and documented here:
//  * kMaccEs    — vd[i] += vs1[idx] * vs2[i]: MAC with the scalar taken from
//                 an *element* of another vector register (GeMM inner loop,
//                 avoids round-tripping operands through the eCPU).
//  * kGatherStride — vd[i] = vs1[i*stride + off]: strided in-register gather
//                 (max-pooling horizontal reduction). Costs extra cycles due
//                 to bank conflicts (VpuConfig::gather_penalty).
#ifndef ARCANE_VPU_VINSN_HPP_
#define ARCANE_VPU_VINSN_HPP_

#include <cstdint>
#include <string>

#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace arcane::vpu {

enum class VOpc : std::uint8_t {
  kAddVV, kAddVX, kSubVV, kSubVX, kRsubVX,
  kMulVV, kMulVX,
  kMaccVV, kMaccVX, kMaccEs,
  kMinVV, kMinVX, kMaxVV, kMaxVX,
  kAndVV, kAndVX, kOrVV, kOrVX, kXorVV, kXorVX,
  kSllVX, kSrlVX, kSraVX,
  kSlideDownVX, kSlideUpVX,
  kMvVV, kMvVX,
  kGatherStride,
  kOpcCount,
};

const char* vopc_name(VOpc op);

/// One vector instruction as dispatched to a VPU. `scalar` carries the .vx
/// scalar operand (sign-extended as needed per element width), the slide
/// amount, the element index for .es, or pack16(stride, offset) for gathers.
struct VInsn {
  VOpc op = VOpc::kMvVV;
  std::uint8_t vd = 0;
  std::uint8_t vs1 = 0;
  std::uint8_t vs2 = 0;
  ElemType et = ElemType::kWord;
  std::uint32_t vl = 0;       // elements
  std::uint32_t scalar = 0;

  bool operator==(const VInsn&) const = default;
};

/// True for ops whose scalar operand comes from the `scalar` field.
constexpr bool vinsn_uses_scalar(VOpc op) {
  switch (op) {
    case VOpc::kAddVX: case VOpc::kSubVX: case VOpc::kRsubVX:
    case VOpc::kMulVX: case VOpc::kMaccVX: case VOpc::kMinVX:
    case VOpc::kMaxVX: case VOpc::kAndVX: case VOpc::kOrVX:
    case VOpc::kXorVX: case VOpc::kSllVX: case VOpc::kSrlVX:
    case VOpc::kSraVX: case VOpc::kSlideDownVX: case VOpc::kSlideUpVX:
    case VOpc::kMvVX: case VOpc::kMaccEs: case VOpc::kGatherStride:
      return true;
    default:
      return false;
  }
}

constexpr bool vinsn_is_mac(VOpc op) {
  return op == VOpc::kMaccVV || op == VOpc::kMaccVX || op == VOpc::kMaccEs;
}

/// Execution cycles on a VPU with the given configuration: pipeline fill +
/// one beat per `lanes * (4/elem_bytes)` elements (sub-word SIMD within each
/// 32-bit lane), with a bank-conflict penalty for strided gathers and one
/// extra cycle for the element-scalar read of .es forms. Inline: the VPU
/// timing loop calls it once per instruction.
inline Cycle vinsn_cycles(const VInsn& insn, const VpuConfig& cfg) {
  // ceil(vl / elems_per_cycle) with a shift; the uint32 sum wraps exactly
  // like ceil_div's (a + b - 1) / b.
  const unsigned shift = cfg.elems_per_cycle_log2(elem_bytes(insn.et));
  const std::uint32_t vl = insn.vl == 0 ? 1 : insn.vl;
  Cycle beats = (vl + ((1u << shift) - 1u)) >> shift;
  if (insn.op == VOpc::kGatherStride) beats *= cfg.gather_penalty;
  Cycle cycles = cfg.pipe_fill + beats;
  if (insn.op == VOpc::kMaccEs) cycles += 1;  // element-scalar read port
  return cycles;
}

// ---- binary encoding -------------------------------------------------------
// The eCPU dispatches vector instructions as 32-bit words (plus a 32-bit
// scalar operand side-band, as on the NM-Carus register interface):
//   [31:26]=vopc [25:21]=vs2 [20:16]=vs1 [15:11]=vd [10:9]=esize [8:0]=vl/8
// vl is encoded in units of 8 elements rounded up (the dispatcher carries
// the exact vl side-band; the encoding exists for trace fidelity and tests).

std::uint32_t encode_vinsn(const VInsn& insn);
VInsn decode_vinsn(std::uint32_t word, std::uint32_t vl, std::uint32_t scalar);

std::string vinsn_to_string(const VInsn& insn);

}  // namespace arcane::vpu

#endif  // ARCANE_VPU_VINSN_HPP_
