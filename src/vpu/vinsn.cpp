#include "vpu/vinsn.hpp"

#include <sstream>

namespace arcane::vpu {

const char* vopc_name(VOpc op) {
  switch (op) {
    case VOpc::kAddVV: return "vadd.vv";
    case VOpc::kAddVX: return "vadd.vx";
    case VOpc::kSubVV: return "vsub.vv";
    case VOpc::kSubVX: return "vsub.vx";
    case VOpc::kRsubVX: return "vrsub.vx";
    case VOpc::kMulVV: return "vmul.vv";
    case VOpc::kMulVX: return "vmul.vx";
    case VOpc::kMaccVV: return "vmacc.vv";
    case VOpc::kMaccVX: return "vmacc.vx";
    case VOpc::kMaccEs: return "vmacc.es";
    case VOpc::kMinVV: return "vmin.vv";
    case VOpc::kMinVX: return "vmin.vx";
    case VOpc::kMaxVV: return "vmax.vv";
    case VOpc::kMaxVX: return "vmax.vx";
    case VOpc::kAndVV: return "vand.vv";
    case VOpc::kAndVX: return "vand.vx";
    case VOpc::kOrVV: return "vor.vv";
    case VOpc::kOrVX: return "vor.vx";
    case VOpc::kXorVV: return "vxor.vv";
    case VOpc::kXorVX: return "vxor.vx";
    case VOpc::kSllVX: return "vsll.vx";
    case VOpc::kSrlVX: return "vsrl.vx";
    case VOpc::kSraVX: return "vsra.vx";
    case VOpc::kSlideDownVX: return "vslidedown.vx";
    case VOpc::kSlideUpVX: return "vslideup.vx";
    case VOpc::kMvVV: return "vmv.vv";
    case VOpc::kMvVX: return "vmv.vx";
    case VOpc::kGatherStride: return "vgather.strided";
    case VOpc::kOpcCount: return "?";
  }
  return "?";
}

Cycle vinsn_cycles(const VInsn& insn, const VpuConfig& cfg) {
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

std::uint32_t encode_vinsn(const VInsn& insn) {
  const std::uint32_t vl8 = ceil_div<std::uint32_t>(insn.vl, 8u) & 0x1FFu;
  return place(static_cast<std::uint32_t>(insn.op), 31, 26) |
         place(insn.vs2, 25, 21) | place(insn.vs1, 20, 16) |
         place(insn.vd, 15, 11) |
         place(static_cast<std::uint32_t>(insn.et), 10, 9) |
         place(vl8, 8, 0);
}

VInsn decode_vinsn(std::uint32_t w, std::uint32_t vl, std::uint32_t scalar) {
  VInsn insn;
  const auto opc = bits(w, 31, 26);
  ARCANE_CHECK(opc < static_cast<std::uint32_t>(VOpc::kOpcCount),
               "invalid vector opcode " << opc);
  insn.op = static_cast<VOpc>(opc);
  insn.vs2 = static_cast<std::uint8_t>(bits(w, 25, 21));
  insn.vs1 = static_cast<std::uint8_t>(bits(w, 20, 16));
  insn.vd = static_cast<std::uint8_t>(bits(w, 15, 11));
  const auto esize = bits(w, 10, 9);
  ARCANE_CHECK(esize <= static_cast<std::uint32_t>(ElemType::kByte),
               "reserved vector element size " << esize);
  insn.et = static_cast<ElemType>(esize);
  insn.vl = vl;
  insn.scalar = scalar;
  return insn;
}

std::string vinsn_to_string(const VInsn& insn) {
  std::ostringstream os;
  os << vopc_name(insn.op) << '.' << elem_suffix(insn.et) << " v"
     << static_cast<unsigned>(insn.vd) << ", v"
     << static_cast<unsigned>(insn.vs1) << ", v"
     << static_cast<unsigned>(insn.vs2) << " vl=" << insn.vl;
  if (vinsn_uses_scalar(insn.op)) os << " x=" << insn.scalar;
  return os.str();
}

}  // namespace arcane::vpu
