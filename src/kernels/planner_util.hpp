// Shared helpers for the builtin kernel planners.
#ifndef ARCANE_KERNELS_PLANNER_UTIL_HPP_
#define ARCANE_KERNELS_PLANNER_UTIL_HPP_

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "crt/kernel_op.hpp"
#include "vpu/vinsn.hpp"

namespace arcane::kernels {

/// Geometry facts every planner needs.
struct Geometry {
  unsigned es = 4;        // element size in bytes
  unsigned cap = 0;       // elements per vector register (VLEN / es)
  unsigned nv = 32;       // vector registers per VPU

  Geometry(ElemType et, const SystemConfig& cfg)
      : es(elem_bytes(et)),
        cap(cfg.llc.vpu.vlen_bytes / elem_bytes(et)),
        nv(cfg.llc.vpu.num_vregs) {}
};

using Shape = vpu::ProgramKey::Shape;

/// The one-chain plan of `planner` for `op`: `tiles` tiles, registers
/// [0, vregs) claimed, op.md as the destination and `p` as its parameters.
template <typename P>
crt::Plan one_chain_plan(const crt::Planner& planner, const crt::KernelOp& op,
                         unsigned tiles, unsigned vregs, const P& p) {
  crt::Plan plan;
  plan.planner = &planner;
  plan.chain_count = 1;
  plan.tile_count[0] = tiles;
  plan.vregs_claimed = vregs;
  plan.dest_lo = op.md.addr;
  plan.dest_hi = op.md.addr + mat_footprint_bytes(op.md.shape, op.et);
  plan.set_params(p);
  return plan;
}

/// Sign-extend a 16-bit packed scalar parameter (alpha/beta).
constexpr std::int32_t sx16(std::uint16_t v) {
  return static_cast<std::int32_t>(static_cast<std::int16_t>(v));
}

/// Emit a load of matrix rows [row0, row0+nrows) into consecutive vregs.
inline void load_rows(crt::Tile& t, Addr mat_addr, std::uint32_t stride_bytes,
                      std::uint32_t row_bytes, std::uint32_t row0,
                      std::uint32_t nrows, std::uint8_t vreg0) {
  if (nrows == 0) return;
  crt::DmaXfer x;
  x.mem_addr = mat_addr + row0 * stride_bytes;
  x.rows = nrows;
  x.row_bytes = row_bytes;
  x.mem_stride = stride_bytes;
  x.first_vreg = vreg0;
  t.loads.push_back(x);
}

/// Emit a store of consecutive vregs into matrix rows [row0, row0+nrows).
inline void store_rows(crt::Tile& t, Addr mat_addr, std::uint32_t stride_bytes,
                       std::uint32_t row_bytes, std::uint32_t row0,
                       std::uint32_t nrows, std::uint8_t vreg0) {
  if (nrows == 0) return;
  crt::DmaXfer x;
  x.mem_addr = mat_addr + row0 * stride_bytes;
  x.rows = nrows;
  x.row_bytes = row_bytes;
  x.mem_stride = stride_bytes;
  x.first_vreg = vreg0;
  t.stores.push_back(x);
}

/// Emit a load of `nrows` rows of `row_bytes` each, from `addr` on at a
/// pitch of `stride_bytes`, packed one after another into register `vreg`.
inline void pack_rows(crt::Tile& t, Addr addr, std::uint32_t stride_bytes,
                      std::uint32_t row_bytes, std::uint32_t nrows,
                      std::uint8_t vreg) {
  crt::DmaXfer x;
  x.mem_addr = addr;
  x.rows = nrows;
  x.row_bytes = row_bytes;
  x.mem_stride = stride_bytes;
  x.first_vreg = vreg;
  x.vreg_step = 0;
  x.vreg_offset_step = row_bytes;
  t.loads.push_back(x);
}

/// Emit a load of matrix rows [a, b) into a ring of `R` vregs starting at
/// `ring_base`, slot = row % R. Splits at the ring wrap (at most 2 xfers).
inline void ring_load(crt::Tile& t, Addr mat_addr, std::uint32_t stride_bytes,
                      std::uint32_t row_bytes, std::uint32_t a,
                      std::uint32_t b, std::uint8_t ring_base,
                      std::uint32_t R) {
  std::uint32_t row = a;
  while (row < b) {
    const std::uint32_t slot = row % R;
    const std::uint32_t run = std::min(b - row, R - slot);
    load_rows(t, mat_addr, stride_bytes, row_bytes, row, run,
              static_cast<std::uint8_t>(ring_base + slot));
    row += run;
  }
}

// ---- micro-program emission shorthands ----

inline vpu::VInsn vop(vpu::VOpc op, unsigned vd, unsigned vs1, unsigned vs2,
                      ElemType et, std::uint32_t vl, std::uint32_t scalar = 0) {
  vpu::VInsn i;
  i.op = op;
  i.vd = static_cast<std::uint8_t>(vd);
  i.vs1 = static_cast<std::uint8_t>(vs1);
  i.vs2 = static_cast<std::uint8_t>(vs2);
  i.et = et;
  i.vl = vl;
  i.scalar = scalar;
  return i;
}

inline void emit_zero(std::vector<vpu::VInsn>& p, unsigned vd, ElemType et,
                      std::uint32_t vl) {
  p.push_back(vop(vpu::VOpc::kMvVX, vd, 0, 0, et, vl, 0));
}

/// acc += filt[elem_idx] * slide(in, kx):
/// emits the slide (skipped for kx == 0) and the element-scalar MAC.
inline void emit_tap(std::vector<vpu::VInsn>& p, unsigned acc, unsigned filt,
                     std::uint32_t elem_idx, unsigned in, unsigned tmp,
                     std::uint32_t kx, ElemType et, std::uint32_t vl) {
  unsigned src = in;
  if (kx != 0) {
    p.push_back(vop(vpu::VOpc::kSlideDownVX, tmp, in, 0, et, vl, kx));
    src = tmp;
  }
  p.push_back(vop(vpu::VOpc::kMaccEs, acc, filt, src, et, vl, elem_idx));
}

}  // namespace arcane::kernels

#endif  // ARCANE_KERNELS_PLANNER_UTIL_HPP_
