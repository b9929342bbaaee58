// Extension kernels beyond the paper's five (its §VI future work direction:
// "software-based ISA extensibility"). Registered by
// KernelLibrary::with_extensions():
//
//   xmk5 — Transpose: D = ms1^T. Implemented as pure 2D-DMA restructuring:
//          each destination row is gathered column-wise from memory using
//          element-granular descriptors (rows of `es` bytes with the source
//          row pitch as stride), so no vector ALU work is needed — but the
//          DMA pays one burst per element row, making the cost model
//          faithfully unattractive for large element counts.
//   xmk6 — Hadamard: D = ms1 .* ms2 element-wise (wrap-around product).
#include <algorithm>

#include "kernels/planner_util.hpp"
#include "kernels/planners.hpp"

namespace arcane::kernels {
namespace {

using crt::KernelOp;
using crt::Plan;
using crt::Tile;
using vpu::VInsn;
using vpu::VOpc;

// ------------------------------ transpose -------------------------------

struct TransposeParams {
  Addr in_addr, out_addr;
  std::uint32_t in_stride_b, out_stride_b;
  std::uint32_t M, N;  // input is MxN; output is NxM
  unsigned es;
  ElemType et;
  std::uint32_t nt;  // output rows (input columns) per tile
};

class TransposePlanner final : public crt::Planner {
 public:
  Plan plan(const KernelOp& op, const SystemConfig& cfg) const override {
    Geometry g(op.et, cfg);
    const auto& in = op.ms1.shape;
    const auto& out = op.md.shape;
    if (out.rows != in.cols || out.cols != in.rows) {
      return Plan::fail("transpose: destination shape must be NxM");
    }
    if (in.rows > g.cap) return Plan::fail("transpose: column exceeds VLEN");

    TransposeParams p;
    p.in_addr = op.ms1.addr;
    p.out_addr = op.md.addr;
    p.in_stride_b = in.stride * g.es;
    p.out_stride_b = out.stride * g.es;
    p.M = in.rows;
    p.N = in.cols;
    p.es = g.es;
    p.et = op.et;
    p.nt = std::min<std::uint32_t>(g.nv - 1, p.N);

    return one_chain_plan(*this, op, ceil_div(p.N, p.nt), p.nt, p);
  }

  Shape tile(const Plan& plan, unsigned, unsigned i, Tile& t) const override {
    const TransposeParams& p = plan.params<TransposeParams>();
    const std::uint32_t c0 = i * p.nt;
    const std::uint32_t cc = std::min(p.nt, p.N - c0);
    for (std::uint32_t c = 0; c < cc; ++c) {
      // Column c0+c of the input becomes vector register c: one element per
      // "DMA row", packed consecutively into the register.
      pack_rows(t, p.in_addr + (c0 + c) * p.es, p.in_stride_b, p.es, p.M,
                static_cast<std::uint8_t>(c));
    }
    store_rows(t, p.out_addr, p.out_stride_b, p.M * p.es, c0, cc, 0);
    return {cc, p.M};
  }

  void program(const Plan& plan, unsigned, unsigned i,
               std::vector<VInsn>& prog) const override {
    const TransposeParams& p = plan.params<TransposeParams>();
    // Touch each register through the ALU so the VPU timing reflects the
    // pass-through (a single vmv per row).
    for (std::uint32_t c = 0; c < std::min(p.nt, p.N - i * p.nt); ++c) {
      prog.push_back(vop(VOpc::kMvVV, c, c, 0, p.et, p.M));
    }
  }
};

// ------------------------------ hadamard --------------------------------

struct HadamardParams {
  Addr a_addr, b_addr, d_addr;
  std::uint32_t a_stride_b, b_stride_b, d_stride_b;
  std::uint32_t rows, cols;
  unsigned es;
  ElemType et;
  std::uint32_t rt;
};

class HadamardPlanner final : public crt::Planner {
 public:
  Plan plan(const KernelOp& op, const SystemConfig& cfg) const override {
    Geometry g(op.et, cfg);
    const auto& a = op.ms1.shape;
    const auto& b = op.ms2.shape;
    if (a.rows != b.rows || a.cols != b.cols ||
        op.md.shape.rows != a.rows || op.md.shape.cols != a.cols) {
      return Plan::fail("hadamard: shape mismatch");
    }
    if (a.cols > g.cap) return Plan::fail("hadamard: row exceeds VLEN");

    HadamardParams p;
    p.a_addr = op.ms1.addr;
    p.b_addr = op.ms2.addr;
    p.d_addr = op.md.addr;
    p.a_stride_b = a.stride * g.es;
    p.b_stride_b = b.stride * g.es;
    p.d_stride_b = op.md.shape.stride * g.es;
    p.rows = a.rows;
    p.cols = a.cols;
    p.es = g.es;
    p.et = op.et;
    p.rt = std::min<std::uint32_t>(g.nv / 3, p.rows);

    return one_chain_plan(*this, op, ceil_div(p.rows, p.rt), 3 * p.rt, p);
  }

  Shape tile(const Plan& plan, unsigned, unsigned i, Tile& t) const override {
    const HadamardParams& p = plan.params<HadamardParams>();
    const std::uint32_t r0 = i * p.rt;
    const std::uint32_t rc = std::min(p.rt, p.rows - r0);
    const std::uint32_t row_b = p.cols * p.es;
    load_rows(t, p.a_addr, p.a_stride_b, row_b, r0, rc, 0);
    load_rows(t, p.b_addr, p.b_stride_b, row_b, r0, rc,
              static_cast<std::uint8_t>(p.rt));
    store_rows(t, p.d_addr, p.d_stride_b, row_b, r0, rc,
               static_cast<std::uint8_t>(2 * p.rt));
    return {rc, p.cols, p.rt};
  }

  void program(const Plan& plan, unsigned, unsigned i,
               std::vector<VInsn>& prog) const override {
    const HadamardParams& p = plan.params<HadamardParams>();
    for (std::uint32_t r = 0; r < std::min(p.rt, p.rows - i * p.rt); ++r) {
      prog.push_back(
          vop(VOpc::kMulVV, 2 * p.rt + r, r, p.rt + r, p.et, p.cols));
    }
  }
};

}  // namespace

const crt::Planner& transpose_planner() {
  static const TransposePlanner planner;
  return planner;
}

const crt::Planner& hadamard_planner() {
  static const HadamardPlanner planner;
  return planner;
}

}  // namespace arcane::kernels
