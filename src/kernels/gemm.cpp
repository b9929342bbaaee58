// xmk0 — General Matrix Multiplication: D = alpha*(A x B) + beta*C with
// A = ms1 (MxK), B = ms2 (KxN), C = ms3 (MxN), D = md (MxN).
//
// The inner product runs as rank-1 updates with vmacc.es: each A element
// multiplies a whole B-row chunk into the accumulator row, so the vector
// length is the N-chunk size and the element scalar is pulled from the
// A-row register without any eCPU round trip. All three dimensions tile:
// M over accumulator rows, K over B-row blocks, and N over vector-register
// columns (chunks of VLEN elements), supporting arbitrary shapes.
#include <algorithm>

#include "kernels/planner_util.hpp"
#include "kernels/planners.hpp"

namespace arcane::kernels {
namespace {

using crt::KernelOp;
using crt::Plan;
using crt::Tile;
using vpu::VOpc;

struct GemmParams {
  Addr a_addr, b_addr, c_addr, d_addr;
  std::uint32_t a_stride_b, b_stride_b, c_stride_b, d_stride_b;
  std::uint32_t M, K, N;
  std::int32_t alpha, beta;
  unsigned es;
  ElemType et;
  // layout / tiling
  std::uint32_t kb, mt, nc, kt, tiles_per_m, tiles_per_n;
  std::uint8_t b_base, a_base, acc_base;
};

void gemm_tile(const GemmParams& p, unsigned idx, Tile& t) {
  t.clear();
  const unsigned ni = idx / p.tiles_per_n;
  const unsigned rem = idx % p.tiles_per_n;
  const unsigned mi = rem / p.tiles_per_m;
  const unsigned step = rem % p.tiles_per_m;
  const std::uint32_t n0 = ni * p.nc;
  const std::uint32_t ncur = std::min(p.nc, p.N - n0);
  const std::uint32_t m0 = mi * p.mt;
  const std::uint32_t mc = std::min(p.mt, p.M - m0);
  const bool has_beta_tile = p.beta != 0;
  const bool is_beta_tile = has_beta_tile && step == p.kt;
  const bool is_last_k = step + 1 == p.kt;

  if (!is_beta_tile) {
    const std::uint32_t k0 = step * p.kb;
    const std::uint32_t kc = std::min(p.kb, p.K - k0);
    // B rows [k0, k0+kc), column chunk [n0, n0+ncur).
    crt::DmaXfer b;
    b.mem_addr = p.b_addr + k0 * p.b_stride_b + n0 * p.es;
    b.rows = kc;
    b.row_bytes = ncur * p.es;
    b.mem_stride = p.b_stride_b;
    b.first_vreg = p.b_base;
    t.loads.push_back(b);
    // A rows [m0, m0+mc), column chunk [k0, k0+kc).
    crt::DmaXfer a;
    a.mem_addr = p.a_addr + m0 * p.a_stride_b + k0 * p.es;
    a.rows = mc;
    a.row_bytes = kc * p.es;
    a.mem_stride = p.a_stride_b;
    a.first_vreg = p.a_base;
    t.loads.push_back(a);

    for (std::uint32_t m = 0; m < mc; ++m) {
      const unsigned acc = p.acc_base + m;
      if (step == 0) emit_zero(t.prog, acc, p.et, ncur);
      for (std::uint32_t k = 0; k < kc; ++k) {
        t.prog.push_back(vop(VOpc::kMaccEs, acc, p.a_base + m, p.b_base + k,
                             p.et, ncur, k));
      }
      if (is_last_k && p.alpha != 1) {
        t.prog.push_back(vop(VOpc::kMulVX, acc, acc, 0, p.et, ncur,
                             static_cast<std::uint32_t>(p.alpha)));
      }
    }
    if (is_last_k && !has_beta_tile) {
      crt::DmaXfer s;
      s.mem_addr = p.d_addr + m0 * p.d_stride_b + n0 * p.es;
      s.rows = mc;
      s.row_bytes = ncur * p.es;
      s.mem_stride = p.d_stride_b;
      s.first_vreg = p.acc_base;
      t.stores.push_back(s);
    }
  } else {
    // beta tile: D_row += beta * C_row (column chunk), then write back.
    crt::DmaXfer c;
    c.mem_addr = p.c_addr + m0 * p.c_stride_b + n0 * p.es;
    c.rows = mc;
    c.row_bytes = ncur * p.es;
    c.mem_stride = p.c_stride_b;
    c.first_vreg = p.b_base;
    t.loads.push_back(c);
    for (std::uint32_t m = 0; m < mc; ++m) {
      t.prog.push_back(vop(VOpc::kMaccVX, p.acc_base + m, 0, p.b_base + m,
                           p.et, ncur, static_cast<std::uint32_t>(p.beta)));
    }
    crt::DmaXfer s;
    s.mem_addr = p.d_addr + m0 * p.d_stride_b + n0 * p.es;
    s.rows = mc;
    s.row_bytes = ncur * p.es;
    s.mem_stride = p.d_stride_b;
    s.first_vreg = p.acc_base;
    t.stores.push_back(s);
  }
}

Plan plan_gemm(const KernelOp& op, const SystemConfig& cfg) {
  Geometry g(op.et, cfg);
  const auto& a = op.ms1.shape;
  const auto& b = op.ms2.shape;
  const auto& c = op.ms3.shape;
  const auto& d = op.md.shape;

  if (a.cols != b.rows) return Plan::fail("gemm: inner dimensions differ");
  if (d.rows != a.rows || d.cols != b.cols)
    return Plan::fail("gemm: destination shape mismatch");
  const std::int32_t beta = sx16(op.f.beta);
  if (beta != 0 && (c.rows != d.rows || c.cols != d.cols))
    return Plan::fail("gemm: accumulator (ms3) shape mismatch");

  GemmParams p;
  p.a_addr = op.ms1.addr;
  p.b_addr = op.ms2.addr;
  p.c_addr = op.ms3.addr;
  p.d_addr = op.md.addr;
  p.a_stride_b = a.stride * g.es;
  p.b_stride_b = b.stride * g.es;
  p.c_stride_b = c.stride * g.es;
  p.d_stride_b = d.stride * g.es;
  p.M = a.rows;
  p.K = a.cols;
  p.N = b.cols;
  p.alpha = sx16(op.f.alpha);
  p.beta = beta;
  p.es = g.es;
  p.et = op.et;

  // Layout: kb B-rows + mt A-rows + mt accumulators + one spare; N tiles
  // over whole-register column chunks.
  p.kb = std::min<std::uint32_t>(10, p.K);
  p.mt = std::min<std::uint32_t>((g.nv - p.kb - 1) / 2, p.M);
  p.nc = std::min<std::uint32_t>(g.cap, p.N);
  p.kt = ceil_div(p.K, p.kb);
  p.tiles_per_m = p.kt + (p.beta != 0 ? 1u : 0u);
  p.tiles_per_n = ceil_div(p.M, p.mt) * p.tiles_per_m;
  p.b_base = 0;
  p.a_base = static_cast<std::uint8_t>(p.kb);
  p.acc_base = static_cast<std::uint8_t>(p.kb + p.mt);

  crt::Chain chain;
  chain.tile_count = ceil_div(p.N, p.nc) * p.tiles_per_n;
  chain.make_tile = [p](unsigned i, Tile& t) { gemm_tile(p, i, t); };
  chain.vregs_claimed = p.kb + 2 * p.mt;

  Plan plan;
  plan.chains.push_back(std::move(chain));
  plan.dest_lo = op.md.addr;
  plan.dest_hi = op.md.addr + mat_footprint_bytes(d, op.et);
  return plan;
}

}  // namespace

crt::PlannerFn gemm_planner() {
  return [](const KernelOp& op, const SystemConfig& cfg) {
    return plan_gemm(op, cfg);
  };
}

}  // namespace arcane::kernels
