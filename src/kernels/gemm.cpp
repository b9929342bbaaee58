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
using vpu::VInsn;
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

// Where tile `idx` sits: N chunk, M block and K step (or the beta step).
struct GemmTile {
  std::uint32_t n0, ncur, m0, mc, k0, kc;
  unsigned step;
  bool beta_tile, last_k;

  GemmTile(const GemmParams& p, unsigned idx) {
    const unsigned ni = idx / p.tiles_per_n;
    const unsigned rem = idx % p.tiles_per_n;
    const unsigned mi = rem / p.tiles_per_m;
    step = rem % p.tiles_per_m;
    n0 = ni * p.nc;
    ncur = std::min(p.nc, p.N - n0);
    m0 = mi * p.mt;
    mc = std::min(p.mt, p.M - m0);
    beta_tile = p.beta != 0 && step == p.kt;
    last_k = step + 1 == p.kt;
    k0 = beta_tile ? 0 : step * p.kb;
    kc = beta_tile ? 0 : std::min(p.kb, p.K - k0);
  }
};

class GemmPlanner final : public crt::Planner {
 public:
  Plan plan(const KernelOp& op, const SystemConfig& cfg) const override {
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

    return one_chain_plan(*this, op, ceil_div(p.N, p.nc) * p.tiles_per_n,
                          p.kb + 2 * p.mt, p);
  }

  Shape tile(const Plan& plan, unsigned, unsigned idx, Tile& t) const override {
    const GemmParams& p = plan.params<GemmParams>();
    const GemmTile g(p, idx);
    const std::uint32_t chunk_bytes = g.ncur * p.es;
    if (!g.beta_tile) {
      // B rows [k0, k0+kc) and A rows [m0, m0+mc), column chunks
      // [n0, n0+ncur) and [k0, k0+kc).
      load_rows(t, p.b_addr + g.n0 * p.es, p.b_stride_b, chunk_bytes, g.k0,
                g.kc, p.b_base);
      load_rows(t, p.a_addr + g.k0 * p.es, p.a_stride_b, g.kc * p.es, g.m0,
                g.mc, p.a_base);
    } else {
      // beta tile: C rows into the B registers.
      load_rows(t, p.c_addr + g.n0 * p.es, p.c_stride_b, chunk_bytes, g.m0,
                g.mc, p.b_base);
    }
    if (g.beta_tile || (g.last_k && p.beta == 0)) {
      store_rows(t, p.d_addr + g.n0 * p.es, p.d_stride_b, chunk_bytes, g.m0,
                 g.mc, p.acc_base);
    }
    // The program zeroes on the first K step and scales by alpha on the
    // last; a beta tile adds beta * C. Registers follow from kb and mt.
    const bool zero = !g.beta_tile && g.step == 0;
    const bool scale = !g.beta_tile && g.last_k && p.alpha != 1;
    const std::int32_t scalar = g.beta_tile ? p.beta : scale ? p.alpha : 0;
    return {(g.beta_tile ? 1u : 0u) | (zero ? 2u : 0u) | (scale ? 4u : 0u),
            g.mc, g.kc, g.ncur, static_cast<std::uint32_t>(scalar), p.kb, p.mt};
  }

  void program(const Plan& plan, unsigned, unsigned idx,
               std::vector<VInsn>& prog) const override {
    const GemmParams& p = plan.params<GemmParams>();
    const GemmTile g(p, idx);
    if (g.beta_tile) {
      // D_row += beta * C_row (column chunk).
      for (std::uint32_t m = 0; m < g.mc; ++m) {
        prog.push_back(vop(VOpc::kMaccVX, p.acc_base + m, 0, p.b_base + m,
                           p.et, g.ncur, static_cast<std::uint32_t>(p.beta)));
      }
      return;
    }
    for (std::uint32_t m = 0; m < g.mc; ++m) {
      const unsigned acc = p.acc_base + m;
      if (g.step == 0) emit_zero(prog, acc, p.et, g.ncur);
      for (std::uint32_t k = 0; k < g.kc; ++k) {
        prog.push_back(vop(VOpc::kMaccEs, acc, p.a_base + m, p.b_base + k,
                           p.et, g.ncur, k));
      }
      if (g.last_k && p.alpha != 1) {
        prog.push_back(vop(VOpc::kMulVX, acc, acc, 0, p.et, g.ncur,
                           static_cast<std::uint32_t>(p.alpha)));
      }
    }
  }
};

}  // namespace

const crt::Planner& gemm_planner() {
  static const GemmPlanner planner;
  return planner;
}

}  // namespace arcane::kernels
